//! SHA-256 compression on the x86 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` runs two rounds over the state held as two halves, `ABEF`
//! and `CDGH`; `sha256msg1` and `sha256msg2` extend the message schedule
//! four words at a time. This module holds the crate's only `unsafe` code:
//! the call into the `#[target_feature]` kernel, made only after run-time
//! detection, and the unaligned loads of each block's four 16-byte lanes.

#![deny(clippy::undocumented_unsafe_blocks)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};

use super::{BLOCK_LEN, K};

/// Compresses `blocks` into `state` and returns `true` on a CPU with the
/// SHA extensions; returns `false` and leaves `state` alone otherwise.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected` has just confirmed that this CPU runs every
    // instruction set `kernel` is compiled for (SSE2 is part of the x86_64
    // baseline).
    unsafe { kernel(state, blocks) };
    true
}

/// Whether this CPU has SHA-NI and the SSSE3 and SSE4.1 shuffles the kernel
/// needs. The standard library caches the answer after the first query.
pub(super) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// The SHA-NI compression of `blocks` into `state`.
///
/// Callers must first check [`detected`]: on a CPU without these features
/// the call is undefined behaviour.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn kernel(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let s = state.map(|word| word as i32);
    // The instructions' layout, highest lane first.
    let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);

    for block in blocks {
        let lanes = block.as_ptr().cast::<__m128i>();
        // SAFETY: a block is 64 bytes, so the four 16-byte loads at byte
        // offsets 0, 16, 32 and 48 read only inside it, and
        // `_mm_loadu_si128` accepts any alignment.
        let mut w = unsafe {
            [
                _mm_loadu_si128(lanes),
                _mm_loadu_si128(lanes.add(1)),
                _mm_loadu_si128(lanes.add(2)),
                _mm_loadu_si128(lanes.add(3)),
            ]
        };
        for lane in &mut w {
            *lane = _mm_shuffle_epi8(*lane, bswap);
        }

        let (abef_in, cdgh_in) = (abef, cdgh);
        // Sixteen groups of four rounds; `w` is a ring of the last sixteen
        // schedule words, and group `i` replaces lane `i % 4`.
        for (i, k) in K.as_chunks::<4>().0.iter().enumerate() {
            if i >= 4 {
                let (w0, w1, w2, w3) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let partial = _mm_sha256msg1_epu32(w0, w1);
                w[i % 4] =
                    _mm_sha256msg2_epu32(_mm_add_epi32(partial, _mm_alignr_epi8::<4>(w3, w2)), w3);
            }
            let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|word| word as u32);
}
