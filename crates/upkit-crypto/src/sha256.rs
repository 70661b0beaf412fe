//! Streaming SHA-256 implementation (FIPS 180-4).
//!
//! UpKit verifies firmware digests both in the update agent and in the
//! bootloader, and both verifications run on devices with 10–50 kB of RAM.
//! The hasher therefore processes input incrementally in 64-byte blocks and
//! keeps a constant-size state, exactly as the paper's `tinycrypt` /
//! `TinyDTLS` implementations do.
//!
//! # Dispatch
//!
//! Every compression goes through one private `compress_blocks`, which
//! [`Sha256::update`] hands each run of whole blocks straight from the
//! caller's slice. In an `x86_64` build with the `std` feature it runs a
//! SHA-NI kernel when `is_x86_feature_detected!` reports `sha`, `ssse3` and
//! `sse4.1` — the way the paper's security interface lets platform crypto
//! hardware stand in for software. Everywhere else, including every
//! `no_std` device build, it runs the portable FIPS 180-4 loop, which is
//! then the only one compiled. Both give the same digests. The SHA-NI
//! module holds the crate's only `unsafe` code: the call behind the
//! feature check and the unaligned loads of each 64-byte block.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

#[cfg(all(feature = "std", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod shani;

/// Size in bytes of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Size in bytes of an internal SHA-256 block.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use upkit_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buffered", &self.buffered)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.pad(compress_blocks)
    }

    /// Tops up a partial block first, then hands every whole block left in
    /// `data` to `compress` straight from the caller's slice.
    fn absorb(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, core::slice::from_ref(&self.buffer));
        }

        let (blocks, rest) = input.as_chunks::<BLOCK_LEN>();
        compress(&mut self.state, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Pads in place — 0x80, zeros, then the 64-bit big-endian message
    /// length in bits — and compresses the last one or two blocks.
    fn pad(mut self, compress: Compress) -> [u8; DIGEST_LEN] {
        const LEN_AT: usize = BLOCK_LEN - 8;
        let bit_len = self.total_len.wrapping_mul(8);

        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= LEN_AT {
            compress(&mut self.state, core::slice::from_ref(&self.buffer));
            self.buffer.fill(0);
        }
        self.buffer[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, core::slice::from_ref(&self.buffer));

        let mut digest = [0u8; DIGEST_LEN];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }
}

/// Folds whole 64-byte blocks into a SHA-256 state, in order.
type Compress = fn(&mut [u32; 8], &[[u8; BLOCK_LEN]]);

/// The one compression every hash runs: the SHA-NI kernel when this is an
/// `x86_64` `std` build on a CPU that reports the SHA extensions, the
/// portable loop otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(all(feature = "std", target_arch = "x86_64"))]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// FIPS 180-4's compression, one block at a time, in plain integer code.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Hashes `data` in one call and returns the 32-byte digest.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::string::String;
    use alloc::vec::Vec;
    use alloc::{format, vec};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A hasher that runs only the portable loop, whatever the CPU.
    fn portable_sha256(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut hasher = Sha256::new();
        for part in parts {
            hasher.absorb(part, compress_portable);
        }
        hasher.pad(compress_portable)
    }

    /// Checks a FIPS 180-4 vector through the dispatching hasher and
    /// through the portable loop alone, so both kernels stay covered on a
    /// CPU with SHA-NI.
    fn check_vector(parts: &[&[u8]], expected: &str) {
        let mut hasher = Sha256::new();
        for part in parts {
            hasher.update(part);
        }
        assert_eq!(hex(&hasher.finalize()), expected, "dispatched");
        assert_eq!(hex(&portable_sha256(parts)), expected, "portable");
    }

    #[test]
    fn empty_message() {
        check_vector(
            &[],
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        check_vector(
            &[b"abc"],
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_two_block() {
        check_vector(
            &[b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"],
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        check_vector(
            &[&[b'a'; 1000][..]; 1000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 7, 63, 64, 65, 100, 512, 1023, 1024] {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the padding boundary (55, 56, 57, 63, 64, 65).
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xa5u8; len];
            let mut h1 = Sha256::new();
            for byte in &data {
                h1.update(core::slice::from_ref(byte));
            }
            assert_eq!(h1.finalize(), sha256(&data), "len {len}");
        }
    }

    /// Whether the SHA-NI arm can run here. On a CPU without it, says so
    /// once, on the process's stderr, which test capture does not hide.
    #[cfg(all(feature = "std", target_arch = "x86_64"))]
    fn shani_present() -> bool {
        static NOTE: std::sync::Once = std::sync::Once::new();
        let present = super::shani::detected();
        if !present {
            NOTE.call_once(|| {
                use std::io::Write;
                let _ = writeln!(
                    std::io::stderr(),
                    "note: this CPU lacks SHA-NI, so the SHA-NI kernel was not tested"
                );
            });
        }
        present
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[cfg(all(feature = "std", target_arch = "x86_64"))]
        #[test]
        fn shani_kernel_matches_portable(
            words in vec(any::<u32>(), 8..9),
            count in 0usize..33,
            bytes in vec(any::<u8>(), 32 * BLOCK_LEN..32 * BLOCK_LEN + 1),
        ) {
            if !shani_present() {
                return;
            }
            let state: [u32; 8] = words.try_into().expect("eight words");
            let (blocks, _) = bytes[..count * BLOCK_LEN].as_chunks::<BLOCK_LEN>();
            let mut expected = state;
            for block in blocks {
                compress_portable(&mut expected, core::slice::from_ref(block));
            }
            let mut got = state;
            prop_assert!(super::shani::compress_blocks(&mut got, blocks));
            prop_assert_eq!(got, expected);
        }
    }

    proptest! {
        #[test]
        fn split_updates_match_one_shot(
            data in vec(any::<u8>(), 0..2048),
            cuts in vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(data.len());
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts {
                parts.push(&data[from..cut]);
                from = cut;
            }
            let mut hasher = Sha256::new();
            for part in &parts {
                hasher.update(part);
            }
            let one_shot = sha256(&data);
            prop_assert_eq!(hasher.finalize(), one_shot);
            prop_assert_eq!(portable_sha256(&parts), one_shot);
        }
    }

    #[test]
    fn debug_does_not_leak_state() {
        let mut hasher = Sha256::new();
        hasher.update(b"secret");
        let printed = format!("{hasher:?}");
        assert!(printed.contains("Sha256"));
        assert!(!printed.contains("secret"));
    }
}
