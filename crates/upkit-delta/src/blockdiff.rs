//! Block-based delta baseline (rsync/xdelta-style).
//!
//! UpKit adopts `bsdiff` + LZSS following Stolikj et al.'s comparison of
//! incremental-update algorithms. To make that design choice reproducible
//! rather than asserted, this module implements the main alternative
//! family: rsync-style block matching. The encoder hashes every aligned
//! block of the old image and scans the new image (sliding per byte), and
//! emits either `Copy { old block }` or literal data. Block deltas are much
//! cheaper to compute (no suffix array) but have no byte-wise diff: a
//! single changed byte turns its whole block into literals, so scattered
//! small edits — exactly the firmware-update workload — degenerate toward
//! retransmitting the image. The `delta_algorithms` experiment quantifies
//! this against bsdiff.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

#[cfg(feature = "std")]
use std::collections::HashMap;

use alloc::vec::Vec;

use upkit_compress::{ByteSink, FixedBuf};

/// Block size used by the encoder (a flash-friendly 256 bytes).
pub const BLOCK_SIZE: usize = 256;

/// Magic bytes identifying a block-diff stream.
pub const MAGIC: [u8; 4] = *b"BLK1";

/// Errors from applying a block diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BlockDiffError {
    /// Missing magic bytes.
    BadMagic,
    /// Input ended inside an instruction.
    Truncated,
    /// A copy referenced a block outside the old image.
    OutOfBounds,
    /// The header declared an output longer than the decode budget.
    BudgetExceeded,
}

impl core::fmt::Display for BlockDiffError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic => f.write_str("missing block-diff magic"),
            Self::Truncated => f.write_str("block-diff stream truncated"),
            Self::OutOfBounds => f.write_str("block-diff copy out of bounds"),
            Self::BudgetExceeded => f.write_str("block-diff declared output exceeds budget"),
        }
    }
}

impl core::error::Error for BlockDiffError {}

#[cfg(feature = "std")]
fn block_hash(block: &[u8]) -> u64 {
    // FNV-1a, sufficient for matching in a trusted pipeline (integrity is
    // the verifier's job; equality is re-checked before emitting a copy).
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in block {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Computes a block diff: `magic ‖ new_len u32 ‖ instructions`, where each
/// instruction is `0x01 ‖ block_index u32` (copy [`BLOCK_SIZE`] bytes from
/// the old image) or `0x00 ‖ len u16 ‖ literal bytes`.
#[cfg(feature = "std")]
#[must_use]
pub fn diff(old: &[u8], new: &[u8]) -> Vec<u8> {
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    for (i, block) in old.chunks_exact(BLOCK_SIZE).enumerate() {
        index.entry(block_hash(block)).or_default().push(i as u32);
    }

    let mut out = Vec::with_capacity(new.len() / 8 + 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(new.len() as u32).to_le_bytes());

    let mut literal: Vec<u8> = Vec::new();
    let flush_literal = |out: &mut Vec<u8>, literal: &mut Vec<u8>| {
        for chunk in literal.chunks(u16::MAX as usize) {
            out.push(0x00);
            out.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
            out.extend_from_slice(chunk);
        }
        literal.clear();
    };

    let mut pos = 0usize;
    while pos + BLOCK_SIZE <= new.len() {
        let candidate = &new[pos..pos + BLOCK_SIZE];
        let matched = index
            .get(&block_hash(candidate))
            .and_then(|blocks| {
                blocks.iter().find(|&&b| {
                    let start = b as usize * BLOCK_SIZE;
                    &old[start..start + BLOCK_SIZE] == candidate
                })
            })
            .copied();
        if let Some(block) = matched {
            flush_literal(&mut out, &mut literal);
            out.push(0x01);
            out.extend_from_slice(&block.to_le_bytes());
            pos += BLOCK_SIZE;
        } else {
            literal.push(new[pos]);
            pos += 1;
        }
    }
    literal.extend_from_slice(&new[pos..]);
    flush_literal(&mut out, &mut literal);
    out
}

/// Applies a block diff to `old`.
///
/// The output allocation is bounded by the delta's own size, not the
/// attacker-controlled header: a declared length the instruction stream
/// cannot actually produce fails with [`BlockDiffError::Truncated`] without
/// ever reserving that much memory. Callers with a known output bound (a
/// flash slot) should use [`patch_with_budget`] to reject oversized
/// declarations up front as [`BlockDiffError::BudgetExceeded`].
pub fn patch(old: &[u8], delta: &[u8]) -> Result<Vec<u8>, BlockDiffError> {
    patch_with_budget(old, delta, usize::MAX)
}

/// Applies a block diff to `old`, rejecting any delta whose header declares
/// an output longer than `budget` bytes.
pub fn patch_with_budget(
    old: &[u8],
    delta: &[u8],
    budget: usize,
) -> Result<Vec<u8>, BlockDiffError> {
    let new_len = parse_header(delta, budget)?;
    // Never pre-allocate from the attacker-controlled header alone: each
    // output byte costs at least 1/BLOCK_SIZE delta bytes, so the stream
    // length bounds what a well-formed delta can produce.
    let producible = delta
        .len()
        .saturating_sub(8)
        .saturating_mul(BLOCK_SIZE)
        .min(new_len);
    let mut out = Vec::with_capacity(producible);
    apply_instructions(old, delta, new_len, &mut out)?;
    Ok(out)
}

/// Applies a block diff to `old` into a caller-provided buffer, without
/// heap allocation; returns the number of bytes written.
///
/// The buffer length doubles as the decode budget: a delta declaring more
/// output than `out` can hold is rejected with
/// [`BlockDiffError::BudgetExceeded`] at the header.
///
/// # Errors
///
/// Same as [`patch_with_budget`] with `budget == out.len()`.
pub fn patch_into(old: &[u8], delta: &[u8], out: &mut [u8]) -> Result<usize, BlockDiffError> {
    let new_len = parse_header(delta, out.len())?;
    let mut buf = FixedBuf::new(out);
    apply_instructions(old, delta, new_len, &mut buf)?;
    debug_assert!(!buf.overflowed(), "budget bounds every write");
    Ok(buf.len())
}

fn parse_header(delta: &[u8], budget: usize) -> Result<usize, BlockDiffError> {
    let Some(&[m0, m1, m2, m3, l0, l1, l2, l3]) = delta.first_chunk::<8>() else {
        return Err(BlockDiffError::BadMagic);
    };
    if [m0, m1, m2, m3] != MAGIC {
        return Err(BlockDiffError::BadMagic);
    }
    let new_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if new_len > budget {
        return Err(BlockDiffError::BudgetExceeded);
    }
    Ok(new_len)
}

/// Decodes the instruction stream into `out`, checking each instruction's
/// output against `new_len` *before* emitting it, so a sink sized to the
/// (budget-checked) declared length can never overflow.
fn apply_instructions<S: ByteSink + ?Sized>(
    old: &[u8],
    delta: &[u8],
    new_len: usize,
    out: &mut S,
) -> Result<(), BlockDiffError> {
    let mut produced = 0usize;
    let mut pos = 8usize;
    while pos < delta.len() {
        match delta[pos] {
            0x01 => {
                let bytes = delta
                    .get(pos + 1..)
                    .and_then(<[u8]>::first_chunk::<4>)
                    .ok_or(BlockDiffError::Truncated)?;
                let block = u32::from_le_bytes(*bytes) as usize;
                let start = block
                    .checked_mul(BLOCK_SIZE)
                    .ok_or(BlockDiffError::OutOfBounds)?;
                let source = old
                    .get(start..start + BLOCK_SIZE)
                    .ok_or(BlockDiffError::OutOfBounds)?;
                if produced + BLOCK_SIZE > new_len {
                    return Err(BlockDiffError::Truncated);
                }
                out.put_slice(source);
                produced += BLOCK_SIZE;
                pos += 5;
            }
            0x00 => {
                let bytes = delta
                    .get(pos + 1..)
                    .and_then(<[u8]>::first_chunk::<2>)
                    .ok_or(BlockDiffError::Truncated)?;
                let len = u16::from_le_bytes(*bytes) as usize;
                let literal = delta
                    .get(pos + 3..pos + 3 + len)
                    .ok_or(BlockDiffError::Truncated)?;
                if produced + len > new_len {
                    return Err(BlockDiffError::Truncated);
                }
                out.put_slice(literal);
                produced += len;
                pos += 3 + len;
            }
            _ => return Err(BlockDiffError::Truncated),
        }
    }
    if produced != new_len {
        return Err(BlockDiffError::Truncated);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn identical_images_are_all_copies() {
        let data = lcg(1, BLOCK_SIZE * 16);
        let delta = diff(&data, &data);
        assert_eq!(patch(&data, &delta).unwrap(), data);
        // 16 copy instructions of 5 bytes + 8-byte header.
        assert_eq!(delta.len(), 8 + 16 * 5);
    }

    #[test]
    fn round_trips_arbitrary_pairs() {
        for (a, b) in [(2u32, 3u32), (4, 5), (6, 7)] {
            let old = lcg(a, 3000);
            let new = lcg(b, 2500);
            let delta = diff(&old, &new);
            assert_eq!(patch(&old, &delta).unwrap(), new);
        }
    }

    #[test]
    fn aligned_change_stays_cheap() {
        let old = lcg(8, BLOCK_SIZE * 20);
        let mut new = old.clone();
        // Overwrite one whole block in place: only that block turns literal.
        new[BLOCK_SIZE * 5..BLOCK_SIZE * 6].copy_from_slice(&lcg(9, BLOCK_SIZE));
        let delta = diff(&old, &new);
        assert_eq!(patch(&old, &delta).unwrap(), new);
        assert!(delta.len() < BLOCK_SIZE + 8 + 20 * 5 + 3);
    }

    #[test]
    fn insertion_is_handled_by_the_sliding_matcher() {
        // Unlike naive aligned block diffs, the rsync-style scan recovers
        // after a one-byte insertion: only the straddling block turns
        // literal.
        let old = lcg(10, BLOCK_SIZE * 20);
        let mut new = old[..BLOCK_SIZE].to_vec();
        new.push(0xEE);
        new.extend_from_slice(&old[BLOCK_SIZE..]);
        let delta = diff(&old, &new);
        assert_eq!(patch(&old, &delta).unwrap(), new);
        assert!(delta.len() < BLOCK_SIZE * 3, "{}", delta.len());
    }

    #[test]
    fn scattered_edits_degenerate_vs_bsdiff() {
        // The structural weakness: no byte-wise delta. One changed byte
        // per block forces the whole block to be literal, while bsdiff
        // transmits near-zero effective bytes for the same workload.
        let old = lcg(11, BLOCK_SIZE * 40);
        let mut new = old.clone();
        for i in (BLOCK_SIZE / 2..new.len()).step_by(BLOCK_SIZE) {
            new[i] ^= 0x01;
        }
        let block_delta = diff(&old, &new);
        assert_eq!(patch(&old, &block_delta).unwrap(), new);
        let bsdiff_effective = crate::diff(&old, &new).iter().filter(|&&b| b != 0).count();
        assert!(
            block_delta.len() > old.len() * 3 / 4,
            "block diff degenerates: {} of {}",
            block_delta.len(),
            old.len()
        );
        assert!(
            bsdiff_effective < old.len() / 10,
            "bsdiff stays tiny: {bsdiff_effective}"
        );
    }

    #[test]
    fn rejects_corrupt_streams() {
        let old = lcg(11, 1000);
        let delta = diff(&old, &lcg(12, 900));
        assert_eq!(patch(&old, &delta[..4]), Err(BlockDiffError::BadMagic));
        let mut bad_magic = delta.clone();
        bad_magic[0] = b'X';
        assert_eq!(patch(&old, &bad_magic), Err(BlockDiffError::BadMagic));
        let truncated = &delta[..delta.len() - 1];
        assert!(patch(&old, truncated).is_err());
    }

    #[test]
    fn huge_declared_length_does_not_preallocate() {
        // The allocation-DoS case: a 12-byte delta declaring a ~4 GiB
        // output. The decode must fail with a typed error without ever
        // reserving the declared length.
        let mut delta = Vec::new();
        delta.extend_from_slice(&MAGIC);
        delta.extend_from_slice(&u32::MAX.to_le_bytes());
        delta.extend_from_slice(&[0x00, 0x00, 0x00, 0x00]); // empty literal + junk
        let err = patch(&[0u8; 64], &delta).unwrap_err();
        assert_eq!(err, BlockDiffError::Truncated);
        // With a slot-derived budget the lie is rejected before decoding.
        assert_eq!(
            patch_with_budget(&[0u8; 64], &delta, 4096),
            Err(BlockDiffError::BudgetExceeded)
        );
    }

    #[test]
    fn budget_admits_honest_deltas() {
        let old = lcg(20, 3000);
        let new = lcg(21, 2500);
        let delta = diff(&old, &new);
        assert_eq!(patch_with_budget(&old, &delta, new.len()).unwrap(), new);
        assert_eq!(
            patch_with_budget(&old, &delta, new.len() - 1),
            Err(BlockDiffError::BudgetExceeded)
        );
    }

    #[test]
    fn rejects_out_of_bounds_copy() {
        let mut delta = Vec::new();
        delta.extend_from_slice(&MAGIC);
        delta.extend_from_slice(&(BLOCK_SIZE as u32).to_le_bytes());
        delta.push(0x01);
        delta.extend_from_slice(&999u32.to_le_bytes());
        assert_eq!(
            patch(&[0u8; BLOCK_SIZE], &delta),
            Err(BlockDiffError::OutOfBounds)
        );
    }

    #[test]
    fn blockdiff_is_not_a_pipeline_wire_format() {
        // `PatchFormat::detect` sniffs the pipeline containers from their
        // magic; the blockdiff experiment baseline must never be mistaken
        // for one (its magic is distinct from both by construction).
        let old = lcg(30, 2000);
        let new = lcg(31, 2000);
        let delta = diff(&old, &new);
        assert_eq!(&delta[..4], &MAGIC);
        assert_eq!(crate::PatchFormat::detect(&delta), None);
        assert_eq!(
            crate::PatchFormat::detect(&crate::diff(&old, &new)),
            Some(crate::PatchFormat::Raw)
        );
        assert_eq!(
            crate::PatchFormat::detect(&crate::framed_diff(
                &old,
                &new,
                &crate::FramedDiffOptions::default()
            )),
            Some(crate::PatchFormat::Framed)
        );
    }
}
