//! Binary differencing (`bsdiff`) and streaming patching (`bspatch`) for
//! UpKit differential updates.
//!
//! The update server computes a delta between the device's current firmware
//! and the new image ([`diff`]); the device reconstructs the new image by
//! running the patch through its pipeline, where the *patching stage*
//! ([`StreamPatcher`]) consumes patch bytes incrementally — in radio-MTU
//! chunks — while reading the old image from a flash slot and emitting new
//! bytes straight to the writer stage. No extra slot is ever allocated for
//! the patch itself, which is the paper's key storage optimization
//! (Sect. IV-C).
//!
//! # Patch format
//!
//! `magic ‖ old_len u32 ‖ new_len u32`, then a sequence of entries:
//! `diff_len u32 ‖ extra_len u32 ‖ seek i32`, followed by `diff_len` bytes
//! to add to the old image at the current cursor and `extra_len` literal
//! bytes; `seek` then adjusts the old-image cursor. This is the classic
//! bsdiff structure with the three blocks interleaved so it can be applied
//! in a single pass. Compression is applied *outside* this crate (UpKit's
//! pipeline runs the patch through LZSS first).
//!
//! A fixed-block baseline ([`blockdiff`]) is included so the bsdiff choice
//! can be evaluated rather than assumed (see the `delta_algorithms`
//! experiment).
//!
//! # Examples
//!
//! ```
//! use upkit_delta::{diff, patch};
//!
//! let old = b"firmware version 1.0 with features A and B".to_vec();
//! let new = b"firmware version 2.0 with features A, B and C".to_vec();
//! let delta = diff(&old, &new);
//! assert_eq!(patch(&old, &delta).unwrap(), new);
//! ```

//! # `no_std` support
//!
//! With `--no-default-features` the crate builds as `no_std + alloc` and
//! keeps the *application* half — [`StreamPatcher`], [`FramedPatcher`],
//! [`patch`], [`patch_into`], and the [`blockdiff`] decoder. Patch
//! *generation* (suffix arrays, [`diff`], [`framed_diff`], the worker
//! pool, `blockdiff::diff`) is server-side work and needs the `std`
//! feature.

#![cfg_attr(not(feature = "std"), no_std)]
#![warn(missing_docs)]
#![warn(clippy::std_instead_of_core)]
#![warn(clippy::std_instead_of_alloc)]
#![warn(clippy::alloc_instead_of_core)]

extern crate alloc;

pub mod blockdiff;
pub mod framed;
#[cfg(feature = "std")]
pub mod pool;
#[cfg(feature = "std")]
pub mod sais;
#[cfg(feature = "std")]
pub mod suffix;
#[cfg(feature = "std")]
pub mod window;

pub use framed::{patch_framed, patch_framed_into, FramedError, FramedPatcher, FRAMED_MAGIC};
#[cfg(feature = "std")]
pub use window::{framed_diff, FramedDiffOptions, DEFAULT_WINDOW_LEN};

use alloc::vec::Vec;

#[cfg(feature = "std")]
use suffix::SuffixArray;
use upkit_compress::ByteSink;

/// Magic bytes identifying a patch produced by this crate.
pub const MAGIC: [u8; 4] = *b"BSD1";

/// The wire container a patch payload is encoded in.
///
/// `Raw` is the classic monolithic bsdiff stream ([`diff`]/[`patch`]);
/// `Framed` is the windowed container ([`framed_diff`]/[`patch_framed`])
/// that carries one independently compressed Raw patch per window of the
/// new image. Both start with a 4-byte magic, so a decoder (or a cache
/// key) can identify the container from the first bytes alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatchFormat {
    /// One monolithic bsdiff stream (`"BSD1"`).
    #[default]
    Raw,
    /// The windowed per-window-compressed container (`"BSF2"`).
    Framed,
}

impl PatchFormat {
    /// Identifies the patch container from its leading magic bytes.
    ///
    /// Returns `None` for anything else — including the [`blockdiff`]
    /// experiment format (`"BLK1"`), which is a baseline for evaluation,
    /// not a pipeline wire format.
    #[must_use]
    pub fn detect(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 {
            return None;
        }
        if bytes[..4] == MAGIC {
            Some(Self::Raw)
        } else if bytes[..4] == FRAMED_MAGIC {
            Some(Self::Framed)
        } else {
            None
        }
    }

    /// Stable lowercase label for trace events and cache keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Raw => "raw",
            Self::Framed => "framed",
        }
    }
}

/// Size in bytes of the patch header.
pub const HEADER_LEN: usize = 4 + 4 + 4;

/// Size in bytes of a control entry.
pub const CONTROL_LEN: usize = 4 + 4 + 4;

/// Upper bound on the size of any patch [`diff`] can emit for a
/// `new_len`-byte image.
///
/// Diff and extra bytes across all entries partition the new image
/// (`new_len` bytes total), and every entry's break condition guarantees
/// at least one byte of forward progress in `new`, so at most
/// `new_len + 1` control entries exist. Decoders sizing allocations from
/// untrusted length declarations clamp to this instead of trusting the
/// wire.
#[must_use]
pub fn max_patch_len(new_len: u64) -> u64 {
    HEADER_LEN as u64 + (new_len + 1) * (CONTROL_LEN as u64 + 1)
}

/// Errors produced while applying a patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatchError {
    /// The patch does not begin with the expected magic bytes.
    BadMagic,
    /// The patch was computed against an old image of a different length.
    OldLengthMismatch,
    /// A control entry walked outside the old image.
    OldRangeOutOfBounds,
    /// The patch produced more output than its header declared.
    OutputOverrun,
    /// The patch ended before producing the declared output length.
    Truncated,
    /// Reading the old image failed.
    OldReadFailed,
    /// The header declared an output longer than the decode budget.
    BudgetExceeded,
}

impl core::fmt::Display for PatchError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic => f.write_str("missing bsdiff magic bytes"),
            Self::OldLengthMismatch => f.write_str("patch targets an old image of different size"),
            Self::OldRangeOutOfBounds => f.write_str("patch control walked outside the old image"),
            Self::OutputOverrun => f.write_str("patch produced more data than declared"),
            Self::Truncated => f.write_str("patch stream truncated"),
            Self::OldReadFailed => f.write_str("reading the old image failed"),
            Self::BudgetExceeded => f.write_str("patch declared output exceeds decode budget"),
        }
    }
}

impl core::error::Error for PatchError {}

/// Random-access source for the old firmware image during patching.
///
/// On the device this is backed by a flash slot (internal flash is
/// memory-mapped on the paper's platforms); in tests it is a byte slice.
pub trait OldImage {
    /// Total length of the old image in bytes.
    fn len(&self) -> u64;

    /// Returns `true` if the image is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`PatchError::OldReadFailed`] if the range cannot be read.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PatchError>;
}

impl OldImage for [u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PatchError> {
        let start = usize::try_from(offset).map_err(|_| PatchError::OldReadFailed)?;
        let end = start
            .checked_add(buf.len())
            .ok_or(PatchError::OldReadFailed)?;
        if end > <[u8]>::len(self) {
            return Err(PatchError::OldReadFailed);
        }
        buf.copy_from_slice(&self[start..end]);
        Ok(())
    }
}

impl OldImage for &[u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PatchError> {
        (**self).read_at(offset, buf)
    }
}

impl OldImage for Vec<u8> {
    fn len(&self) -> u64 {
        self.as_slice().len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PatchError> {
        self.as_slice().read_at(offset, buf)
    }
}

/// Shared old-image handles, so one image can back several patchers (the
/// framed container applies every window against the same old image).
impl<O: OldImage + ?Sized> OldImage for alloc::sync::Arc<O> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), PatchError> {
        (**self).read_at(offset, buf)
    }
}

/// Reusable per-old-image state for differencing.
///
/// Building the suffix array dominates [`diff`]; when one old image is
/// diffed against many new images — per-platform builds, per-version
/// campaigns, many device requests sharing a base release — the array
/// should be built once and shared. `DeltaContext` bundles the suffix
/// array with a SHA-256 of the old image so every later
/// [`DeltaContext::diff`] call can cheaply reject a mismatched old image
/// instead of silently producing a patch against the wrong base.
///
/// # Examples
///
/// ```
/// use upkit_delta::{patch, DeltaContext};
///
/// let old = b"shared base firmware image".to_vec();
/// let ctx = DeltaContext::new(&old);
/// for new in [b"shared base firmware image v2".to_vec(), b"rebuilt image".to_vec()] {
///     let delta = ctx.diff(&old, &new);
///     assert_eq!(patch(&old, &delta).unwrap(), new);
/// }
/// ```
#[cfg(feature = "std")]
#[derive(Clone, Debug)]
pub struct DeltaContext {
    suffix_array: SuffixArray,
    old_image_hash: [u8; 32],
}

#[cfg(feature = "std")]
impl DeltaContext {
    /// Builds the context for `old`.
    #[must_use]
    pub fn new(old: &[u8]) -> Self {
        Self {
            suffix_array: SuffixArray::build(old),
            old_image_hash: upkit_crypto::sha256::sha256(old),
        }
    }

    /// SHA-256 of the old image this context was built for.
    #[must_use]
    pub fn old_image_hash(&self) -> &[u8; 32] {
        &self.old_image_hash
    }

    /// The suffix array over the old image.
    #[must_use]
    pub fn suffix_array(&self) -> &SuffixArray {
        &self.suffix_array
    }

    /// Computes a patch transforming `old` into `new`, reusing this
    /// context's suffix array. Byte-identical to [`diff`] output.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not the image the context was built for (the
    /// patch would corrupt every device applying it).
    #[must_use]
    pub fn diff(&self, old: &[u8], new: &[u8]) -> Vec<u8> {
        assert_eq!(
            upkit_crypto::sha256::sha256(old),
            self.old_image_hash,
            "DeltaContext used with a different old image than it was built for"
        );
        diff_with_suffix_array(&self.suffix_array, old, new)
    }

    /// Computes a framed (windowed) patch transforming `old` into `new`,
    /// reusing this context's suffix array across all window jobs.
    /// Byte-identical to [`framed_diff`] output at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not the image the context was built for.
    #[must_use]
    pub fn framed_diff(&self, old: &[u8], new: &[u8], options: &FramedDiffOptions) -> Vec<u8> {
        assert_eq!(
            upkit_crypto::sha256::sha256(old),
            self.old_image_hash,
            "DeltaContext used with a different old image than it was built for"
        );
        window::framed_diff_with_suffix_array(&self.suffix_array, old, new, options)
    }
}

/// Computes a patch transforming `old` into `new` (server-side operation).
///
/// Follows Colin Percival's bsdiff matching strategy: approximate matches
/// are extended with a mismatch budget so that byte-wise deltas of similar
/// regions compress well downstream.
///
/// Builds a fresh suffix array per call; use [`DeltaContext`] to amortize
/// that cost across several diffs against the same old image.
#[cfg(feature = "std")]
#[must_use]
pub fn diff(old: &[u8], new: &[u8]) -> Vec<u8> {
    diff_with_suffix_array(&SuffixArray::build(old), old, new)
}

#[cfg(feature = "std")]
pub(crate) fn diff_with_suffix_array(sa: &SuffixArray, old: &[u8], new: &[u8]) -> Vec<u8> {
    // The diff and extra blocks carry exactly `new.len()` bytes; the rest
    // is one control entry per changed region (~220 for a 128 KiB OS-version
    // change), so room for one per 384 new bytes sizes the buffer once.
    let mut out = Vec::with_capacity(HEADER_LEN + new.len() + CONTROL_LEN * (4 + new.len() / 384));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(old.len() as u32).to_le_bytes());
    out.extend_from_slice(&(new.len() as u32).to_le_bytes());

    let mut scan = 0usize; // cursor in new
    let mut len = 0usize; // length of current match
    let mut pos = 0usize; // match position in old
    let mut lastscan = 0usize;
    let mut lastpos = 0usize;
    let mut lastoffset = 0isize;

    while scan < new.len() {
        let mut oldscore = 0usize;
        scan += len;
        let mut scsc = scan;

        while scan < new.len() {
            let (l, p) = sa.longest_match(old, &new[scan..]);
            len = l;
            pos = p;

            while scsc < scan + len {
                let off = scsc as isize + lastoffset;
                if off >= 0 && (off as usize) < old.len() && old[off as usize] == new[scsc] {
                    oldscore += 1;
                }
                scsc += 1;
            }

            if (len == oldscore && len != 0) || len > oldscore + 8 {
                break;
            }

            let off = scan as isize + lastoffset;
            if off >= 0 && (off as usize) < old.len() && old[off as usize] == new[scan] {
                oldscore = oldscore.saturating_sub(1);
            }
            scan += 1;
        }

        if len != oldscore || scan == new.len() {
            // Extend the previous match region forward (lenf) while at
            // least half the bytes agree.
            let mut lenf = 0usize;
            {
                let mut s = 0usize;
                let mut sf = 0usize;
                let mut i = 0usize;
                while lastscan + i < scan && lastpos + i < old.len() {
                    if old[lastpos + i] == new[lastscan + i] {
                        s += 1;
                    }
                    i += 1;
                    if s * 2 + lenf >= sf * 2 + i {
                        sf = s;
                        lenf = i;
                    }
                }
            }

            // Extend the new match region backward (lenb).
            let mut lenb = 0usize;
            if scan < new.len() {
                let mut s = 0usize;
                let mut sb = 0usize;
                let mut i = 1usize;
                while scan >= lastscan + i && pos >= i {
                    if old[pos - i] == new[scan - i] {
                        s += 1;
                    }
                    if s * 2 + lenb >= sb * 2 + i {
                        sb = s;
                        lenb = i;
                    }
                    i += 1;
                }
            }

            // Resolve overlap between the forward and backward extensions.
            if lastscan + lenf > scan - lenb {
                let overlap = (lastscan + lenf) - (scan - lenb);
                let mut s = 0isize;
                let mut best_s = 0isize;
                let mut lens = 0usize;
                for i in 0..overlap {
                    if new[lastscan + lenf - overlap + i] == old[lastpos + lenf - overlap + i] {
                        s += 1;
                    }
                    if new[scan - lenb + i] == old[pos - lenb + i] {
                        s -= 1;
                    }
                    if s > best_s {
                        best_s = s;
                        lens = i + 1;
                    }
                }
                lenf += lens;
                lenf -= overlap;
                lenb -= lens;
            }

            let extra_start = lastscan + lenf;
            let extra_len = (scan - lenb) - extra_start;
            let seek = (pos as i64 - lenb as i64) - (lastpos as i64 + lenf as i64);

            out.extend_from_slice(&(lenf as u32).to_le_bytes());
            out.extend_from_slice(&(extra_len as u32).to_le_bytes());
            out.extend_from_slice(&(seek as i32).to_le_bytes());
            for i in 0..lenf {
                out.push(new[lastscan + i].wrapping_sub(old[lastpos + i]));
            }
            out.extend_from_slice(&new[extra_start..extra_start + extra_len]);

            lastscan = scan - lenb;
            lastpos = pos - lenb;
            lastoffset = pos as isize - scan as isize;
        }
    }

    out
}

/// Applies `patch_bytes` to `old` in one call.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub fn patch(old: &[u8], patch_bytes: &[u8]) -> Result<Vec<u8>, PatchError> {
    let mut patcher = StreamPatcher::new(old);
    let mut out = Vec::new();
    patcher.push(patch_bytes, &mut out)?;
    patcher.finish()?;
    Ok(out)
}

/// Applies `patch_bytes` to `old` into a caller-provided buffer, without
/// heap allocation; returns the number of bytes written.
///
/// The buffer length doubles as the decode budget: a patch declaring more
/// output than `out` can hold is rejected with
/// [`PatchError::BudgetExceeded`] at the header, so the patcher can never
/// run past the end of `out`.
///
/// # Errors
///
/// Same as [`patch`], plus the budget rejection described above.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub fn patch_into(old: &[u8], patch_bytes: &[u8], out: &mut [u8]) -> Result<usize, PatchError> {
    let budget = out.len() as u64;
    let mut buf = upkit_compress::FixedBuf::new(out);
    let mut patcher = StreamPatcher::with_budget(old, budget);
    patcher.push(patch_bytes, &mut buf)?;
    patcher.finish()?;
    debug_assert!(!buf.overflowed(), "budget bounds every write");
    Ok(buf.len())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PatchState {
    Header { filled: usize },
    Control { filled: usize },
    Diff { remaining: u32 },
    Extra { remaining: u32 },
    Done,
}

/// Bytes of old image read per iteration while applying a diff block.
///
/// Diff blocks are processed through a fixed stack buffer of this size,
/// which receives the old bytes, takes the delta in place and is emitted
/// as one run, so the steady-state patch loop performs no heap allocation
/// regardless of block length.
const DIFF_CHUNK: usize = 256;

/// Incremental bspatch: accepts patch bytes in arbitrary chunks, reads the
/// old image on demand, and appends reconstructed bytes to any
/// [`ByteSink`] — a `Vec<u8>` on the host, a fixed slice
/// ([`upkit_compress::FixedBuf`]) on a device.
///
/// This is the *patching stage* of UpKit's pipeline. RAM usage is constant:
/// a 12-byte header/control scratch buffer, a `DIFF_CHUNK`-byte stack
/// buffer while applying diff blocks, and the old-image cursor. The push
/// loop itself never allocates.
#[derive(Debug)]
pub struct StreamPatcher<O> {
    old: O,
    state: PatchState,
    scratch: [u8; HEADER_LEN],
    new_len: u64,
    budget: u64,
    produced: u64,
    old_pos: i64,
    extra_after_diff: u32,
    seek_after_extra: i32,
}

#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
impl<O: OldImage> StreamPatcher<O> {
    /// Creates a patcher that reads the previous firmware from `old`.
    #[must_use]
    pub fn new(old: O) -> Self {
        Self::with_budget(old, u64::MAX)
    }

    /// Creates a patcher that rejects any patch whose header declares an
    /// output longer than `budget` bytes.
    ///
    /// The declared length drives how much the caller accumulates and
    /// writes downstream; on a device the bound is the target flash slot,
    /// so a header lying about its output is rejected with
    /// [`PatchError::BudgetExceeded`] before any byte is produced.
    #[must_use]
    pub fn with_budget(old: O, budget: u64) -> Self {
        Self {
            old,
            state: PatchState::Header { filled: 0 },
            scratch: [0; HEADER_LEN],
            new_len: 0,
            budget,
            produced: 0,
            old_pos: 0,
            extra_after_diff: 0,
            seek_after_extra: 0,
        }
    }

    /// Declared output length (0 until the header is parsed).
    #[must_use]
    pub fn new_len(&self) -> u64 {
        self.new_len
    }

    /// Bytes produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Returns `true` once the full new image has been produced.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == PatchState::Done
    }

    /// Feeds patch bytes, appending reconstructed output to `out`.
    ///
    /// Each control entry is checked once, when its control word
    /// completes and before any byte of it is emitted: an entry that would
    /// overrun the declared length, or whose diff block lies outside the
    /// old image, is rejected there. So a sink sized to the
    /// (budget-checked) declared length can never overflow, and the error
    /// and the bytes emitted before it do not depend on how the patch is
    /// cut into pushes.
    pub fn push<S: ByteSink + ?Sized>(
        &mut self,
        input: &[u8],
        out: &mut S,
    ) -> Result<(), PatchError> {
        let mut input = input;
        while !input.is_empty() {
            match self.state {
                PatchState::Header { filled } => {
                    let take = (HEADER_LEN - filled).min(input.len());
                    self.scratch[filled..filled + take].copy_from_slice(&input[..take]);
                    input = &input[take..];
                    let filled = filled + take;
                    if filled == HEADER_LEN {
                        let [m0, m1, m2, m3, o0, o1, o2, o3, n0, n1, n2, n3] = self.scratch;
                        if [m0, m1, m2, m3] != MAGIC {
                            return Err(PatchError::BadMagic);
                        }
                        let old_len = u32::from_le_bytes([o0, o1, o2, o3]);
                        if u64::from(old_len) != self.old.len() {
                            return Err(PatchError::OldLengthMismatch);
                        }
                        self.new_len = u64::from(u32::from_le_bytes([n0, n1, n2, n3]));
                        if self.new_len > self.budget {
                            return Err(PatchError::BudgetExceeded);
                        }
                        self.state = if self.new_len == 0 {
                            PatchState::Done
                        } else {
                            PatchState::Control { filled: 0 }
                        };
                    } else {
                        self.state = PatchState::Header { filled };
                    }
                }
                PatchState::Control { filled } => {
                    let take = (CONTROL_LEN - filled).min(input.len());
                    self.scratch[filled..filled + take].copy_from_slice(&input[..take]);
                    input = &input[take..];
                    let filled = filled + take;
                    if filled == CONTROL_LEN {
                        let [d0, d1, d2, d3, e0, e1, e2, e3, s0, s1, s2, s3] = self.scratch;
                        let diff_len = u32::from_le_bytes([d0, d1, d2, d3]);
                        self.extra_after_diff = u32::from_le_bytes([e0, e1, e2, e3]);
                        self.seek_after_extra = i32::from_le_bytes([s0, s1, s2, s3]);
                        let entry_len = u64::from(diff_len) + u64::from(self.extra_after_diff);
                        if self.produced + entry_len > self.new_len {
                            return Err(PatchError::OutputOverrun);
                        }
                        // Old bytes [old_pos, old_pos + diff_len).
                        if diff_len > 0
                            && (self.old_pos < 0
                                || (self.old_pos as u64).saturating_add(u64::from(diff_len))
                                    > self.old.len())
                        {
                            return Err(PatchError::OldRangeOutOfBounds);
                        }
                        self.state = PatchState::Diff {
                            remaining: diff_len,
                        };
                        self.advance_through_empty_blocks();
                    } else {
                        self.state = PatchState::Control { filled };
                    }
                }
                PatchState::Diff { remaining } => {
                    let take = (remaining as usize).min(input.len());
                    let mut block = [0u8; DIFF_CHUNK];
                    let mut at = self.old_pos as u64;
                    for delta in input[..take].chunks(DIFF_CHUNK) {
                        let new = &mut block[..delta.len()];
                        self.old.read_at(at, new)?;
                        for (byte, d) in new.iter_mut().zip(delta) {
                            *byte = byte.wrapping_add(*d);
                        }
                        out.put_slice(new);
                        at += delta.len() as u64;
                    }
                    self.produced += take as u64;
                    self.old_pos += take as i64;
                    input = &input[take..];
                    self.state = PatchState::Diff {
                        remaining: remaining - take as u32,
                    };
                    self.advance_through_empty_blocks();
                }
                PatchState::Extra { remaining } => {
                    let take = (remaining as usize).min(input.len());
                    out.put_slice(&input[..take]);
                    self.produced += take as u64;
                    input = &input[take..];
                    self.state = PatchState::Extra {
                        remaining: remaining - take as u32,
                    };
                    self.advance_through_empty_blocks();
                }
                PatchState::Done => {
                    return Err(PatchError::OutputOverrun);
                }
            }
        }
        Ok(())
    }

    /// Declares end of patch input; fails if output is incomplete.
    pub fn finish(&self) -> Result<(), PatchError> {
        if self.state == PatchState::Done {
            Ok(())
        } else {
            Err(PatchError::Truncated)
        }
    }

    /// Moves past exhausted diff/extra blocks and applies the seek at the
    /// end of an entry, deciding whether the patch is complete.
    fn advance_through_empty_blocks(&mut self) {
        if let PatchState::Diff { remaining: 0 } = self.state {
            self.state = PatchState::Extra {
                remaining: self.extra_after_diff,
            };
        }
        if let PatchState::Extra { remaining: 0 } = self.state {
            self.old_pos += i64::from(self.seek_after_extra);
            self.state = if self.produced == self.new_len {
                PatchState::Done
            } else {
                PatchState::Control { filled: 0 }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_bytes(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    fn round_trip(old: &[u8], new: &[u8]) -> usize {
        let delta = diff(old, new);
        assert_eq!(patch(old, &delta).unwrap(), new);
        // Like classic bsdiff, patches carry long zero runs for unchanged
        // regions; the pipeline's LZSS stage removes them. The effective
        // transfer cost is therefore approximated by non-zero bytes.
        delta.iter().filter(|&&b| b != 0).count()
    }

    #[test]
    fn identical_images() {
        let data = lcg_bytes(1, 5000);
        let size = round_trip(&data, &data);
        assert!(
            size < 100,
            "identical images should yield a near-zero effective patch, got {size}"
        );
    }

    #[test]
    fn empty_to_empty() {
        round_trip(b"", b"");
    }

    #[test]
    fn max_patch_len_bounds_every_emitted_patch() {
        // `max_patch_len` sizes the pipeline's decompressor budget, so it
        // must dominate everything `diff` can emit — including the
        // adversarial-looking workloads (unrelated images, scattered
        // edits) that maximize control-entry framing.
        let cases: [(Vec<u8>, Vec<u8>); 4] = [
            (lcg_bytes(3, 4000), lcg_bytes(4, 4000)),
            (vec![0xAA; 8000], {
                let mut new = vec![0xAA; 8000];
                new[..64].copy_from_slice(&[0x5A; 64]);
                new
            }),
            (lcg_bytes(5, 2000), {
                let mut new = lcg_bytes(5, 2000);
                for i in (0..new.len()).step_by(37) {
                    new[i] ^= 0xFF;
                }
                new
            }),
            (Vec::new(), lcg_bytes(6, 1000)),
        ];
        for (old, new) in cases {
            let delta = diff(&old, &new);
            assert!(
                (delta.len() as u64) <= max_patch_len(new.len() as u64),
                "patch of {} bytes exceeds max_patch_len({}) = {}",
                delta.len(),
                new.len(),
                max_patch_len(new.len() as u64)
            );
        }
    }

    #[test]
    fn empty_old() {
        round_trip(b"", b"brand new firmware image");
    }

    #[test]
    fn empty_new() {
        round_trip(b"old firmware", b"");
    }

    #[test]
    fn small_edit_produces_small_patch() {
        let old = lcg_bytes(2, 20_000);
        let mut new = old.clone();
        // Simulate an application change: flip a small region.
        for byte in &mut new[7000..7050] {
            *byte = byte.wrapping_add(13);
        }
        let size = round_trip(&old, &new);
        assert!(
            size < 2000,
            "50-byte change should not need {size} effective patch bytes"
        );
    }

    #[test]
    fn insertion_in_the_middle() {
        let old = lcg_bytes(3, 8000);
        let mut new = old[..4000].to_vec();
        new.extend_from_slice(b"inserted-code-section");
        new.extend_from_slice(&old[4000..]);
        round_trip(&old, &new);
    }

    #[test]
    fn deletion_in_the_middle() {
        let old = lcg_bytes(4, 8000);
        let mut new = old[..3000].to_vec();
        new.extend_from_slice(&old[5000..]);
        round_trip(&old, &new);
    }

    #[test]
    fn completely_different_images() {
        let old = lcg_bytes(5, 3000);
        let new = lcg_bytes(99, 3500);
        round_trip(&old, &new);
    }

    #[test]
    fn new_shorter_than_old() {
        let old = lcg_bytes(6, 10_000);
        let new = old[2000..6000].to_vec();
        round_trip(&old, &new);
    }

    #[test]
    fn repeated_structure() {
        let old: Vec<u8> = b"function_block_A".repeat(100);
        let mut new: Vec<u8> = b"function_block_A".repeat(60);
        new.extend_from_slice(&b"function_block_B".repeat(45));
        round_trip(&old, &new);
    }

    #[test]
    fn streaming_any_chunk_size() {
        let old = lcg_bytes(7, 6000);
        let mut new = old.clone();
        new[100..130].copy_from_slice(b"...thirty.bytes.of.change.....");
        new.extend_from_slice(b"appendix");
        let delta = diff(&old, &new);
        for chunk_size in [1usize, 3, 11, 64, 500, 10_000] {
            let mut patcher = StreamPatcher::new(old.as_slice());
            let mut out = Vec::new();
            for chunk in delta.chunks(chunk_size) {
                patcher.push(chunk, &mut out).unwrap();
            }
            patcher.finish().unwrap();
            assert_eq!(out, new, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut delta = diff(b"old", b"new");
        delta[0] = b'X';
        assert_eq!(patch(b"old", &delta), Err(PatchError::BadMagic));
    }

    #[test]
    fn rejects_wrong_old_image() {
        let old = lcg_bytes(8, 1000);
        let new = lcg_bytes(9, 1000);
        let delta = diff(&old, &new);
        let wrong_old = lcg_bytes(10, 999);
        assert_eq!(
            patch(&wrong_old, &delta),
            Err(PatchError::OldLengthMismatch)
        );
    }

    #[test]
    fn rejects_truncated_patch() {
        let old = lcg_bytes(11, 2000);
        let new = lcg_bytes(12, 2000);
        let delta = diff(&old, &new);
        let mut patcher = StreamPatcher::new(old.as_slice());
        let mut out = Vec::new();
        patcher.push(&delta[..delta.len() - 5], &mut out).unwrap();
        assert_eq!(patcher.finish(), Err(PatchError::Truncated));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let old = b"abcdef".to_vec();
        let new = b"abcdxx".to_vec();
        let mut delta = diff(&old, &new);
        delta.push(0);
        assert_eq!(patch(&old, &delta), Err(PatchError::OutputOverrun));
    }

    #[test]
    fn rejects_out_of_bounds_seek() {
        // Hand-craft: control entry seeking far outside old, then a diff.
        let mut delta = Vec::new();
        delta.extend_from_slice(&MAGIC);
        delta.extend_from_slice(&4u32.to_le_bytes()); // old len
        delta.extend_from_slice(&4u32.to_le_bytes()); // new len
        delta.extend_from_slice(&0u32.to_le_bytes()); // diff 0
        delta.extend_from_slice(&0u32.to_le_bytes()); // extra 0
        delta.extend_from_slice(&1000i32.to_le_bytes()); // seek way out
        delta.extend_from_slice(&4u32.to_le_bytes()); // diff 4
        delta.extend_from_slice(&0u32.to_le_bytes());
        delta.extend_from_slice(&0i32.to_le_bytes());
        delta.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(patch(b"abcd", &delta), Err(PatchError::OldRangeOutOfBounds));
    }

    /// Pushes `pieces` in order, stops at the first error, then finishes:
    /// the verdict and every byte emitted before it.
    fn push_pieces<'a>(
        old: &[u8],
        pieces: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Result<(), PatchError>, Vec<u8>) {
        let mut patcher = StreamPatcher::new(old);
        let mut out = Vec::new();
        let result = pieces
            .into_iter()
            .try_for_each(|piece| patcher.push(piece, &mut out))
            .and_then(|()| patcher.finish());
        (result, out)
    }

    #[test]
    fn overlong_entry_fails_the_same_however_the_patch_is_cut() {
        // A 5-byte old image and one entry whose 20-byte diff block
        // overruns the 10 declared output bytes before it walks off the
        // old image: rejected at its control word, nothing emitted.
        let mut delta = Vec::new();
        delta.extend_from_slice(&MAGIC);
        delta.extend_from_slice(&5u32.to_le_bytes()); // old len
        delta.extend_from_slice(&10u32.to_le_bytes()); // new len
        delta.extend_from_slice(&20u32.to_le_bytes()); // diff 20
        delta.extend_from_slice(&0u32.to_le_bytes()); // extra 0
        delta.extend_from_slice(&0i32.to_le_bytes()); // seek 0
        delta.extend_from_slice(&[0; 20]);
        let old = b"abcde".as_slice();
        let expected = (Err(PatchError::OutputOverrun), Vec::new());
        assert_eq!(push_pieces(old, [delta.as_slice()]), expected, "one push");
        assert_eq!(
            push_pieces(old, delta.chunks(1)),
            expected,
            "one-byte pushes"
        );
    }

    mod chunking {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Honest and mutated patches give the same verdict and emit
            /// the same bytes whether pushed whole, cut at random points
            /// or in one-byte pieces.
            #[test]
            fn verdict_and_output_do_not_depend_on_the_cut(
                old in proptest::collection::vec(any::<u8>(), 1..600),
                edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
                insert in proptest::collection::vec(any::<u8>(), 0..64),
                insert_at in any::<u16>(),
                mutation in 0u8..4,
                at in any::<u16>(),
                value in any::<u32>(),
                cuts in proptest::collection::vec(any::<u16>(), 0..12),
            ) {
                let mut new = old.clone();
                for (at, byte) in edits {
                    let at = usize::from(at) % new.len();
                    new[at] = byte;
                }
                // An insertion makes extra blocks, several entries and a
                // length change.
                let insert_at = usize::from(insert_at) % (new.len() + 1);
                new.splice(insert_at..insert_at, insert);
                let mut delta = diff(&old, &new);
                let at = usize::from(at);
                match mutation {
                    0 => {}
                    1 => {
                        let at = at % delta.len();
                        delta[at] ^= 1 << (value % 8);
                    }
                    // One field of one of the first two control words.
                    2 => {
                        let field = HEADER_LEN + (at % 6 / 3) * CONTROL_LEN + (at % 3) * 4;
                        if let Some(word) = delta.get_mut(field..field + 4) {
                            word.copy_from_slice(&value.to_le_bytes());
                        }
                    }
                    _ => delta.truncate(at % (delta.len() + 1)),
                }

                let whole = push_pieces(&old, [delta.as_slice()]);
                let mut cuts: Vec<usize> =
                    cuts.iter().map(|&c| usize::from(c) % (delta.len() + 1)).collect();
                cuts.sort_unstable();
                cuts.push(delta.len());
                let pieces = cuts.iter().scan(0, |start, &end| {
                    let piece = &delta[*start..end];
                    *start = end;
                    Some(piece)
                });
                prop_assert_eq!(&push_pieces(&old, pieces), &whole, "random cuts");
                prop_assert_eq!(&push_pieces(&old, delta.chunks(1)), &whole, "one-byte pieces");
            }
        }
    }

    #[test]
    fn patcher_reports_progress() {
        let old = lcg_bytes(13, 4000);
        let new = lcg_bytes(14, 4000);
        let delta = diff(&old, &new);
        let mut patcher = StreamPatcher::new(old.as_slice());
        let mut out = Vec::new();
        patcher.push(&delta[..delta.len() / 2], &mut out).unwrap();
        assert_eq!(patcher.new_len(), new.len() as u64);
        assert!(!patcher.is_done());
        patcher.push(&delta[delta.len() / 2..], &mut out).unwrap();
        assert!(patcher.is_done());
        assert_eq!(patcher.produced(), new.len() as u64);
    }

    #[test]
    fn context_diff_is_byte_identical_to_diff() {
        let old = lcg_bytes(21, 30_000);
        let ctx = DeltaContext::new(&old);
        for seed in [22u32, 23, 24, 25] {
            let mut new = old.clone();
            let edit = lcg_bytes(seed, 200);
            let at = (seed as usize * 997) % (new.len() - edit.len());
            new[at..at + edit.len()].copy_from_slice(&edit);
            assert_eq!(ctx.diff(&old, &new), diff(&old, &new), "seed {seed}");
        }
    }

    #[test]
    fn context_suffix_array_matches_the_naive_sort() {
        // The patch is a function of the suffix array, so a context whose
        // array equals the oracle's emits the oracle's patch.
        let old = lcg_bytes(26, 12_000);
        let mut new = old.clone();
        new[4000..4100].copy_from_slice(&lcg_bytes(27, 100));
        let context = DeltaContext::new(&old);
        assert_eq!(
            context.suffix_array().offsets(),
            suffix::tests::naive_sa(&old)
        );
        let patch_bytes = context.diff(&old, &new);
        assert_eq!(patch(&old, &patch_bytes).unwrap(), new);
    }

    #[test]
    #[should_panic(expected = "different old image")]
    fn context_rejects_mismatched_old_image() {
        let old = lcg_bytes(28, 1000);
        let ctx = DeltaContext::new(&old);
        let wrong = lcg_bytes(29, 1000);
        let _ = ctx.diff(&wrong, &old);
    }

    #[test]
    fn os_version_bump_patch_is_fraction_of_image() {
        // Model an OS version change: long shared runs with scattered edits.
        let old = lcg_bytes(15, 50_000);
        let mut new = old.clone();
        for start in (0..new.len()).step_by(5000) {
            let end = (start + 120).min(new.len());
            for byte in &mut new[start..end] {
                *byte = byte.wrapping_add(7);
            }
        }
        let delta = diff(&old, &new);
        let effective = delta.iter().filter(|&&b| b != 0).count();
        assert!(
            effective < old.len() / 5,
            "scattered edits: effective patch {} vs image {}",
            effective,
            old.len()
        );
        assert_eq!(patch(&old, &delta).unwrap(), new);
    }

    #[test]
    fn raw_patch_buffer_is_sized_once() {
        // The diff and extra blocks carry exactly `new.len()` bytes, so
        // the output is reserved at about its size up front instead of
        // doubling its way there. Eight bytes inserted every 600 shift the
        // rest of the image, so each run needs its own control entry.
        let old = lcg_bytes(16, 128 * 1024);
        let new: Vec<u8> = old
            .chunks(600)
            .enumerate()
            .flat_map(|(i, run)| [run, &lcg_bytes(i as u32, 8)].concat())
            .collect();
        let delta = diff(&old, &new);
        let framing = delta.len() - HEADER_LEN - new.len();
        assert_eq!(
            framing % CONTROL_LEN,
            0,
            "blocks carry exactly new.len() bytes"
        );
        assert!(
            framing / CONTROL_LEN > 100,
            "{} entries",
            framing / CONTROL_LEN
        );
        assert!(
            delta.capacity() - delta.len() < delta.len() / 16,
            "capacity {} for a {}-byte patch",
            delta.capacity(),
            delta.len()
        );
    }
}
