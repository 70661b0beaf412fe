//! The framed patch container: independently decodable per-window patches.
//!
//! A [`crate::PatchFormat::Raw`] patch is one monolithic bsdiff stream.
//! The framed container instead splits the *new* image into contiguous
//! windows and carries one complete Raw patch per window, each diffed
//! against the full old image and optionally LZSS-compressed on its own.
//! Windows are independent, which buys two things:
//!
//! * **generation parallelism** — the server diffs windows concurrently
//!   against one shared suffix array ([`crate::framed_diff`]);
//! * **bounded application** — the device applies one window at a time
//!   through an ordinary [`StreamPatcher`], each under its own
//!   slot-derived decode budget, so a lying window header is rejected
//!   before any oversized allocation.
//!
//! # Wire format
//!
//! All integers little-endian:
//!
//! ```text
//! magic "BSF2" ‖ old_len u32 ‖ new_len u32 ‖ window_count u32
//! window_count × { out_offset u32 ‖ out_len u32 ‖ comp u8 ‖ body_len u32 }
//! window_count bodies, concatenated in directory order
//! ```
//!
//! `comp` is `0` (raw bsdiff bytes) or `1` (LZSS stream holding them).
//! Directory entries must tile `[0, new_len)` exactly — in order, no
//! gaps, no overlap, no empty windows — and every `body_len` must fit
//! under [`max_window_body_len`], so neither the directory nor any body
//! can demand memory beyond what the declared (budget-checked) output
//! length already justifies.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::sync::Arc;
use alloc::vec::Vec;

use upkit_compress::{ByteSink, Decompressor, FixedBuf, LzssError};

use crate::{max_patch_len, OldImage, PatchError, StreamPatcher};

/// Magic bytes identifying a framed patch container.
pub const FRAMED_MAGIC: [u8; 4] = *b"BSF2";

/// Size in bytes of the framed container header.
pub const FRAMED_HEADER_LEN: usize = 4 + 4 + 4 + 4;

/// Size in bytes of one window directory entry.
pub const WINDOW_HEADER_LEN: usize = 4 + 4 + 1 + 4;

/// Window body stored as raw bsdiff bytes.
pub const COMP_NONE: u8 = 0;

/// Window body stored as an LZSS stream of bsdiff bytes.
pub const COMP_LZSS: u8 = 1;

/// Upper bound on the declared body length of a window producing
/// `out_len` bytes.
///
/// The body is a Raw patch bounded by [`max_patch_len`], possibly wrapped
/// in LZSS whose worst case adds the stream header plus one flag byte per
/// eight payload bytes. Any directory entry declaring more is a length
/// bomb and is rejected before its body is buffered.
#[must_use]
pub fn max_window_body_len(out_len: u64) -> u64 {
    let raw = max_patch_len(out_len);
    raw + raw.div_ceil(8) + upkit_compress::HEADER_LEN as u64
}

/// Errors produced while applying a framed patch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FramedError {
    /// The container does not begin with the framed magic bytes.
    BadMagic,
    /// The container targets an old image of a different length.
    OldLengthMismatch,
    /// The header declared an output longer than the decode budget.
    BudgetExceeded,
    /// The header declared more windows than the output length admits.
    WindowCountBomb,
    /// Directory offsets overlap, leave a gap, or declare an empty window.
    WindowLayout,
    /// A directory entry declared a body longer than any window of its
    /// size could need.
    BodyLengthBomb,
    /// A directory entry named an unknown compression algorithm.
    BadCompression,
    /// A window body failed to apply as a Raw patch.
    Window(PatchError),
    /// A compressed window body failed to decompress.
    Lzss(LzssError),
    /// The container ended before every window was applied.
    Truncated,
    /// Bytes followed the final window body.
    TrailingBytes,
}

impl FramedError {
    /// Whether this rejection defended a length/allocation bound (and
    /// should be charged to the `decode_overruns` counter) rather than a
    /// mere malformation.
    #[must_use]
    pub fn is_budget_rejection(&self) -> bool {
        matches!(
            self,
            Self::BudgetExceeded
                | Self::WindowCountBomb
                | Self::WindowLayout
                | Self::BodyLengthBomb
                | Self::Window(PatchError::BudgetExceeded)
                | Self::Lzss(LzssError::BudgetExceeded)
        )
    }
}

impl core::fmt::Display for FramedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic => f.write_str("missing framed-container magic bytes"),
            Self::OldLengthMismatch => {
                f.write_str("framed patch targets an old image of different size")
            }
            Self::BudgetExceeded => {
                f.write_str("framed patch declared output exceeds decode budget")
            }
            Self::WindowCountBomb => {
                f.write_str("framed patch declared more windows than output bytes")
            }
            Self::WindowLayout => f.write_str("framed window directory does not tile the output"),
            Self::BodyLengthBomb => f.write_str("framed window declared an impossible body length"),
            Self::BadCompression => {
                f.write_str("framed window names an unknown compression algorithm")
            }
            Self::Window(e) => write!(f, "framed window body failed to apply: {e}"),
            Self::Lzss(e) => write!(f, "framed window body failed to decompress: {e}"),
            Self::Truncated => f.write_str("framed patch stream truncated"),
            Self::TrailingBytes => f.write_str("bytes after the final framed window"),
        }
    }
}

impl core::error::Error for FramedError {}

impl From<PatchError> for FramedError {
    fn from(e: PatchError) -> Self {
        Self::Window(e)
    }
}

impl From<LzssError> for FramedError {
    fn from(e: LzssError) -> Self {
        Self::Lzss(e)
    }
}

/// One parsed window directory entry.
#[derive(Clone, Copy, Debug)]
struct WindowHeader {
    out_len: u32,
    comp: u8,
    body_len: u32,
}

// The Body variant embeds the decompressor's window buffer inline
// (~8 KiB) precisely so that starting the next window never touches the
// heap; boxing it would re-introduce an allocation per compressed window
// in the steady-state body loop.
#[allow(clippy::large_enum_variant)]
enum FramedState<O> {
    Header {
        filled: usize,
    },
    Directory {
        filled: usize,
        next_offset: u64,
    },
    Body {
        index: usize,
        remaining: u32,
        decomp: Option<Decompressor>,
        patcher: StreamPatcher<Arc<O>>,
    },
    Done,
}

/// Incremental framed-patch application: accepts container bytes in
/// arbitrary chunks and appends reconstructed output to a caller buffer.
///
/// Each window is applied through its own [`StreamPatcher`] (and, for
/// compressed bodies, its own [`Decompressor`]) whose budgets derive from
/// the window's directory entry, which in turn was validated against the
/// caller's overall `budget` — on a device, the target flash slot size.
/// Memory never scales past the bytes actually received plus the bounded
/// per-window scratch.
pub struct FramedPatcher<O> {
    old: Arc<O>,
    budget: u64,
    state: FramedState<O>,
    scratch: [u8; FRAMED_HEADER_LEN],
    new_len: u64,
    window_count: u32,
    windows: Vec<WindowHeader>,
    produced: u64,
}

impl<O: OldImage> FramedPatcher<O> {
    /// Creates a patcher that reads the previous firmware from `old`.
    #[must_use]
    pub fn new(old: O) -> Self {
        Self::with_budget(old, u64::MAX)
    }

    /// Creates a patcher that rejects any container whose header declares
    /// an output longer than `budget` bytes (see
    /// [`StreamPatcher::with_budget`]).
    #[must_use]
    pub fn with_budget(old: O, budget: u64) -> Self {
        Self {
            old: Arc::new(old),
            budget,
            state: FramedState::Header { filled: 0 },
            scratch: [0; FRAMED_HEADER_LEN],
            new_len: 0,
            window_count: 0,
            windows: Vec::new(),
            produced: 0,
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

    /// Declared window count (0 until the header is parsed).
    #[must_use]
    pub fn window_count(&self) -> u32 {
        self.window_count
    }

    /// Returns `true` once the full new image has been produced.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, FramedState::Done)
    }

    /// Feeds container bytes, appending reconstructed output to `out`.
    ///
    /// Compressed window bodies are decoded through the decompressor's
    /// 1 KiB stack buffer ([`Decompressor::drain`]), so the push loop
    /// itself performs no heap allocation beyond the window directory (13
    /// bytes per window, proportional to bytes actually received).
    pub fn push<S: ByteSink + ?Sized>(
        &mut self,
        input: &[u8],
        out: &mut S,
    ) -> Result<(), FramedError> {
        let mut input = input;
        while !input.is_empty() {
            match &mut self.state {
                FramedState::Header { filled } => {
                    let take = (FRAMED_HEADER_LEN - *filled).min(input.len());
                    self.scratch[*filled..*filled + take].copy_from_slice(&input[..take]);
                    input = &input[take..];
                    *filled += take;
                    if *filled == FRAMED_HEADER_LEN {
                        self.parse_header()?;
                    }
                }
                FramedState::Directory {
                    filled,
                    next_offset,
                } => {
                    let take = (WINDOW_HEADER_LEN - *filled).min(input.len());
                    self.scratch[*filled..*filled + take].copy_from_slice(&input[..take]);
                    input = &input[take..];
                    *filled += take;
                    if *filled == WINDOW_HEADER_LEN {
                        let next_offset = *next_offset;
                        self.parse_directory_entry(next_offset)?;
                    }
                }
                FramedState::Body {
                    index,
                    remaining,
                    decomp,
                    patcher,
                } => {
                    let take = (*remaining as usize).min(input.len());
                    match decomp {
                        Some(d) => d.drain(&input[..take], |plain| {
                            patcher.push(plain, out).map_err(FramedError::from)
                        })?,
                        None => patcher.push(&input[..take], out)?,
                    }
                    input = &input[take..];
                    *remaining -= take as u32;
                    if *remaining == 0 {
                        let index = *index;
                        let declared = self.windows[index].out_len;
                        close_window(decomp.as_ref(), patcher, declared)?;
                        self.produced += u64::from(declared);
                        self.begin_window(index + 1)?;
                    }
                }
                FramedState::Done => return Err(FramedError::TrailingBytes),
            }
        }
        Ok(())
    }

    /// Declares end of container input; fails if output is incomplete.
    pub fn finish(&self) -> Result<(), FramedError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(FramedError::Truncated)
        }
    }

    fn parse_header(&mut self) -> Result<(), FramedError> {
        let [m0, m1, m2, m3, o0, o1, o2, o3, n0, n1, n2, n3, c0, c1, c2, c3] = self.scratch;
        if [m0, m1, m2, m3] != FRAMED_MAGIC {
            return Err(FramedError::BadMagic);
        }
        let old_len = u32::from_le_bytes([o0, o1, o2, o3]);
        if u64::from(old_len) != self.old.len() {
            return Err(FramedError::OldLengthMismatch);
        }
        self.new_len = u64::from(u32::from_le_bytes([n0, n1, n2, n3]));
        if self.new_len > self.budget {
            return Err(FramedError::BudgetExceeded);
        }
        self.window_count = u32::from_le_bytes([c0, c1, c2, c3]);
        // Every window must produce at least one byte, so a count beyond
        // `new_len` can only be a directory-allocation bomb. The entries
        // themselves are pushed as their 13 wire bytes arrive (never
        // pre-allocated from this declared count), so directory memory is
        // proportional to bytes actually received.
        if u64::from(self.window_count) > self.new_len {
            return Err(FramedError::WindowCountBomb);
        }
        if self.new_len == 0 {
            self.state = FramedState::Done;
        } else if self.window_count == 0 {
            // Non-empty output with no windows can never complete.
            return Err(FramedError::WindowLayout);
        } else {
            self.state = FramedState::Directory {
                filled: 0,
                next_offset: 0,
            };
        }
        Ok(())
    }

    fn parse_directory_entry(&mut self, expected_offset: u64) -> Result<(), FramedError> {
        let [f0, f1, f2, f3, l0, l1, l2, l3, comp, b0, b1, b2, b3, ..] = self.scratch;
        let out_offset = u32::from_le_bytes([f0, f1, f2, f3]);
        let out_len = u32::from_le_bytes([l0, l1, l2, l3]);
        let body_len = u32::from_le_bytes([b0, b1, b2, b3]);

        // Windows tile [0, new_len) in order: each entry starts exactly
        // where the previous one ended and is non-empty. Anything else —
        // overlap, gap, out-of-range — is an attempt to make the windows
        // produce more (or other) bytes than the budget-checked new_len.
        if u64::from(out_offset) != expected_offset
            || out_len == 0
            || expected_offset + u64::from(out_len) > self.new_len
        {
            return Err(FramedError::WindowLayout);
        }
        if comp != COMP_NONE && comp != COMP_LZSS {
            return Err(FramedError::BadCompression);
        }
        if u64::from(body_len) > max_window_body_len(u64::from(out_len)) {
            return Err(FramedError::BodyLengthBomb);
        }

        self.windows.push(WindowHeader {
            out_len,
            comp,
            body_len,
        });
        let next_offset = expected_offset + u64::from(out_len);
        if self.windows.len() < self.window_count as usize {
            self.state = FramedState::Directory {
                filled: 0,
                next_offset,
            };
        } else {
            if next_offset != self.new_len {
                return Err(FramedError::WindowLayout);
            }
            self.begin_window(0)?;
        }
        Ok(())
    }

    /// Starts window `index`, or ends the container after the last one.
    fn begin_window(&mut self, index: usize) -> Result<(), FramedError> {
        let Some(&header) = self.windows.get(index) else {
            self.state = FramedState::Done;
            return Ok(());
        };
        let compressed = header.comp == COMP_LZSS;
        if header.body_len == 0 {
            // A zero-byte body cannot even carry the inner patch header.
            return Err(if compressed {
                LzssError::Truncated.into()
            } else {
                PatchError::Truncated.into()
            });
        }
        self.state = FramedState::Body {
            index,
            remaining: header.body_len,
            decomp: compressed
                .then(|| Decompressor::with_budget(max_patch_len(u64::from(header.out_len)))),
            patcher: StreamPatcher::with_budget(Arc::clone(&self.old), u64::from(header.out_len)),
        };
        Ok(())
    }
}

/// Checks that a window whose body has fully arrived decoded completely
/// and produced exactly the `declared` length of its directory entry.
fn close_window<O: OldImage>(
    decomp: Option<&Decompressor>,
    patcher: &StreamPatcher<O>,
    declared: u32,
) -> Result<(), FramedError> {
    if let Some(d) = decomp {
        d.finish()?;
    }
    patcher.finish()?;
    if patcher.produced() != u64::from(declared) {
        // The inner patch header under-declared relative to the
        // directory: the window's output is short.
        return Err(FramedError::Window(PatchError::Truncated));
    }
    Ok(())
}

impl<O> core::fmt::Debug for FramedPatcher<O> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FramedPatcher")
            .field("new_len", &self.new_len)
            .field("window_count", &self.window_count)
            .field("produced", &self.produced)
            .finish_non_exhaustive()
    }
}

/// Applies a framed container to `old` in one call.
pub fn patch_framed(old: &[u8], container: &[u8]) -> Result<Vec<u8>, FramedError> {
    let mut patcher = FramedPatcher::new(old);
    let mut out = Vec::new();
    patcher.push(container, &mut out)?;
    patcher.finish()?;
    Ok(out)
}

/// Applies a framed container to `old` into a caller-provided buffer;
/// returns the number of bytes written.
///
/// The buffer length doubles as the decode budget, as in
/// [`crate::patch_into`]: a container declaring more output than `out`
/// can hold is rejected with [`FramedError::BudgetExceeded`] at the
/// header. Only the window directory is heap-allocated (13 bytes per
/// window); the per-window patch loop is allocation-free.
///
/// # Errors
///
/// Same as [`patch_framed`], plus the budget rejection described above.
pub fn patch_framed_into(
    old: &[u8],
    container: &[u8],
    out: &mut [u8],
) -> Result<usize, FramedError> {
    let budget = out.len() as u64;
    let mut buf = FixedBuf::new(out);
    let mut patcher = FramedPatcher::with_budget(old, budget);
    patcher.push(container, &mut buf)?;
    patcher.finish()?;
    debug_assert!(!buf.overflowed(), "budget bounds every write");
    Ok(buf.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diff, framed_diff, patch, FramedDiffOptions};

    fn lcg_bytes(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    fn sample_pair() -> (Vec<u8>, Vec<u8>) {
        let old = lcg_bytes(41, 20_000);
        let mut new = old.clone();
        new[3_000..3_200].copy_from_slice(&lcg_bytes(42, 200));
        new.extend_from_slice(b"appended-section");
        (old, new)
    }

    fn opts(window_len: usize) -> FramedDiffOptions {
        FramedDiffOptions::default().with_window_len(window_len)
    }

    #[test]
    fn round_trip_multi_window() {
        let (old, new) = sample_pair();
        for window_len in [1024usize, 4096, 64 * 1024, 1 << 30] {
            let container = framed_diff(&old, &new, &opts(window_len));
            assert_eq!(
                patch_framed(&old, &container).unwrap(),
                new,
                "window {window_len}"
            );
        }
    }

    #[test]
    fn framed_output_equals_raw_patch_output() {
        let (old, new) = sample_pair();
        let raw_out = patch(&old, &diff(&old, &new)).unwrap();
        let framed_out = patch_framed(&old, &framed_diff(&old, &new, &opts(2048))).unwrap();
        assert_eq!(raw_out, framed_out);
        assert_eq!(framed_out, new);
    }

    #[test]
    fn container_is_byte_identical_across_thread_counts() {
        let (old, new) = sample_pair();
        let reference = framed_diff(&old, &new, &opts(2048).with_threads(1));
        for threads in [2usize, 4, 8] {
            assert_eq!(
                framed_diff(&old, &new, &opts(2048).with_threads(threads)),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn streaming_any_chunk_size() {
        let (old, new) = sample_pair();
        let container = framed_diff(&old, &new, &opts(3000));
        for chunk_size in [1usize, 7, 13, 64, 500, 1_000_000] {
            let mut patcher = FramedPatcher::new(old.as_slice());
            let mut out = Vec::new();
            for chunk in container.chunks(chunk_size) {
                patcher.push(chunk, &mut out).unwrap();
            }
            patcher.finish().unwrap();
            assert_eq!(out, new, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn empty_new_image() {
        let old = lcg_bytes(43, 500);
        let container = framed_diff(&old, &[], &opts(1024));
        assert_eq!(patch_framed(&old, &container).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn empty_old_image() {
        let new = lcg_bytes(44, 3000);
        let container = framed_diff(&[], &new, &opts(512));
        assert_eq!(patch_framed(&[], &container).unwrap(), new);
    }

    #[test]
    fn uncompressed_windows_round_trip() {
        let (old, new) = sample_pair();
        let mut options = opts(4096);
        options.lzss = None;
        let container = framed_diff(&old, &new, &options);
        assert_eq!(patch_framed(&old, &container).unwrap(), new);
    }

    #[test]
    fn encoder_respects_body_length_bound() {
        // Hostile-for-diff inputs: unrelated images maximize body size.
        let old = lcg_bytes(45, 4000);
        let new = lcg_bytes(46, 5000);
        let container = framed_diff(&old, &new, &opts(700));
        let count = u32::from_le_bytes(container[12..16].try_into().unwrap()) as usize;
        let mut cursor = FRAMED_HEADER_LEN;
        for _ in 0..count {
            let entry = &container[cursor..cursor + WINDOW_HEADER_LEN];
            let out_len = u32::from_le_bytes(entry[4..8].try_into().unwrap());
            let body_len = u32::from_le_bytes(entry[9..13].try_into().unwrap());
            assert!(u64::from(body_len) <= max_window_body_len(u64::from(out_len)));
            cursor += WINDOW_HEADER_LEN;
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let (old, new) = sample_pair();
        let mut container = framed_diff(&old, &new, &opts(4096));
        container[0] = b'X';
        assert_eq!(patch_framed(&old, &container), Err(FramedError::BadMagic));
    }

    #[test]
    fn rejects_wrong_old_image() {
        let (old, new) = sample_pair();
        let container = framed_diff(&old, &new, &opts(4096));
        let wrong = lcg_bytes(47, old.len() - 1);
        assert_eq!(
            patch_framed(&wrong, &container),
            Err(FramedError::OldLengthMismatch)
        );
    }

    #[test]
    fn budget_rejects_oversized_declaration() {
        let (old, new) = sample_pair();
        let container = framed_diff(&old, &new, &opts(4096));
        let mut patcher = FramedPatcher::with_budget(old.as_slice(), new.len() as u64 - 1);
        let mut out = Vec::new();
        assert_eq!(
            patcher.push(&container, &mut out),
            Err(FramedError::BudgetExceeded)
        );
        assert!(out.is_empty(), "rejected before producing output");
    }

    /// Header with arbitrary fields followed by nothing: bombs must be
    /// rejected from the header alone, before any allocation.
    fn header(old_len: u32, new_len: u32, window_count: u32) -> Vec<u8> {
        let mut h = Vec::new();
        h.extend_from_slice(&FRAMED_MAGIC);
        h.extend_from_slice(&old_len.to_le_bytes());
        h.extend_from_slice(&new_len.to_le_bytes());
        h.extend_from_slice(&window_count.to_le_bytes());
        h
    }

    fn entry(out_offset: u32, out_len: u32, comp: u8, body_len: u32) -> Vec<u8> {
        let mut e = Vec::new();
        e.extend_from_slice(&out_offset.to_le_bytes());
        e.extend_from_slice(&out_len.to_le_bytes());
        e.push(comp);
        e.extend_from_slice(&body_len.to_le_bytes());
        e
    }

    #[test]
    fn rejects_window_count_bomb_without_allocating() {
        let old = lcg_bytes(48, 64);
        let container = header(64, 32, u32::MAX);
        let mut patcher = FramedPatcher::with_budget(old.as_slice(), 1 << 20);
        let mut out = Vec::new();
        let err = patcher.push(&container, &mut out).unwrap_err();
        assert_eq!(err, FramedError::WindowCountBomb);
        assert!(err.is_budget_rejection());
        assert_eq!(patcher.windows.capacity(), 0, "no directory allocation");
    }

    #[test]
    fn rejects_zero_windows_for_nonempty_output() {
        let old = lcg_bytes(49, 64);
        assert_eq!(
            patch_framed(&old, &header(64, 32, 0)),
            Err(FramedError::WindowLayout)
        );
    }

    #[test]
    fn rejects_overlapping_window_offsets() {
        let old = lcg_bytes(50, 64);
        let mut container = header(64, 100, 2);
        container.extend_from_slice(&entry(0, 80, COMP_NONE, 16));
        container.extend_from_slice(&entry(40, 20, COMP_NONE, 16)); // overlaps first
        let err = patch_framed(&old, &container).unwrap_err();
        assert_eq!(err, FramedError::WindowLayout);
        assert!(err.is_budget_rejection());
    }

    #[test]
    fn rejects_gapped_window_offsets() {
        let old = lcg_bytes(51, 64);
        let mut container = header(64, 100, 2);
        container.extend_from_slice(&entry(0, 40, COMP_NONE, 16));
        container.extend_from_slice(&entry(60, 40, COMP_NONE, 16)); // 20-byte gap
        assert_eq!(
            patch_framed(&old, &container).unwrap_err(),
            FramedError::WindowLayout
        );
    }

    #[test]
    fn rejects_windows_that_do_not_reach_new_len() {
        let old = lcg_bytes(52, 64);
        let mut container = header(64, 100, 1);
        container.extend_from_slice(&entry(0, 40, COMP_NONE, 16)); // 60 bytes missing
        assert_eq!(
            patch_framed(&old, &container).unwrap_err(),
            FramedError::WindowLayout
        );
    }

    #[test]
    fn rejects_window_past_declared_output() {
        let old = lcg_bytes(53, 64);
        let mut container = header(64, 100, 1);
        container.extend_from_slice(&entry(0, 200, COMP_NONE, 16));
        assert_eq!(
            patch_framed(&old, &container).unwrap_err(),
            FramedError::WindowLayout
        );
    }

    #[test]
    fn rejects_per_window_declared_length_bomb() {
        let old = lcg_bytes(54, 64);
        let mut container = header(64, 100, 1);
        // 100-byte window cannot need a u32::MAX-byte body.
        container.extend_from_slice(&entry(0, 100, COMP_LZSS, u32::MAX));
        let err = patch_framed(&old, &container).unwrap_err();
        assert_eq!(err, FramedError::BodyLengthBomb);
        assert!(err.is_budget_rejection());
    }

    #[test]
    fn rejects_an_empty_window_body_as_truncated() {
        let old = lcg_bytes(60, 64);
        for (comp, expected) in [
            (COMP_NONE, FramedError::Window(PatchError::Truncated)),
            (COMP_LZSS, FramedError::Lzss(LzssError::Truncated)),
        ] {
            let mut container = header(64, 100, 1);
            container.extend_from_slice(&entry(0, 100, comp, 0));
            assert_eq!(patch_framed(&old, &container).unwrap_err(), expected);
        }
    }

    #[test]
    fn rejects_unknown_compression() {
        let old = lcg_bytes(55, 64);
        let mut container = header(64, 100, 1);
        container.extend_from_slice(&entry(0, 100, 7, 16));
        assert_eq!(
            patch_framed(&old, &container).unwrap_err(),
            FramedError::BadCompression
        );
    }

    #[test]
    fn rejects_truncated_container() {
        let (old, new) = sample_pair();
        let container = framed_diff(&old, &new, &opts(4096));
        let mut patcher = FramedPatcher::new(old.as_slice());
        let mut out = Vec::new();
        patcher
            .push(&container[..container.len() - 3], &mut out)
            .unwrap();
        assert_eq!(patcher.finish(), Err(FramedError::Truncated));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (old, new) = sample_pair();
        let mut container = framed_diff(&old, &new, &opts(4096));
        container.push(0);
        assert_eq!(
            patch_framed(&old, &container),
            Err(FramedError::TrailingBytes)
        );
    }

    #[test]
    fn rejects_window_body_lying_about_inner_length() {
        // Directory says 100 bytes, inner Raw patch declares (and makes) 40.
        let old = lcg_bytes(56, 64);
        let body = diff(&old, &lcg_bytes(57, 40));
        let mut container = header(64, 100, 1);
        container.extend_from_slice(&entry(0, 100, COMP_NONE, body.len() as u32));
        container.extend_from_slice(&body);
        assert_eq!(
            patch_framed(&old, &container).unwrap_err(),
            FramedError::Window(PatchError::Truncated)
        );
    }

    #[test]
    fn rejects_window_body_exceeding_directory_length() {
        // Directory says 40 bytes, inner Raw patch declares 100: the
        // per-window budget must stop it at the inner header.
        let old = lcg_bytes(58, 64);
        let body = diff(&old, &lcg_bytes(59, 100));
        let mut container = header(64, 100, 2);
        container.extend_from_slice(&entry(0, 40, COMP_NONE, body.len() as u32));
        container.extend_from_slice(&entry(40, 60, COMP_NONE, 16));
        container.extend_from_slice(&body);
        let err = patch_framed(&old, &container).unwrap_err();
        assert_eq!(err, FramedError::Window(PatchError::BudgetExceeded));
        assert!(err.is_budget_rejection());
    }

    #[test]
    fn reports_progress() {
        let (old, new) = sample_pair();
        let container = framed_diff(&old, &new, &opts(4096));
        let mut patcher = FramedPatcher::new(old.as_slice());
        let mut out = Vec::new();
        patcher
            .push(&container[..container.len() / 2], &mut out)
            .unwrap();
        assert_eq!(patcher.new_len(), new.len() as u64);
        assert!(patcher.window_count() >= 4);
        assert!(!patcher.is_done());
        patcher
            .push(&container[container.len() / 2..], &mut out)
            .unwrap();
        assert!(patcher.is_done());
        assert_eq!(patcher.produced(), new.len() as u64);
    }
}
