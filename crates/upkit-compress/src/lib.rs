//! LZSS compression for UpKit differential updates.
//!
//! UpKit's pipeline decompresses incoming patches with LZSS, following
//! Stolikj et al.'s finding that `bsdiff` + `lzss` offer the best trade-off
//! between patch size and the RAM/flash cost of the on-device routines. The
//! update *server* compresses (one-shot [`compress`]); the *device*
//! decompresses incrementally with bounded memory ([`Decompressor`]), since
//! the pipeline receives the patch in radio-MTU-sized chunks and must write
//! flash on the fly.
//!
//! The decoder's one primitive is [`Decompressor::decode`]: it takes any
//! run of input and any output slice, decodes until either is used up, and
//! carries an unfinished match copy over to the next call. So a caller's
//! scratch buffer bounds the output of every step whatever the input
//! holds; [`Decompressor::drain`] is the loop that empties a decoder
//! through one stack buffer.
//!
//! # Format
//!
//! A small header (`magic ‖ params ‖ original length`) followed by groups of
//! eight items, each group preceded by a flag byte (LSB first; `1` = literal
//! byte, `0` = 16-bit match token of `window_bits` offset and
//! `16 - window_bits` length bits, lengths starting at
//! [`Params::min_match`]).
//!
//! # Examples
//!
//! ```
//! use upkit_compress::{compress, decompress, Params};
//!
//! let data = b"abcabcabcabcabc-abcabcabcabcabc";
//! let packed = compress(data, Params::default());
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

#![cfg_attr(not(feature = "std"), no_std)]
#![warn(missing_docs)]
#![warn(
    clippy::std_instead_of_core,
    clippy::std_instead_of_alloc,
    clippy::alloc_instead_of_core
)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

extern crate alloc;
#[cfg(test)]
extern crate std;

use alloc::vec;
use alloc::vec::Vec;

pub mod sink;

pub use sink::{ByteSink, FixedBuf};

/// Magic bytes identifying an LZSS stream produced by this crate.
pub const MAGIC: [u8; 4] = *b"LZS1";

/// Size in bytes of the stream header.
pub const HEADER_LEN: usize = 4 + 1 + 4;

/// Largest window any [`Params`] can select (`window_bits == 13`).
///
/// The [`Decompressor`] keeps its sliding window inline at this size, so
/// constructing a decoder never allocates. Every window size divides it,
/// so one ring indexed by `position & (MAX_WINDOW - 1)` serves them all.
pub const MAX_WINDOW: usize = 1 << 13;

/// Ring index mask of the decoder's window.
const RING_MASK: usize = MAX_WINDOW - 1;

/// Size of the stack buffer [`Decompressor::drain`] decodes into.
const DRAIN_LEN: usize = 1024;

/// The flag register of a group with every flag consumed: only the
/// sentinel bit above the flags is left.
const FLAGS_EMPTY: u16 = 1;

/// LZSS window/length configuration.
///
/// `window_bits + length_bits == 16` so a match always packs into two bytes,
/// the encoding used by the small embedded implementations the paper builds
/// on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    window_bits: u8,
}

impl Default for Params {
    /// 4 KiB window, 4 length bits: the configuration whose decoder fits the
    /// ~2 kB RAM budget Table II attributes to UpKit's pipeline module.
    fn default() -> Self {
        Self { window_bits: 12 }
    }
}

impl Params {
    /// Creates a configuration with a `2^window_bits`-byte window.
    ///
    /// # Errors
    ///
    /// Returns [`LzssError::BadParams`] unless `8 <= window_bits <= 13`
    /// (below 8 the window is useless; above 13 fewer than 3 length bits
    /// remain).
    pub fn new(window_bits: u8) -> Result<Self, LzssError> {
        if (8..=13).contains(&window_bits) {
            Ok(Self { window_bits })
        } else {
            Err(LzssError::BadParams)
        }
    }

    /// Window size in bytes.
    #[must_use]
    pub fn window_size(&self) -> usize {
        1 << self.window_bits
    }

    /// Number of bits used for the match offset.
    #[must_use]
    pub fn window_bits(&self) -> u8 {
        self.window_bits
    }

    /// Number of bits used for the match length.
    #[must_use]
    pub fn length_bits(&self) -> u8 {
        16 - self.window_bits
    }

    /// Shortest encodable match (shorter runs are cheaper as literals).
    #[must_use]
    pub fn min_match(&self) -> usize {
        3
    }

    /// Longest encodable match.
    #[must_use]
    pub fn max_match(&self) -> usize {
        self.min_match() + (1 << self.length_bits()) - 1
    }
}

/// Errors produced while decoding an LZSS stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LzssError {
    /// The stream does not begin with the expected magic bytes.
    BadMagic,
    /// The header's parameter byte is out of range.
    BadParams,
    /// A match token referenced data before the start of the output.
    InvalidBackreference,
    /// The stream ended before the declared original length was produced.
    Truncated,
    /// The stream produced more data than the declared original length.
    TrailingData,
    /// The header declared an original length beyond the decode budget.
    BudgetExceeded,
}

impl core::fmt::Display for LzssError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadMagic => f.write_str("missing LZSS magic bytes"),
            Self::BadParams => f.write_str("LZSS parameter byte out of range"),
            Self::InvalidBackreference => {
                f.write_str("LZSS match references data before stream start")
            }
            Self::Truncated => f.write_str("LZSS stream truncated"),
            Self::TrailingData => f.write_str("LZSS stream longer than declared"),
            Self::BudgetExceeded => f.write_str("LZSS declared length exceeds decode budget"),
        }
    }
}

impl core::error::Error for LzssError {}

/// Marker for an empty hash-chain link.
const NO_POSITION: u32 = u32::MAX;

/// Compresses `data` in one shot (server-side operation).
///
/// Greedy parsing over hash chains of 3-byte prefixes: at each position
/// the encoder walks up to 64 earlier positions with the same hash inside
/// the window and takes the first longest match. A candidate whose byte at
/// the best length so far differs from this position's cannot beat the
/// best, so the walk skips it without comparing prefixes, though it still
/// counts as one of the 64. Prefixes compare eight bytes at a time. Chain
/// links are `u32` positions, which fit because the header stores the
/// length as a `u32`.
#[must_use]
pub fn compress(data: &[u8], params: Params) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + data.len() / 2 + 16);
    out.extend_from_slice(&MAGIC);
    out.push(params.window_bits);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    let window = params.window_size();
    let min_match = params.min_match();
    let max_match = params.max_match();

    // Hash chains over 3-byte prefixes for match search.
    const HASH_BITS: usize = 15;
    const HASH_SIZE: usize = 1 << HASH_BITS;
    let hash = |bytes: &[u8]| -> usize {
        let v = (u32::from(bytes[0]) << 16) | (u32::from(bytes[1]) << 8) | u32::from(bytes[2]);
        (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
    };
    let mut head = vec![NO_POSITION; HASH_SIZE];
    let mut prev = vec![NO_POSITION; data.len()];

    // The flag byte is created lazily so an empty input emits no items.
    let mut flag_pos = 0usize;
    let mut flag_bit = 8u8;
    let push_item = |out: &mut Vec<u8>,
                     flag_pos: &mut usize,
                     flag_bit: &mut u8,
                     literal: bool,
                     bytes: &[u8]| {
        if *flag_bit == 8 {
            *flag_pos = out.len();
            out.push(0);
            *flag_bit = 0;
        }
        if literal {
            out[*flag_pos] |= 1 << *flag_bit;
        }
        *flag_bit += 1;
        out.extend_from_slice(bytes);
    };

    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + min_match <= data.len() {
            let mut candidate = head[hash(&data[i..])];
            let limit = i.saturating_sub(window);
            let max_here = max_match.min(data.len() - i);
            let here = &data[i..i + max_here];
            let mut tries = 64;
            while candidate != NO_POSITION && candidate as usize >= limit && tries > 0 {
                let start = candidate as usize;
                // `best_len < max_here` holds here: the walk stops on a
                // match of `max_here`.
                if data[start + best_len] == here[best_len] {
                    let len = common_prefix(&data[start..start + max_here], here);
                    if len > best_len {
                        best_len = len;
                        best_dist = i - start;
                        if len == max_here {
                            break;
                        }
                    }
                }
                candidate = prev[start];
                tries -= 1;
            }
        }

        if best_len >= min_match {
            // Match token: offset-1 in the low window_bits, length-min in
            // the high bits of a 16-bit little-endian word.
            let token =
                ((best_dist - 1) as u16) | ((best_len - min_match) as u16) << params.window_bits;
            push_item(
                &mut out,
                &mut flag_pos,
                &mut flag_bit,
                false,
                &token.to_le_bytes(),
            );
            // Index every position covered by the match.
            let end = i + best_len;
            while i < end {
                if i + min_match <= data.len() {
                    let h = hash(&data[i..]);
                    prev[i] = head[h];
                    head[h] = i as u32;
                }
                i += 1;
            }
        } else {
            push_item(&mut out, &mut flag_pos, &mut flag_bit, true, &data[i..=i]);
            if i + min_match <= data.len() {
                let h = hash(&data[i..]);
                prev[i] = head[h];
                head[h] = i as u32;
            }
            i += 1;
        }
    }
    out
}

/// Length of the common prefix of `a` and `b`, which have equal lengths:
/// compared eight bytes at a time (the lowest differing byte of two
/// little-endian words is their XOR's trailing zero bits ÷ 8), then byte by
/// byte.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.as_chunks::<8>().0.iter().zip(b.as_chunks::<8>().0) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Decompresses a complete LZSS stream in one call.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, LzssError> {
    decompress_with_budget(stream, u64::MAX)
}

/// Decompresses a complete LZSS stream, rejecting headers that declare an
/// original length beyond `budget` bytes (see [`Decompressor::with_budget`]).
pub fn decompress_with_budget(stream: &[u8], budget: u64) -> Result<Vec<u8>, LzssError> {
    let mut decoder = Decompressor::with_budget(budget);
    let mut out = Vec::new();
    decoder.push(stream, &mut out)?;
    decoder.finish()?;
    Ok(out)
}

/// Decompresses a complete LZSS stream into a caller-provided slice,
/// returning the number of bytes written.
///
/// The slice length doubles as the decode budget: a header declaring
/// more output than `out` can hold is rejected with
/// [`LzssError::BudgetExceeded`] before any byte is produced, so this
/// path never allocates and can never overrun the buffer.
pub fn decompress_into(stream: &[u8], out: &mut [u8]) -> Result<usize, LzssError> {
    let mut decoder = Decompressor::with_budget(out.len() as u64);
    let (mut read, mut written) = (0, 0);
    // The budget leaves room for all the declared output, so every call
    // consumes input until the stream ends or an error is reported.
    while read < stream.len() {
        let (r, w) = decoder.decode(&stream[read..], &mut out[written..])?;
        read += r;
        written += w;
    }
    decoder.finish()?;
    Ok(written)
}

/// Incremental LZSS decoder with memory bounded by the window size.
///
/// Accepts input in arbitrary chunk sizes — radio MTUs in UpKit's pipeline
/// — and writes decoded bytes into caller-provided output of any size
/// ([`Decompressor::decode`]), or hands them on through a stack buffer
/// ([`Decompressor::drain`], [`Decompressor::push`]). The decoder keeps
/// only the sliding window, an inline [`MAX_WINDOW`] = 8 KiB ring, plus a
/// few bytes of item state, matching the constrained-device RAM budget;
/// neither construction nor decoding ever allocates.
#[derive(Clone)]
pub struct Decompressor {
    /// Header bytes received so far.
    header: [u8; HEADER_LEN],
    /// How many of `header` are filled; [`HEADER_LEN`] once it parsed.
    header_filled: u8,
    params: Params,
    /// Unconsumed flags of the current group, LSB next, above a sentinel
    /// bit; [`FLAGS_EMPTY`] when the next input byte is a flag byte.
    flags: u16,
    /// Low byte of a match token whose high byte has not arrived yet.
    token_low: Option<u8>,
    /// Distance of the match being copied.
    copy_dist: u16,
    /// Bytes of that match not yet written (they did not fit in `out`).
    copy_left: u16,
    expected_len: u64,
    budget: u64,
    produced: u64,
    /// The last [`MAX_WINDOW`] bytes produced; byte `i` of the output sits
    /// at `i & RING_MASK`.
    window: [u8; MAX_WINDOW],
}

impl core::fmt::Debug for Decompressor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Decompressor")
            .field("header_filled", &self.header_filled)
            .field("params", &self.params)
            .field("expected_len", &self.expected_len)
            .field("produced", &self.produced)
            .finish_non_exhaustive()
    }
}

impl Default for Decompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Decompressor {
    /// Creates a decoder expecting a full stream starting with the header.
    #[must_use]
    pub fn new() -> Self {
        Self::with_budget(u64::MAX)
    }

    /// Creates a decoder that rejects any stream whose header declares an
    /// original length beyond `budget` bytes.
    ///
    /// The declared length drives how much output the caller accumulates
    /// and writes downstream; on a device the bound is the target flash
    /// slot, so a header lying about its length is rejected with
    /// [`LzssError::BudgetExceeded`] before any byte is produced.
    #[must_use]
    pub fn with_budget(budget: u64) -> Self {
        Self {
            header: [0; HEADER_LEN],
            header_filled: 0,
            params: Params::default(),
            flags: FLAGS_EMPTY,
            token_low: None,
            copy_dist: 0,
            copy_left: 0,
            expected_len: 0,
            budget,
            produced: 0,
            window: [0; MAX_WINDOW],
        }
    }

    /// Total bytes produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Declared original length (0 until the header has been parsed).
    #[must_use]
    pub fn expected_len(&self) -> u64 {
        self.expected_len
    }

    /// Returns `true` once the declared original length has been produced.
    #[must_use]
    pub fn is_done(&self) -> bool {
        usize::from(self.header_filled) == HEADER_LEN && self.produced == self.expected_len
    }

    /// Feeds `input` to the decoder, appending decoded bytes to `out`.
    pub fn push<S: ByteSink + ?Sized>(
        &mut self,
        input: &[u8],
        out: &mut S,
    ) -> Result<(), LzssError> {
        self.drain(input, |bytes| {
            out.put_slice(bytes);
            Ok(())
        })
    }

    /// Feeds `input` to the decoder and hands everything it decodes to
    /// `emit`, in runs of at most 1 KiB from one stack buffer.
    ///
    /// This is [`Decompressor::decode`] called until `input` is used up
    /// and no match copy is left over. It stops at the first error,
    /// whether the stream's or `emit`'s; every byte decoded before a
    /// stream error has been handed to `emit` (see
    /// [`Decompressor::decode`]).
    pub fn drain<E: From<LzssError>>(
        &mut self,
        mut input: &[u8],
        mut emit: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut buf = [0u8; DRAIN_LEN];
        loop {
            let (read, written) = self.decode(input, &mut buf)?;
            if written > 0 {
                emit(&buf[..written])?;
            }
            input = &input[read..];
            // Unless it filled `buf`, a call stops only for want of input.
            if input.is_empty() && written < DRAIN_LEN {
                return Ok(());
            }
        }
    }

    /// Declares end of input; fails if the stream was incomplete.
    pub fn finish(&self) -> Result<(), LzssError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(LzssError::Truncated)
        }
    }

    /// Decodes from `input` into `out` until the input is used up or `out`
    /// is full, returning `(bytes read, bytes written)`.
    ///
    /// A match that does not fit in `out` carries over: the next call
    /// writes the rest of it first, even with empty `input`. A call that
    /// filled `out` may therefore have more to give; one that did not has
    /// read all of `input`.
    ///
    /// # Errors
    ///
    /// Returns the stream's first malformation. Only a call that writes
    /// nothing returns an error: a call that has written output stops in
    /// front of the bad item and returns what it wrote, and the next call
    /// reports the error. Every byte decoded before an error thus reaches
    /// the caller, and a match running past the declared length is
    /// rejected before any of it is written.
    pub fn decode(&mut self, input: &[u8], out: &mut [u8]) -> Result<(usize, usize), LzssError> {
        let mut read = 0;
        if usize::from(self.header_filled) < HEADER_LEN {
            read = self.read_header(input)?;
            if usize::from(self.header_filled) < HEADER_LEN {
                return Ok((read, 0));
            }
        }
        let window_bits = self.params.window_bits;
        let offset_mask = (1u16 << window_bits) - 1;
        let min_match = self.params.min_match();
        let expected = self.expected_len;
        let window = &mut self.window;
        let mut produced = self.produced;
        let mut flags = self.flags;
        let mut token_low = self.token_low;
        let mut copy_dist = usize::from(self.copy_dist);
        let mut copy_left = usize::from(self.copy_left);
        let mut written = 0;

        let outcome = loop {
            if copy_left > 0 {
                let n = copy_left.min(out.len() - written);
                copy_match(
                    window,
                    produced as usize,
                    copy_dist,
                    &mut out[written..written + n],
                );
                written += n;
                produced += n as u64;
                copy_left -= n;
                if copy_left > 0 {
                    break Ok(());
                }
            }
            if produced == expected {
                break if read < input.len() && written == 0 {
                    Err(LzssError::TrailingData)
                } else {
                    Ok(())
                };
            }
            if flags == FLAGS_EMPTY {
                let Some(&byte) = input.get(read) else {
                    break Ok(());
                };
                read += 1;
                flags = 0x100 | u16::from(byte);
            }
            if flags & 1 == 1 {
                // A run of literals: as many as the group's flags, the
                // input, `out` and the declared length allow.
                let flags_left = 15 - flags.leading_zeros() as usize;
                let mut run = (flags.trailing_ones() as usize)
                    .min(flags_left)
                    .min(input.len() - read)
                    .min(out.len() - written);
                if run as u64 > expected - produced {
                    run = (expected - produced) as usize;
                }
                if run == 0 {
                    break Ok(());
                }
                let literals = &input[read..read + run];
                out[written..written + run].copy_from_slice(literals);
                for (i, &byte) in literals.iter().enumerate() {
                    window[(produced as usize + i) & RING_MASK] = byte;
                }
                read += run;
                written += run;
                produced += run as u64;
                flags >>= run;
            } else {
                let token_start = read;
                let low = match token_low.take() {
                    Some(low) => low,
                    None => {
                        let Some(&low) = input.get(read) else {
                            break Ok(());
                        };
                        read += 1;
                        low
                    }
                };
                let Some(&high) = input.get(read) else {
                    token_low = Some(low);
                    break Ok(());
                };
                read += 1;
                let token = u16::from_le_bytes([low, high]);
                let dist = usize::from(token & offset_mask) + 1;
                let len = usize::from(token >> window_bits) + min_match;
                let malformed = if dist as u64 > produced {
                    Some(LzssError::InvalidBackreference)
                } else if len as u64 > expected - produced {
                    Some(LzssError::TrailingData)
                } else {
                    None
                };
                if let Some(error) = malformed {
                    if written == 0 {
                        break Err(error);
                    }
                    // A token split across calls is the first item of
                    // its call, so here both of its bytes are in `input`.
                    read = token_start;
                    break Ok(());
                }
                copy_dist = dist;
                copy_left = len;
                flags >>= 1;
            }
        };

        self.produced = produced;
        self.flags = flags;
        self.token_low = token_low;
        self.copy_dist = copy_dist as u16;
        self.copy_left = copy_left as u16;
        outcome.map(|()| (read, written))
    }

    /// Takes header bytes from the front of `input`, returning how many;
    /// validates the header once it is complete.
    fn read_header(&mut self, input: &[u8]) -> Result<usize, LzssError> {
        let filled = usize::from(self.header_filled);
        let take = (HEADER_LEN - filled).min(input.len());
        self.header[filled..filled + take].copy_from_slice(&input[..take]);
        if filled + take == HEADER_LEN {
            let [m0, m1, m2, m3, window_bits, l0, l1, l2, l3] = self.header;
            if [m0, m1, m2, m3] != MAGIC {
                return Err(LzssError::BadMagic);
            }
            self.params = Params::new(window_bits)?;
            self.expected_len = u64::from(u32::from_le_bytes([l0, l1, l2, l3]));
            if self.expected_len > self.budget {
                return Err(LzssError::BudgetExceeded);
            }
        }
        self.header_filled = (filled + take) as u8;
        Ok(take)
    }
}

/// Writes the next `out.len()` bytes of a match `dist` bytes back from
/// output position `pos` into `out` and into the window ring.
fn copy_match(window: &mut [u8; MAX_WINDOW], pos: usize, dist: usize, out: &mut [u8]) {
    let n = out.len();
    let from = pos.wrapping_sub(dist) & RING_MASK;
    let to = pos & RING_MASK;
    if dist == 1 {
        // A run of one byte, the common shape of a patch's zero blocks.
        let byte = window[from];
        out.fill(byte);
        let first = n.min(MAX_WINDOW - to);
        window[to..to + first].fill(byte);
        window[..n - first].fill(byte);
    } else if dist >= n && from + n <= MAX_WINDOW && to + n <= MAX_WINDOW {
        window.copy_within(from..from + n, to);
        out.copy_from_slice(&window[to..to + n]);
    } else {
        for (i, slot) in out.iter_mut().enumerate() {
            let byte = window[(from + i) & RING_MASK];
            window[(to + i) & RING_MASK] = byte;
            *slot = byte;
        }
    }
}

/// The byte-at-a-time decoder [`Decompressor`] replaced: one state-machine
/// step, one `%` and one push per stream byte; and the encoder [`compress`]
/// replaced, which compares every chain candidate byte by byte. Kept as
/// the references the run decoder and the encoder are checked against.
#[cfg(test)]
mod oracle {
    use super::{LzssError, Params, HEADER_LEN, MAGIC, MAX_WINDOW};
    use alloc::vec;
    use alloc::vec::Vec;

    pub fn compress(data: &[u8], params: Params) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + data.len() / 2 + 16);
        out.extend_from_slice(&MAGIC);
        out.push(params.window_bits);
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());

        let window = params.window_size();
        let min_match = params.min_match();
        let max_match = params.max_match();

        const HASH_BITS: usize = 15;
        const HASH_SIZE: usize = 1 << HASH_BITS;
        let hash = |bytes: &[u8]| -> usize {
            let v = (u32::from(bytes[0]) << 16) | (u32::from(bytes[1]) << 8) | u32::from(bytes[2]);
            (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
        };
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; data.len()];

        let mut flag_pos = 0usize;
        let mut flag_bit = 8u8;
        let push_item = |out: &mut Vec<u8>,
                         flag_pos: &mut usize,
                         flag_bit: &mut u8,
                         literal: bool,
                         bytes: &[u8]| {
            if *flag_bit == 8 {
                *flag_pos = out.len();
                out.push(0);
                *flag_bit = 0;
            }
            if literal {
                out[*flag_pos] |= 1 << *flag_bit;
            }
            *flag_bit += 1;
            out.extend_from_slice(bytes);
        };

        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + min_match <= data.len() {
                let mut candidate = head[hash(&data[i..])];
                let limit = i.saturating_sub(window);
                let mut tries = 64;
                while candidate != usize::MAX && candidate >= limit && tries > 0 {
                    let max_here = max_match.min(data.len() - i);
                    let mut len = 0;
                    while len < max_here && data[candidate + len] == data[i + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = i - candidate;
                        if len == max_here {
                            break;
                        }
                    }
                    candidate = prev[candidate];
                    tries -= 1;
                }
            }

            if best_len >= min_match {
                let token = ((best_dist - 1) as u16)
                    | ((best_len - min_match) as u16) << params.window_bits;
                push_item(
                    &mut out,
                    &mut flag_pos,
                    &mut flag_bit,
                    false,
                    &token.to_le_bytes(),
                );
                let end = i + best_len;
                while i < end {
                    if i + min_match <= data.len() {
                        let h = hash(&data[i..]);
                        prev[i] = head[h];
                        head[h] = i;
                    }
                    i += 1;
                }
            } else {
                push_item(&mut out, &mut flag_pos, &mut flag_bit, true, &data[i..=i]);
                if i + min_match <= data.len() {
                    let h = hash(&data[i..]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        out
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum DecodeState {
        Header { filled: usize },
        Flags,
        Literal,
        MatchLow,
        MatchHigh { low: u8 },
        Done,
    }

    pub struct Decompressor {
        state: DecodeState,
        header: [u8; HEADER_LEN],
        params: Params,
        expected_len: u64,
        budget: u64,
        produced: u64,
        window: [u8; MAX_WINDOW],
        window_size: usize,
        window_pos: usize,
        window_filled: usize,
        flags: u8,
        flags_left: u8,
    }

    impl Decompressor {
        pub fn with_budget(budget: u64) -> Self {
            Self {
                state: DecodeState::Header { filled: 0 },
                header: [0; HEADER_LEN],
                params: Params::default(),
                expected_len: 0,
                budget,
                produced: 0,
                window: [0; MAX_WINDOW],
                window_size: 0,
                window_pos: 0,
                window_filled: 0,
                flags: 0,
                flags_left: 0,
            }
        }

        pub fn produced(&self) -> u64 {
            self.produced
        }

        pub fn expected_len(&self) -> u64 {
            self.expected_len
        }

        pub fn is_done(&self) -> bool {
            self.state == DecodeState::Done
        }

        pub fn push(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<(), LzssError> {
            for &byte in input {
                self.push_byte(byte, out)?;
            }
            Ok(())
        }

        pub fn finish(&self) -> Result<(), LzssError> {
            if self.state == DecodeState::Done {
                Ok(())
            } else {
                Err(LzssError::Truncated)
            }
        }

        fn push_byte(&mut self, byte: u8, out: &mut Vec<u8>) -> Result<(), LzssError> {
            match self.state {
                DecodeState::Header { filled } => {
                    self.header[filled] = byte;
                    let filled = filled + 1;
                    if filled == HEADER_LEN {
                        if self.header[..4] != MAGIC {
                            return Err(LzssError::BadMagic);
                        }
                        self.params = Params::new(self.header[4])?;
                        self.expected_len = u64::from(u32::from_le_bytes(
                            self.header[5..9].try_into().expect("4 bytes"),
                        ));
                        if self.expected_len > self.budget {
                            return Err(LzssError::BudgetExceeded);
                        }
                        self.window_size = self.params.window_size();
                        self.state = if self.expected_len == 0 {
                            DecodeState::Done
                        } else {
                            DecodeState::Flags
                        };
                    } else {
                        self.state = DecodeState::Header { filled };
                    }
                    Ok(())
                }
                DecodeState::Flags => {
                    self.flags = byte;
                    self.flags_left = 8;
                    self.state = if self.flags & 1 == 1 {
                        DecodeState::Literal
                    } else {
                        DecodeState::MatchLow
                    };
                    self.consume_flag();
                    Ok(())
                }
                DecodeState::Literal => {
                    self.emit(byte, out);
                    self.advance()
                }
                DecodeState::MatchLow => {
                    self.state = DecodeState::MatchHigh { low: byte };
                    Ok(())
                }
                DecodeState::MatchHigh { low } => {
                    let token = u16::from_le_bytes([low, byte]);
                    let dist = usize::from(token & ((1 << self.params.window_bits) - 1)) + 1;
                    let len =
                        usize::from(token >> self.params.window_bits) + self.params.min_match();
                    if dist > self.window_filled {
                        return Err(LzssError::InvalidBackreference);
                    }
                    for _ in 0..len {
                        if self.produced >= self.expected_len {
                            return Err(LzssError::TrailingData);
                        }
                        let idx = (self.window_pos + self.window_size - dist) % self.window_size;
                        let value = self.window[idx];
                        self.emit(value, out);
                    }
                    self.advance()
                }
                DecodeState::Done => Err(LzssError::TrailingData),
            }
        }

        fn emit(&mut self, byte: u8, out: &mut Vec<u8>) {
            out.push(byte);
            self.window[self.window_pos] = byte;
            self.window_pos = (self.window_pos + 1) % self.window_size;
            self.window_filled = (self.window_filled + 1).min(self.window_size);
            self.produced += 1;
        }

        fn consume_flag(&mut self) {
            self.flags >>= 1;
            self.flags_left -= 1;
        }

        fn advance(&mut self) -> Result<(), LzssError> {
            if self.produced > self.expected_len {
                return Err(LzssError::TrailingData);
            }
            if self.produced == self.expected_len {
                self.state = DecodeState::Done;
                return Ok(());
            }
            if self.flags_left == 0 {
                self.state = DecodeState::Flags;
            } else {
                self.state = if self.flags & 1 == 1 {
                    DecodeState::Literal
                } else {
                    DecodeState::MatchLow
                };
                self.consume_flag();
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = compress(data, Params::default());
        assert_eq!(decompress(&packed).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn single_byte() {
        round_trip(b"x");
    }

    #[test]
    fn short_literals() {
        round_trip(b"ab");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = b"firmware".repeat(500);
        let packed = compress(&data, Params::default());
        assert!(
            packed.len() < data.len() / 4,
            "{} vs {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_data_round_trips() {
        // Pseudo-random bytes: little repetition, stream grows slightly.
        let mut state = 0x1234_5678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn run_longer_than_max_match() {
        let data = vec![0xaa; 10_000];
        round_trip(&data);
    }

    #[test]
    fn all_window_sizes_round_trip() {
        let data = b"the quick brown fox jumps over the lazy dog ".repeat(200);
        for bits in 8..=13 {
            let params = Params::new(bits).unwrap();
            let packed = compress(&data, params);
            assert_eq!(decompress(&packed).unwrap(), data, "window_bits {bits}");
        }
    }

    #[test]
    fn every_window_divides_the_ring_and_every_match_fits_its_counter() {
        for bits in 8..=13 {
            let params = Params::new(bits).unwrap();
            assert_eq!(MAX_WINDOW % params.window_size(), 0, "window_bits {bits}");
            assert!(
                params.max_match() <= usize::from(u16::MAX),
                "window_bits {bits}"
            );
        }
    }

    #[test]
    fn params_reject_out_of_range() {
        assert_eq!(Params::new(7), Err(LzssError::BadParams));
        assert_eq!(Params::new(14), Err(LzssError::BadParams));
        assert!(Params::new(8).is_ok());
        assert!(Params::new(13).is_ok());
    }

    #[test]
    fn params_accessors() {
        let p = Params::new(12).unwrap();
        assert_eq!(p.window_size(), 4096);
        assert_eq!(p.length_bits(), 4);
        assert_eq!(p.min_match(), 3);
        assert_eq!(p.max_match(), 18);
    }

    #[test]
    fn streaming_matches_one_shot_for_any_chunking() {
        let data = b"streaming chunked decode ".repeat(300);
        let packed = compress(&data, Params::default());
        for chunk_size in [1usize, 2, 3, 7, 20, 64, 1000] {
            let mut decoder = Decompressor::new();
            let mut out = Vec::new();
            for chunk in packed.chunks(chunk_size) {
                decoder.push(chunk, &mut out).unwrap();
            }
            decoder.finish().unwrap();
            assert_eq!(out, data, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut packed = compress(b"hello world", Params::default());
        packed[0] = b'X';
        assert_eq!(decompress(&packed), Err(LzssError::BadMagic));
    }

    #[test]
    fn rejects_bad_params_byte() {
        let mut packed = compress(b"hello world", Params::default());
        packed[4] = 200;
        assert_eq!(decompress(&packed), Err(LzssError::BadParams));
    }

    #[test]
    fn rejects_truncated_stream() {
        let packed = compress(&b"hello world, hello world".repeat(10), Params::default());
        let truncated = &packed[..packed.len() - 3];
        let mut decoder = Decompressor::new();
        let mut out = Vec::new();
        decoder.push(truncated, &mut out).unwrap();
        assert_eq!(decoder.finish(), Err(LzssError::Truncated));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut packed = compress(b"payload payload payload", Params::default());
        packed.push(0xff);
        assert_eq!(decompress(&packed), Err(LzssError::TrailingData));
    }

    #[test]
    fn rejects_invalid_backreference() {
        // Hand-craft a stream whose first item is a match (flag bit 0):
        // nothing is in the window yet, so any match is invalid.
        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(12);
        stream.extend_from_slice(&8u32.to_le_bytes());
        stream.push(0b0000_0000); // all matches
        stream.extend_from_slice(&0u16.to_le_bytes()); // dist 1, len 3
        assert_eq!(decompress(&stream), Err(LzssError::InvalidBackreference));
    }

    #[test]
    fn decoder_reports_progress() {
        let data = b"progress".repeat(100);
        let packed = compress(&data, Params::default());
        let mut decoder = Decompressor::new();
        let mut out = Vec::new();
        decoder.push(&packed[..packed.len() / 2], &mut out).unwrap();
        assert!(decoder.produced() > 0);
        assert_eq!(decoder.expected_len(), data.len() as u64);
        assert!(!decoder.is_done());
        decoder.push(&packed[packed.len() / 2..], &mut out).unwrap();
        assert!(decoder.is_done());
        assert_eq!(decoder.produced(), data.len() as u64);
    }

    #[test]
    fn window_limits_match_distance() {
        // Two identical blocks separated by more than the window size must
        // still round-trip (the second block simply re-encodes).
        let params = Params::new(8).unwrap(); // 256-byte window
        let block = b"unique-block-content-123".to_vec();
        let mut data = block.clone();
        data.extend(core::iter::repeat_n(b'.', 1000));
        data.extend_from_slice(&block);
        let packed = compress(&data, params);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn huge_declared_length_is_rejected_by_budget() {
        // Allocation-DoS shape: a 9-byte header declaring a 4 GiB output.
        // The declared length sizes what the caller accumulates, so a
        // budgeted decoder must reject it at the header, before producing
        // a single byte.
        let mut stream = compress(b"tiny", Params::default());
        stream[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decompress_with_budget(&stream, 4096).unwrap_err();
        assert_eq!(err, LzssError::BudgetExceeded);
        let mut decoder = Decompressor::with_budget(4096);
        let mut out = Vec::new();
        assert_eq!(
            decoder.push(&stream, &mut out),
            Err(LzssError::BudgetExceeded)
        );
        assert!(out.is_empty(), "no output before the budget check");
    }

    #[test]
    fn decompress_into_matches_vec_path() {
        let data = b"fixed-buffer parity ".repeat(200);
        let packed = compress(&data, Params::default());
        let mut out = vec![0u8; data.len()];
        let written = decompress_into(&packed, &mut out).unwrap();
        assert_eq!(written, data.len());
        assert_eq!(out, data);
        // An exactly-sized buffer is the tightest admissible budget; one
        // byte less must reject at the header, before any output.
        let mut short = vec![0u8; data.len() - 1];
        assert_eq!(
            decompress_into(&packed, &mut short),
            Err(LzssError::BudgetExceeded)
        );
    }

    #[test]
    fn budget_admits_honest_streams() {
        let data = b"honest firmware body".repeat(64);
        let packed = compress(&data, Params::default());
        assert_eq!(
            decompress_with_budget(&packed, data.len() as u64).unwrap(),
            data
        );
        assert_eq!(
            decompress_with_budget(&packed, data.len() as u64 - 1),
            Err(LzssError::BudgetExceeded)
        );
    }

    #[test]
    fn decoder_is_no_larger_than_the_byte_at_a_time_one() {
        assert!(
            core::mem::size_of::<Decompressor>() <= core::mem::size_of::<oracle::Decompressor>()
        );
    }

    #[test]
    fn match_copy_carries_over_into_the_next_call() {
        // One literal, then a 17-byte match of it: a 4-byte `out` takes
        // the match in pieces, the last calls with no input at all.
        let data = [b'z'; 18];
        let packed = compress(&data, Params::default());
        let mut decoder = Decompressor::new();
        let mut out = [0u8; 4];
        let (read, written) = decoder.decode(&packed, &mut out).unwrap();
        assert_eq!((read, written), (packed.len(), 4));
        let mut total = written;
        while total < data.len() {
            let (read, written) = decoder.decode(&[], &mut out).unwrap();
            assert_eq!(read, 0);
            assert!(written > 0);
            total += written;
        }
        assert_eq!(decoder.decode(&[], &mut out).unwrap(), (0, 0));
        assert!(decoder.is_done());
        assert_eq!(decoder.produced(), data.len() as u64);
    }

    /// A stream declaring `declared` bytes whose items are one literal and
    /// then a maximal match of it (18 bytes under the default window).
    fn literal_then_match(declared: u32) -> Vec<u8> {
        let mut stream = MAGIC.to_vec();
        stream.push(12);
        stream.extend_from_slice(&declared.to_le_bytes());
        stream.push(0b0000_0001); // literal, then a match
        stream.push(b'q');
        stream.extend_from_slice(&0xF000u16.to_le_bytes()); // dist 1, len 18
        stream
    }

    #[test]
    fn over_long_match_is_rejected_by_the_call_after_the_output_before_it() {
        let stream = literal_then_match(10);
        let mut decoder = Decompressor::new();
        let mut out = [0u8; 64];
        // The literal comes back first; the decoder stops in front of the
        // match, which would run 9 bytes past the declared length.
        let (read, written) = decoder.decode(&stream, &mut out).unwrap();
        assert_eq!(written, 1);
        assert_eq!(out[0], b'q');
        assert_eq!(read, stream.len() - 2);
        assert_eq!(
            decoder.decode(&stream[read..], &mut out),
            Err(LzssError::TrailingData)
        );
        assert_eq!(decoder.produced(), 1, "none of the match was written");
    }

    #[test]
    fn decode_reports_trailing_input_after_the_last_item() {
        let mut stream = literal_then_match(19);
        stream.push(0);
        let mut decoder = Decompressor::new();
        let mut out = [0u8; 64];
        let (read, written) = decoder.decode(&stream, &mut out).unwrap();
        assert_eq!((read, written), (stream.len() - 1, 19));
        assert!(decoder.is_done());
        assert_eq!(
            decoder.decode(&stream[read..], &mut out),
            Err(LzssError::TrailingData)
        );
    }

    #[test]
    fn drain_stops_at_the_first_emit_error() {
        let data = b"drained in runs ".repeat(400);
        let packed = compress(&data, Params::default());
        let mut decoder = Decompressor::new();
        let mut calls = 0;
        let result: Result<(), &str> = decoder.drain(&packed, |run| {
            assert!(run.len() <= DRAIN_LEN);
            calls += 1;
            if calls == 2 {
                Err("sink full")
            } else {
                Ok(())
            }
        });
        assert_eq!(result, Err("sink full"));
        assert_eq!(calls, 2);
    }

    impl From<LzssError> for &str {
        fn from(_: LzssError) -> Self {
            "stream error"
        }
    }

    /// What the byte-at-a-time decoder makes of `stream`: its output and
    /// its first error, or the `finish` verdict.
    fn run_oracle(
        stream: &[u8],
        budget: u64,
    ) -> (Vec<u8>, Result<(), LzssError>, oracle::Decompressor) {
        let mut decoder = oracle::Decompressor::with_budget(budget);
        let mut out = Vec::new();
        let result = decoder
            .push(stream, &mut out)
            .and_then(|()| decoder.finish());
        (out, result, decoder)
    }

    /// Drives [`Decompressor::decode`] over `stream` cut at `splits`,
    /// into output slices whose capacities cycle through `capacities`.
    fn run_decode(
        stream: &[u8],
        budget: u64,
        splits: &[usize],
        capacities: &[usize],
    ) -> (Vec<u8>, Result<(), LzssError>, Decompressor) {
        let mut decoder = Decompressor::with_budget(budget);
        let mut out = Vec::new();
        let mut buf = vec![0u8; 2048];
        let mut capacity = capacities.iter().cycle();
        let mut rest = stream;
        let mut split = splits.iter().cycle();
        while !rest.is_empty() {
            let (mut piece, tail) = rest.split_at((*split.next().unwrap()).min(rest.len()));
            rest = tail;
            loop {
                let cap = *capacity.next().unwrap();
                match decoder.decode(piece, &mut buf[..cap]) {
                    Ok((read, written)) => {
                        out.extend_from_slice(&buf[..written]);
                        piece = &piece[read..];
                        if piece.is_empty() && written < cap {
                            break;
                        }
                    }
                    Err(e) => return (out, Err(e), decoder),
                }
            }
        }
        let result = decoder.finish();
        (out, result, decoder)
    }

    /// Drives [`Decompressor::push`] over `stream` cut at `splits`.
    fn run_push(stream: &[u8], budget: u64, splits: &[usize]) -> (Vec<u8>, Result<(), LzssError>) {
        let mut decoder = Decompressor::with_budget(budget);
        let mut out = Vec::new();
        let mut rest = stream;
        let mut split = splits.iter().cycle();
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at((*split.next().unwrap()).min(rest.len()));
            rest = tail;
            if let Err(e) = decoder.push(piece, &mut out) {
                return (out, Err(e));
            }
        }
        let result = decoder.finish();
        (out, result)
    }

    #[derive(Clone, Debug)]
    enum Mutation {
        Honest,
        FlipBit { at: usize, bit: u8 },
        Truncate { keep: usize },
        Append(Vec<u8>),
        Declare(u32),
    }

    impl Mutation {
        fn apply(&self, stream: &mut Vec<u8>) {
            match self {
                Self::Honest => {}
                Self::FlipBit { at, bit } => {
                    let at = at % stream.len();
                    stream[at] ^= 1 << bit;
                }
                Self::Truncate { keep } => stream.truncate(keep % (stream.len() + 1)),
                Self::Append(bytes) => stream.extend_from_slice(bytes),
                Self::Declare(len) => stream[5..9].copy_from_slice(&len.to_le_bytes()),
            }
        }
    }

    /// Honest streams 2 times in 9, bit flips 4 in 9, and one each of
    /// truncation, appended bytes and a rewritten length field.
    fn mutation() -> impl Strategy<Value = Mutation> {
        (
            0u8..9,
            any::<usize>(),
            0u8..8,
            proptest::collection::vec(any::<u8>(), 1..8),
            any::<u32>(),
        )
            .prop_map(|(kind, at, bit, bytes, len)| match kind {
                0 | 1 => Mutation::Honest,
                2..=5 => Mutation::FlipBit { at, bit },
                6 => Mutation::Truncate { keep: at },
                7 => Mutation::Append(bytes),
                // Half the rewrites stay near the real length.
                _ => Mutation::Declare(if bit < 4 { len } else { len % 5000 }),
            })
    }

    /// Data with long runs, short repeats, far repeats and noise, up to
    /// ~19 kB, so every window size sees literals, short and maximal
    /// matches, and matches reaching across the ring's wrap.
    fn firmware_like() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((any::<u16>(), 0usize..1200, 0u8..4), 0..16).prop_map(|parts| {
            let mut data = Vec::new();
            for (seed, len, kind) in parts {
                match kind {
                    0 => data.extend(core::iter::repeat_n(seed as u8, len)),
                    1 => data.extend((0..len).map(|i| (seed as u8).wrapping_add((i % 7) as u8))),
                    2 if !data.is_empty() => {
                        let start = usize::from(seed) % data.len();
                        data.extend_from_within(start..(start + len).min(data.len()));
                    }
                    _ => {
                        let mut state = u32::from(seed) | 1;
                        data.extend((0..len).map(|_| {
                            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                            (state >> 24) as u8
                        }));
                    }
                }
            }
            data
        })
    }

    /// Shaped like a bsdiff patch of a firmware update: a header, then
    /// entries of a control word, a diff block of zeros with small deltas
    /// at a relocation stride, and a block of literal bytes.
    fn bsdiff_like() -> impl Strategy<Value = Vec<u8>> {
        let entry = (0u32..3000, 1u32..64, 0u32..300, any::<u32>());
        proptest::collection::vec(entry, 0..8).prop_map(|entries| {
            let new_len: u32 = entries.iter().map(|(diff, _, extra, _)| diff + extra).sum();
            let mut patch = b"BSD1".to_vec();
            patch.extend_from_slice(&new_len.to_le_bytes());
            patch.extend_from_slice(&new_len.to_le_bytes());
            for (diff, stride, extra, seed) in entries {
                patch.extend_from_slice(&diff.to_le_bytes());
                patch.extend_from_slice(&extra.to_le_bytes());
                patch.extend_from_slice(&(seed % 4096).to_le_bytes());
                let mut state = seed | 1;
                let mut next = move || {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 24) as u8
                };
                patch.extend((0..diff).map(|i| if i % stride == 0 { next() % 4 } else { 0 }));
                patch.extend((0..extra).map(|_| next()));
            }
            patch
        })
    }

    /// What the encoder is checked on: random bytes, two- and
    /// four-symbol alphabets (hash chains far longer than the 64 a walk
    /// tries), long zero runs, firmware-like data and bsdiff-shaped
    /// patches.
    fn encoder_inputs() -> impl Strategy<Value = Vec<u8>> {
        let zero_runs =
            proptest::collection::vec((0usize..3000, any::<u8>()), 0..12).prop_map(|runs| {
                runs.into_iter()
                    .flat_map(|(zeros, byte)| core::iter::repeat_n(0, zeros).chain([byte]))
                    .collect()
            });
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..4096),
            proptest::collection::vec(0u8..2, 0..4096),
            proptest::collection::vec(0u8..4, 0..4096),
            zero_runs,
            firmware_like(),
            bsdiff_like(),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The run decoder agrees with the byte-at-a-time one on every
        /// window size, however input and output are cut: the same output
        /// and verdict on success, the same error on failure, and on
        /// failure a prefix of the output the old decoder had written. The
        /// prefix is all of it unless a match ran past the declared
        /// length, which the old decoder wrote up to that length.
        #[test]
        fn decode_agrees_with_the_byte_at_a_time_oracle(
            data in firmware_like(),
            mutation in mutation(),
            budget in prop_oneof![Just(u64::MAX), 0u64..6000],
            splits in proptest::collection::vec(1usize..300, 1..16),
            capacities in proptest::collection::vec(1usize..=2048, 1..16),
        ) {
            for window_bits in 8..=13 {
                let mut stream = compress(&data, Params::new(window_bits).unwrap());
                mutation.apply(&mut stream);
                let (expected, verdict, reference) = run_oracle(&stream, budget);
                let (decoded, result, decoder) = run_decode(&stream, budget, &splits, &capacities);
                let (pushed, push_result) = run_push(&stream, budget, &splits);
                prop_assert_eq!(result, verdict, "decode, window_bits {}", window_bits);
                prop_assert_eq!(push_result, verdict, "push, window_bits {}", window_bits);
                if verdict.is_ok() {
                    prop_assert_eq!(&decoded, &expected);
                    prop_assert_eq!(&pushed, &expected);
                    prop_assert_eq!(decoder.produced(), reference.produced());
                    prop_assert!(decoder.is_done() && reference.is_done());
                } else if verdict == Err(LzssError::TrailingData) {
                    prop_assert!(expected.starts_with(&decoded), "decode output not a prefix");
                    prop_assert!(expected.starts_with(&pushed), "push output not a prefix");
                } else {
                    prop_assert_eq!(&decoded, &expected);
                    prop_assert_eq!(&pushed, &expected);
                }
                prop_assert_eq!(decoder.expected_len(), reference.expected_len());
            }
        }

        /// The chain walk that skips losing candidates and compares eight
        /// bytes at a time emits the byte-at-a-time encoder's stream at
        /// every window size.
        #[test]
        fn encoder_equals_the_byte_at_a_time_oracle(data in encoder_inputs()) {
            for window_bits in 8..=13 {
                let params = Params::new(window_bits).unwrap();
                prop_assert_eq!(
                    compress(&data, params),
                    oracle::compress(&data, params),
                    "window_bits {}",
                    window_bits
                );
            }
        }
    }
}
