//! Byte sinks: the crate-local replacement for `std::io::Write`.
//!
//! The device-side decoders ([`crate::Decompressor`], the patchers in
//! `upkit-delta`) produce output incrementally. On the host the natural
//! sink is a growable `Vec<u8>`; on a constrained target the output must
//! land in a caller-provided fixed slice with no heap involvement. This
//! trait is the seam between the two: it is deliberately infallible
//! (like pushing to a `Vec`), and [`FixedBuf`] converts overflow into a
//! sticky flag instead of a panic — the decode budgets established
//! upstream guarantee a correctly sized buffer never overflows, and the
//! flag makes that claim checkable.

use alloc::vec::Vec;

/// Destination for decoded bytes.
///
/// Implementations must accept every byte offered; bounded sinks record
/// overflow out of band (see [`FixedBuf::overflowed`]) rather than
/// failing, which keeps the decoder state machines free of an error
/// path that budget checks already rule out. The decoders hand over whole
/// runs, never single bytes.
pub trait ByteSink {
    /// Appends a run of bytes.
    fn put_slice(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A caller-provided fixed slice with a write cursor.
///
/// Writes beyond the end of the slice are dropped and latch the
/// [`overflowed`](Self::overflowed) flag; they never panic. The
/// allocation-free decode paths (`decompress_into`, `patch_into`, ...)
/// size their budgets from the slice length, so overflow indicates a
/// logic error upstream, not bad input.
#[derive(Debug)]
pub struct FixedBuf<'a> {
    buf: &'a mut [u8],
    len: usize,
    overflowed: bool,
}

impl<'a> FixedBuf<'a> {
    /// Wraps `buf` with the cursor at the start.
    #[must_use]
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self {
            buf,
            len: 0,
            overflowed: false,
        }
    }

    /// The filled prefix of the buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity still available.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Whether any write was dropped for lack of space.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Empties the buffer, keeping the overflow flag.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl ByteSink for FixedBuf<'_> {
    fn put_slice(&mut self, bytes: &[u8]) {
        let take = bytes.len().min(self.remaining());
        self.buf[self.len..self.len + take].copy_from_slice(&bytes[..take]);
        self.len += take;
        if take < bytes.len() {
            self.overflowed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_appends() {
        let mut v = Vec::new();
        v.put_slice(&[1]);
        v.put_slice(&[2, 3]);
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn fixed_buf_tracks_cursor() {
        let mut backing = [0u8; 4];
        let mut buf = FixedBuf::new(&mut backing);
        assert!(buf.is_empty());
        buf.put_slice(&[9]);
        buf.put_slice(&[8, 7]);
        assert_eq!(buf.as_slice(), [9, 8, 7]);
        assert_eq!(buf.remaining(), 1);
        assert!(!buf.overflowed());
    }

    #[test]
    fn fixed_buf_truncates_without_panicking() {
        let mut backing = [0u8; 2];
        let mut buf = FixedBuf::new(&mut backing);
        buf.put_slice(&[1, 2, 3]);
        assert_eq!(buf.as_slice(), [1, 2]);
        assert!(buf.overflowed());
        buf.put_slice(&[4]);
        assert!(buf.overflowed());
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn clear_keeps_overflow_flag() {
        let mut backing = [0u8; 1];
        let mut buf = FixedBuf::new(&mut backing);
        buf.put_slice(&[1, 2]);
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.overflowed());
    }
}
