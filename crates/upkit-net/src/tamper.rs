//! Attack/fault injection on in-transit update images.
//!
//! UpKit's threat model (Sect. III) assumes the smartphone or gateway may
//! be compromised: it can drop, corrupt, truncate, or replay data, but —
//! because it holds no signing keys — it can never *forge* an acceptable
//! update. These injectors implement exactly those capabilities so the test
//! suite and the security experiments can exercise them.
//!
//! Two granularities are provided: [`Tamper`] mutates the whole image
//! stream a compromised [`Forwarder`](crate::proxy::Forwarder) or
//! [`CachingProxy`](crate::proxy::CachingProxy) serves, and
//! [`FrameAdversary`] sits *inside* a live stepped session as a
//! [`SessionEndpoints`] wrapper, mutating one link frame in flight —
//! corrupt, reorder, duplicate, inject, drop — or substituting the entire
//! resolved stream (a cross-version replay).

use upkit_core::agent::{AgentError, AgentPhase};
use upkit_manifest::DeviceToken;

use crate::session::{SessionEndpoints, SessionStream, StreamResolution};

/// A transformation a compromised proxy can apply to the bytes it forwards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Tamper {
    /// Forward faithfully (an honest proxy).
    #[default]
    None,
    /// Flip one bit at `offset` (transmission corruption or malice).
    FlipBit {
        /// Byte offset whose lowest bit is flipped.
        offset: usize,
    },
    /// Forward only the first `keep` bytes, then stop (drop attack).
    Truncate {
        /// Number of leading bytes to forward.
        keep: usize,
    },
    /// Replace the entire stream with previously captured bytes (replay
    /// of an old, once-valid update image).
    Replay(Vec<u8>),
}

impl Tamper {
    /// Applies the tamper to a full message, returning what the device
    /// actually receives.
    #[must_use]
    pub fn apply(&self, data: &[u8]) -> Vec<u8> {
        match self {
            Self::None => data.to_vec(),
            Self::FlipBit { offset } => {
                let mut out = data.to_vec();
                if let Some(byte) = out.get_mut(*offset) {
                    *byte ^= 1;
                }
                out
            }
            Self::Truncate { keep } => data[..(*keep).min(data.len())].to_vec(),
            Self::Replay(old) => old.clone(),
        }
    }
}

/// A mutation applied to the live frame sequence of a stepped session.
///
/// Frames are numbered 0-based in delivery order across the whole session
/// (manifest frames first, then payload frames), exactly as the device
/// radio sees them.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameTamper {
    /// Forward every frame faithfully.
    None,
    /// XOR one bit of frame `frame` (`bit` wraps around the frame length).
    Corrupt {
        /// Target frame index.
        frame: u64,
        /// Bit position to flip, modulo the frame's bit length.
        bit: u32,
    },
    /// Withhold frame `frame` and deliver it *after* its successor — an
    /// adjacent swap, the smallest possible reordering.
    Reorder {
        /// Target frame index.
        frame: u64,
    },
    /// Deliver frame `frame` twice back to back.
    Duplicate {
        /// Target frame index.
        frame: u64,
    },
    /// Insert a forged frame (same length, every byte `fill`) immediately
    /// before frame `frame`.
    Inject {
        /// Target frame index.
        frame: u64,
        /// Byte value the forged frame is filled with.
        fill: u8,
    },
    /// Drop frame `frame` entirely (the classic lossy-proxy attack, but
    /// aimed at one precise frame).
    Drop {
        /// Target frame index.
        frame: u64,
    },
    /// Substitute the entire resolved stream with a captured one — a
    /// replay of an older, once-valid release across versions (the
    /// downgrade attack the device token's freshness nonce exists to
    /// stop).
    ReplaceStream(SessionStream),
}

/// A compromised proxy interposed between a stepped session and its real
/// endpoints: forwards everything except the one mutation its
/// [`FrameTamper`] describes.
///
/// Because it implements [`SessionEndpoints`], it drives the *real*
/// agent/pipeline acceptance path through a push or pull
/// [`Session`](crate::session::Session) unchanged — the session machinery
/// cannot tell an honest proxy from this one, which is exactly the
/// paper's threat model.
#[derive(Debug)]
pub struct FrameAdversary<E> {
    inner: E,
    tamper: FrameTamper,
    next_frame: u64,
    held: Option<Vec<u8>>,
}

impl<E> FrameAdversary<E> {
    /// Wraps `inner`, applying `tamper` to the frame stream.
    #[must_use]
    pub fn new(inner: E, tamper: FrameTamper) -> Self {
        Self {
            inner,
            tamper,
            next_frame: 0,
            held: None,
        }
    }

    /// Frames that have passed through the adversary so far.
    #[must_use]
    pub fn frames_seen(&self) -> u64 {
        self.next_frame
    }

    /// Unwraps the inner endpoints.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: SessionEndpoints> SessionEndpoints for FrameAdversary<E> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        self.inner.request_token()
    }

    fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution {
        let resolved = self.inner.resolve_stream(token);
        if let FrameTamper::ReplaceStream(captured) = &self.tamper {
            // The proxy controls what it forwards: whatever the honest
            // path resolved, the device receives the captured stream.
            return StreamResolution::Stream(captured.clone());
        }
        resolved
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let index = self.next_frame;
        self.next_frame += 1;
        match &self.tamper {
            FrameTamper::Corrupt { frame, bit } if *frame == index => {
                let mut corrupted = chunk.to_vec();
                if !corrupted.is_empty() {
                    let bit = *bit as usize % (corrupted.len() * 8);
                    corrupted[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.deliver(&corrupted)
            }
            FrameTamper::Reorder { frame } if *frame == index => {
                // Withheld until the next frame goes out; if the session
                // ends first the frame is simply lost.
                self.held = Some(chunk.to_vec());
                Ok(AgentPhase::NeedMore)
            }
            FrameTamper::Duplicate { frame } if *frame == index => {
                self.inner.deliver(chunk)?;
                self.inner.deliver(chunk)
            }
            FrameTamper::Inject { frame, fill } if *frame == index => {
                let forged = vec![*fill; chunk.len().max(1)];
                self.inner.deliver(&forged)?;
                self.inner.deliver(chunk)
            }
            FrameTamper::Drop { frame } if *frame == index => Ok(AgentPhase::NeedMore),
            _ => {
                let phase = self.inner.deliver(chunk)?;
                match self.held.take() {
                    // The withheld frame follows its successor.
                    Some(held) => self.inner.deliver(&held),
                    None => Ok(phase),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        assert_eq!(Tamper::None.apply(b"payload"), b"payload");
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let out = Tamper::FlipBit { offset: 2 }.apply(b"abc");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], b'a');
        assert_eq!(out[1], b'b');
        assert_eq!(out[2], b'c' ^ 1);
    }

    #[test]
    fn flip_bit_out_of_range_is_noop() {
        assert_eq!(Tamper::FlipBit { offset: 99 }.apply(b"ab"), b"ab");
    }

    #[test]
    fn truncate_keeps_prefix() {
        assert_eq!(Tamper::Truncate { keep: 2 }.apply(b"abcdef"), b"ab");
        assert_eq!(Tamper::Truncate { keep: 100 }.apply(b"ab"), b"ab");
    }

    #[test]
    fn replay_substitutes_captured_bytes() {
        let captured = b"old image".to_vec();
        assert_eq!(
            Tamper::Replay(captured.clone()).apply(b"new image"),
            captured
        );
    }

    /// Records every frame the (stubbed) device receives.
    struct Recorder {
        frames: Vec<Vec<u8>>,
    }

    impl Recorder {
        fn new() -> Self {
            Self { frames: Vec::new() }
        }
    }

    impl SessionEndpoints for Recorder {
        fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
            Ok(DeviceToken {
                device_id: 1,
                nonce: 1,
                current_version: upkit_manifest::Version(1),
            })
        }
        fn resolve_stream(&mut self, _token: &DeviceToken) -> StreamResolution {
            StreamResolution::NoUpdate
        }
        fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
            self.frames.push(chunk.to_vec());
            Ok(AgentPhase::NeedMore)
        }
    }

    fn feed(tamper: FrameTamper, frames: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut adversary = FrameAdversary::new(Recorder::new(), tamper);
        for frame in frames {
            adversary.deliver(frame).unwrap();
        }
        assert_eq!(adversary.frames_seen(), frames.len() as u64);
        adversary.into_inner().frames
    }

    #[test]
    fn frame_none_forwards_faithfully() {
        let got = feed(FrameTamper::None, &[b"aa", b"bb", b"cc"]);
        assert_eq!(got, vec![b"aa".to_vec(), b"bb".to_vec(), b"cc".to_vec()]);
    }

    #[test]
    fn frame_corrupt_flips_exactly_one_bit_of_the_target() {
        let got = feed(FrameTamper::Corrupt { frame: 1, bit: 9 }, &[b"aa", b"bb"]);
        assert_eq!(got[0], b"aa");
        assert_eq!(got[1], [b'b', b'b' ^ 2]);
        // Bit positions wrap instead of missing the frame.
        let wrapped = feed(FrameTamper::Corrupt { frame: 0, bit: 16 }, &[b"aa"]);
        assert_eq!(wrapped[0], [b'a' ^ 1, b'a']);
    }

    #[test]
    fn frame_reorder_swaps_adjacent_frames() {
        let got = feed(FrameTamper::Reorder { frame: 1 }, &[b"aa", b"bb", b"cc"]);
        assert_eq!(got, vec![b"aa".to_vec(), b"cc".to_vec(), b"bb".to_vec()]);
    }

    #[test]
    fn frame_reorder_of_final_frame_loses_it() {
        let got = feed(FrameTamper::Reorder { frame: 2 }, &[b"aa", b"bb", b"cc"]);
        assert_eq!(got, vec![b"aa".to_vec(), b"bb".to_vec()]);
    }

    #[test]
    fn frame_duplicate_repeats_the_target() {
        let got = feed(FrameTamper::Duplicate { frame: 0 }, &[b"aa", b"bb"]);
        assert_eq!(got, vec![b"aa".to_vec(), b"aa".to_vec(), b"bb".to_vec()]);
    }

    #[test]
    fn frame_inject_inserts_a_forged_frame_before_the_target() {
        let got = feed(FrameTamper::Inject { frame: 1, fill: 0 }, &[b"aa", b"bb"]);
        assert_eq!(got, vec![b"aa".to_vec(), vec![0, 0], b"bb".to_vec()]);
    }

    #[test]
    fn frame_drop_omits_the_target() {
        let got = feed(FrameTamper::Drop { frame: 1 }, &[b"aa", b"bb", b"cc"]);
        assert_eq!(got, vec![b"aa".to_vec(), b"cc".to_vec()]);
    }

    #[test]
    fn replace_stream_substitutes_the_resolution() {
        let captured = SessionStream {
            manifest: b"old manifest".to_vec(),
            payload: b"old payload".to_vec(),
        };
        let mut adversary = FrameAdversary::new(
            Recorder::new(),
            FrameTamper::ReplaceStream(captured.clone()),
        );
        let token = adversary.request_token().unwrap();
        match adversary.resolve_stream(&token) {
            StreamResolution::Stream(stream) => assert_eq!(stream, captured),
            other => panic!("expected the captured stream, got {other:?}"),
        }
    }
}
