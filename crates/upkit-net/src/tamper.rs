//! The one compromised proxy on the propagation path.
//!
//! UpKit's threat model (Sect. III) assumes the smartphone or gateway may
//! be compromised: it can drop, corrupt, truncate, or replay data, but —
//! because it holds no signing keys — it can never *forge* an acceptable
//! update. [`FrameAdversary`] is that attacker, and the only one: it sits
//! *inside* a live stepped session as a [`SessionEndpoints`] wrapper
//! around any endpoints — a [`forward`](crate::proxy::forward)ing agent
//! path, a warmed [`CachingProxy`](crate::proxy::CachingProxy), a
//! baseline — and applies one [`FrameTamper`]: a bit flip, truncation or
//! substitution of the whole resolved stream (a cross-version replay), or
//! one link frame corrupted, reordered, duplicated, injected or dropped
//! in flight.

use upkit_core::agent::{AgentError, AgentPhase};
use upkit_manifest::DeviceToken;

use crate::session::{SessionEndpoints, SessionStream, StreamResolution};

/// What a compromised proxy does to one stepped session.
///
/// The stream variants act on the resolved stream before any frame flows;
/// their offsets address manifest ‖ payload as one byte string, and they
/// leave [`StreamResolution::NoUpdate`] and
/// [`StreamResolution::ProxyEmpty`] alone. The frame variants number
/// frames 0-based in delivery order across the whole session (manifest
/// frames first, then payload frames), exactly as the device radio sees
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameTamper {
    /// Forward every frame faithfully (an honest proxy).
    None,
    /// Flip the lowest bit of the stream byte at `offset` (transmission
    /// corruption or malice); an offset past the end changes nothing.
    FlipBit {
        /// Byte offset into manifest ‖ payload.
        offset: usize,
    },
    /// Forward only the first `keep` bytes of the stream, then stop (drop
    /// attack).
    Truncate {
        /// Number of leading bytes of manifest ‖ payload to forward.
        keep: usize,
    },
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
/// [`FrameTamper`] describes ([`FrameTamper::None`] is an honest proxy).
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
        let mut resolved = self.inner.resolve_stream(token);
        let stream = match &mut resolved {
            StreamResolution::Stream(stream) | StreamResolution::Deferred { stream, .. } => {
                Some(stream)
            }
            StreamResolution::NoUpdate | StreamResolution::ProxyEmpty => None,
        };
        match (&self.tamper, stream) {
            // The proxy controls what it forwards: whatever the honest
            // path resolved, the device receives the captured stream.
            (FrameTamper::ReplaceStream(captured), _) => {
                return StreamResolution::Stream(captured.clone());
            }
            (FrameTamper::FlipBit { offset }, Some(stream)) => {
                let byte = match offset.checked_sub(stream.manifest.len()) {
                    None => stream.manifest.get_mut(*offset),
                    Some(at) => stream.payload.get_mut(at),
                };
                if let Some(byte) = byte {
                    *byte ^= 1;
                }
            }
            (FrameTamper::Truncate { keep }, Some(stream)) => {
                stream.manifest.truncate(*keep);
                stream
                    .payload
                    .truncate(keep.saturating_sub(stream.manifest.len()));
            }
            _ => {}
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

    /// Records every frame the (stubbed) device receives and resolves
    /// `stream`, when there is one, as the update.
    #[derive(Default)]
    struct Recorder {
        frames: Vec<Vec<u8>>,
        stream: Option<SessionStream>,
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
            self.stream
                .take()
                .map_or(StreamResolution::NoUpdate, StreamResolution::Stream)
        }
        fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
            self.frames.push(chunk.to_vec());
            Ok(AgentPhase::NeedMore)
        }
    }

    /// What a device behind `tamper` receives when the honest path
    /// resolves `stream` (`None`: no update).
    fn resolve(tamper: FrameTamper, stream: Option<SessionStream>) -> StreamResolution {
        let recorder = Recorder {
            stream,
            ..Recorder::default()
        };
        let mut adversary = FrameAdversary::new(recorder, tamper);
        let token = adversary.request_token().unwrap();
        adversary.resolve_stream(&token)
    }

    fn stream(manifest: &[u8], payload: &[u8]) -> SessionStream {
        SessionStream {
            manifest: manifest.to_vec(),
            payload: payload.to_vec(),
        }
    }

    /// The stream `ab` ‖ `cde` after `tamper`.
    fn tampered(tamper: FrameTamper) -> SessionStream {
        match resolve(tamper, Some(stream(b"ab", b"cde"))) {
            StreamResolution::Stream(stream) => stream,
            other => panic!("expected a stream, got {other:?}"),
        }
    }

    #[test]
    fn none_is_identity() {
        assert_eq!(tampered(FrameTamper::None), stream(b"ab", b"cde"));
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let flip = |offset| tampered(FrameTamper::FlipBit { offset });
        assert_eq!(flip(1), stream(&[b'a', b'b' ^ 1], b"cde"));
        assert_eq!(flip(4), stream(b"ab", &[b'c', b'd', b'e' ^ 1]));
    }

    #[test]
    fn flip_bit_out_of_range_is_noop() {
        let flipped = tampered(FrameTamper::FlipBit { offset: 99 });
        assert_eq!(flipped, stream(b"ab", b"cde"));
    }

    #[test]
    fn truncate_keeps_prefix() {
        let cut = |keep| tampered(FrameTamper::Truncate { keep });
        assert_eq!(cut(1), stream(b"a", b""));
        assert_eq!(cut(3), stream(b"ab", b"c"));
        assert_eq!(cut(100), stream(b"ab", b"cde"));
    }

    #[test]
    fn stream_tampers_leave_no_update_alone() {
        for tamper in [
            FrameTamper::FlipBit { offset: 0 },
            FrameTamper::Truncate { keep: 0 },
        ] {
            assert!(matches!(resolve(tamper, None), StreamResolution::NoUpdate));
        }
    }

    fn feed(tamper: FrameTamper, frames: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut adversary = FrameAdversary::new(Recorder::default(), tamper);
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
            Recorder::default(),
            FrameTamper::ReplaceStream(captured.clone()),
        );
        let token = adversary.request_token().unwrap();
        match adversary.resolve_stream(&token) {
            StreamResolution::Stream(stream) => assert_eq!(stream, captured),
            other => panic!("expected the captured stream, got {other:?}"),
        }
    }
}
