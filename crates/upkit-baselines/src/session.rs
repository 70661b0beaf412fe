//! Session-layer adapters for the baseline agents.
//!
//! [`McumgrEndpoints`] and [`Lwm2mEndpoints`] implement
//! [`upkit_net::SessionEndpoints`], so the mcumgr- and LwM2M-like agents
//! run on the *same* resumable [`PushSession`](upkit_net::PushSession) /
//! [`PullSession`](upkit_net::PullSession) state machines as UpKit —
//! identical link charging, loss sampling, and retry policy. What differs
//! is only what the paper's comparison is about: these agents verify
//! nothing, so sessions that UpKit would reject at the manifest complete
//! happily here.
//!
//! Neither baseline protocol has UpKit's device-token handshake, so
//! `request_token` fabricates a token advertising version 0 (both
//! baselines always take the full image) and uses the slot of the
//! handshake to run the agent's `begin` (slot erase) — the operation each
//! real protocol performs before its upload/download starts.

use upkit_core::agent::{AgentError, AgentPhase, AgentState};
use upkit_flash::MemoryLayout;
use upkit_manifest::{DeviceToken, Version, SIGNED_MANIFEST_LEN};
use upkit_net::{SessionEndpoints, SessionStream, StreamResolution};

use crate::lwm2m::{Lwm2mAgent, Lwm2mError};
use crate::mcumgr::{McumgrAgent, McumgrError};

fn split_stream(wire: Vec<u8>) -> StreamResolution {
    if wire.is_empty() {
        return StreamResolution::ProxyEmpty;
    }
    StreamResolution::Stream(SessionStream::split(wire))
}

/// Phase reported to the session after a successful baseline delivery:
/// the baselines accept any parseable header, so the manifest region
/// boundary *is* manifest acceptance.
fn phase_after(done: bool, delivered: usize) -> AgentPhase {
    if done {
        AgentPhase::Complete
    } else if delivered == SIGNED_MANIFEST_LEN {
        AgentPhase::ManifestAccepted
    } else {
        AgentPhase::NeedMore
    }
}

fn map_mcumgr(e: McumgrError) -> AgentError {
    match e {
        McumgrError::Layout(e) => AgentError::Layout(e),
        // An unparseable header is the closest thing mcumgr has to a
        // manifest failure.
        McumgrError::Framing(_) => {
            AgentError::Verify(upkit_core::verifier::VerifyError::VendorSignature)
        }
        McumgrError::TooMuchData => AgentError::TooMuchData,
        McumgrError::WrongState => AgentError::WrongState(AgentState::Waiting),
    }
}

fn map_lwm2m(e: Lwm2mError) -> AgentError {
    match e {
        Lwm2mError::Layout(e) => AgentError::Layout(e),
        Lwm2mError::Framing(_) => {
            AgentError::Verify(upkit_core::verifier::VerifyError::VendorSignature)
        }
        Lwm2mError::TooMuchData => AgentError::TooMuchData,
        Lwm2mError::WrongState => AgentError::WrongState(AgentState::Waiting),
        // DTLS catching replayed traffic is a freshness violation — the
        // same property UpKit's nonce check provides end to end.
        Lwm2mError::TransportReplayDetected => {
            AgentError::Verify(upkit_core::verifier::VerifyError::WrongNonce)
        }
    }
}

/// [`SessionEndpoints`] adapter running a [`McumgrAgent`] under a push
/// session: the smartphone streams `wire` (a serialized update image) and
/// the agent stores it without verification.
pub struct McumgrEndpoints<'a> {
    agent: &'a mut McumgrAgent,
    layout: &'a mut MemoryLayout,
    wire: Option<Vec<u8>>,
    device_id: u32,
    nonce: u32,
    delivered: usize,
}

impl<'a> McumgrEndpoints<'a> {
    /// `wire` is what the proxy will forward — `None` models a server
    /// with nothing newer, an empty vector a broken proxy.
    pub fn new(
        agent: &'a mut McumgrAgent,
        layout: &'a mut MemoryLayout,
        wire: Option<Vec<u8>>,
        device_id: u32,
        nonce: u32,
    ) -> Self {
        Self {
            agent,
            layout,
            wire,
            device_id,
            nonce,
            delivered: 0,
        }
    }
}

impl SessionEndpoints for McumgrEndpoints<'_> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        self.agent.begin(self.layout).map_err(map_mcumgr)?;
        Ok(DeviceToken {
            device_id: self.device_id,
            nonce: self.nonce,
            // mcumgr has no differential support: always the full image.
            current_version: Version(0),
        })
    }

    fn resolve_stream(&mut self, _token: &DeviceToken) -> StreamResolution {
        match self.wire.take() {
            None => StreamResolution::NoUpdate,
            Some(wire) => split_stream(wire),
        }
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let done = self
            .agent
            .push_data(self.layout, chunk)
            .map_err(map_mcumgr)?;
        self.delivered += chunk.len();
        Ok(phase_after(done, self.delivered))
    }
}

/// [`SessionEndpoints`] adapter running a [`Lwm2mAgent`] under a pull
/// session. `fresh_session` is handed to the simulated DTLS layer on
/// every block, exactly as [`Lwm2mAgent::push_data`] takes it.
pub struct Lwm2mEndpoints<'a> {
    agent: &'a mut Lwm2mAgent,
    layout: &'a mut MemoryLayout,
    wire: Option<Vec<u8>>,
    device_id: u32,
    nonce: u32,
    fresh_session: bool,
    delivered: usize,
}

impl<'a> Lwm2mEndpoints<'a> {
    /// `wire` as in [`McumgrEndpoints::new`]; `fresh_session` is `false`
    /// when an intermediary replays the bytes.
    pub fn new(
        agent: &'a mut Lwm2mAgent,
        layout: &'a mut MemoryLayout,
        wire: Option<Vec<u8>>,
        device_id: u32,
        nonce: u32,
        fresh_session: bool,
    ) -> Self {
        Self {
            agent,
            layout,
            wire,
            device_id,
            nonce,
            fresh_session,
            delivered: 0,
        }
    }
}

impl SessionEndpoints for Lwm2mEndpoints<'_> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        self.agent.begin(self.layout).map_err(map_lwm2m)?;
        Ok(DeviceToken {
            device_id: self.device_id,
            nonce: self.nonce,
            current_version: Version(0),
        })
    }

    fn resolve_stream(&mut self, _token: &DeviceToken) -> StreamResolution {
        match self.wire.take() {
            None => StreamResolution::NoUpdate,
            Some(wire) => split_stream(wire),
        }
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let done = self
            .agent
            .push_data(self.layout, chunk, self.fresh_session)
            .map_err(map_lwm2m)?;
        self.delivered += chunk.len();
        Ok(phase_after(done, self.delivered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_core::generation::{UpdateServer, VendorServer};
    use upkit_core::image::FIRMWARE_OFFSET;
    use upkit_core::verifier::VerifyError;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
    use upkit_net::{
        LinkProfile, LossyLink, PullSession, PushSession, RetryPolicy, SessionEventKind,
        SessionOutcome, Step, Transport,
    };

    fn layout() -> MemoryLayout {
        configuration_a(
            Box::new(SimFlash::new(FlashGeometry {
                size: 4096 * 64,
                sector_size: 4096,
                read_micros_per_byte: 0,
                write_micros_per_byte: 0,
                erase_micros_per_sector: 0,
            })),
            4096 * 16,
        )
        .unwrap()
    }

    fn wire(seed: u64, fw: Vec<u8>) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        server.publish(vendor.release(fw, Version(2), 0, 0xA));
        server
            .prepare_update(&DeviceToken {
                device_id: 1,
                nonce: 1,
                current_version: Version(0),
            })
            .unwrap()
            .image
            .to_bytes()
    }

    #[test]
    fn mcumgr_session_stores_image_without_verification() {
        let mut layout = layout();
        let fw = vec![0x5A; 10_000];
        let mut bytes = wire(170, fw.clone());
        let len = bytes.len();
        bytes[len - 10] ^= 0xFF; // corrupt: the agent will not notice
        let mut agent = McumgrAgent::new(standard::SLOT_B);
        let link = LinkProfile::ble_gatt();
        let mut session =
            PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = McumgrEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::Complete);
        assert!(agent.is_done(), "tampered image accepted: no verification");
        assert!(report.accounting.bytes_to_device > fw.len() as u64);
    }

    #[test]
    fn mcumgr_session_survives_a_lossy_link() {
        let mut layout = layout();
        let bytes = wire(171, vec![0x33; 6_000]);
        let mut agent = McumgrAgent::new(standard::SLOT_B);
        let link = LinkProfile::ble_gatt();
        let mut session = PushSession::new(
            LossyLink::bernoulli(link, 0.15, 0xBA5E),
            RetryPolicy::for_link(&link),
            7,
        );
        let mut endpoints = McumgrEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1);
        let mut losses = 0u32;
        let report = loop {
            match session.step(&mut endpoints) {
                Step::Progress(event) => {
                    if matches!(event.kind, SessionEventKind::ChunkLost { .. }) {
                        losses += 1;
                    }
                }
                Step::Done(report) => break report,
            }
        };
        assert_eq!(report.outcome, SessionOutcome::Complete);
        assert!(losses > 0, "expected retransmissions at 15 % loss");
    }

    #[test]
    fn mcumgr_session_reports_no_update_and_proxy_empty() {
        let mut layout = layout();
        let mut agent = McumgrAgent::new(standard::SLOT_B);
        let link = LinkProfile::ble_gatt();
        let mut session =
            PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = McumgrEndpoints::new(&mut agent, &mut layout, None, 1, 1);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::NoUpdateAvailable);

        let mut agent = McumgrAgent::new(standard::SLOT_B);
        let mut session =
            PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = McumgrEndpoints::new(&mut agent, &mut layout, Some(Vec::new()), 1, 1);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::ProxyEmpty);
    }

    #[test]
    fn lwm2m_session_downloads_and_stores() {
        let mut layout = layout();
        let fw = vec![0xAA; 3_000];
        let bytes = wire(172, fw.clone());
        let mut agent = Lwm2mAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session =
            PullSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = Lwm2mEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, true);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::Complete);
        let mut stored = vec![0u8; fw.len()];
        layout
            .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored)
            .unwrap();
        assert_eq!(stored, fw);
    }

    #[test]
    fn lwm2m_end_to_end_session_rejects_replay() {
        let mut layout = layout();
        let bytes = wire(173, vec![0xBB; 1_000]);
        let mut agent = Lwm2mAgent::new(standard::SLOT_B, true);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session =
            PullSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = Lwm2mEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, false);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(
            report.outcome,
            SessionOutcome::RejectedAtManifest(AgentError::Verify(VerifyError::WrongNonce))
        );
    }

    #[test]
    fn lwm2m_proxied_session_accepts_replay() {
        // The paper's architectural point, now on session machinery: a
        // proxy-terminated DTLS channel lets replayed bytes complete.
        let mut layout = layout();
        let bytes = wire(174, vec![0xCC; 1_000]);
        let mut agent = Lwm2mAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session =
            PullSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = Lwm2mEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, false);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::Complete);
    }
}
