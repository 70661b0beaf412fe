//! Session-layer adapter for the store-and-reboot baselines.
//!
//! [`UnverifiedEndpoints`] implements [`upkit_net::SessionEndpoints`], so
//! the mcumgr- and LwM2M-like [`UnverifiedAgent`] runs on the *same*
//! resumable push and pull [`Session`](upkit_net::Session) as UpKit —
//! identical link charging, loss sampling, and retry policy. What differs
//! is only what the paper's comparison is about: the agent verifies
//! nothing, so sessions that UpKit would reject at the manifest complete
//! happily here.
//!
//! Neither baseline protocol has UpKit's device-token handshake, so
//! `request_token` fabricates a token advertising version 0 (both
//! baselines always take the full image) and uses the slot of the
//! handshake to run the agent's `begin` (slot erase) — the operation each
//! real protocol performs before its upload/download starts.

use upkit_core::agent::{AgentError, AgentPhase, AgentState};
use upkit_core::verifier::VerifyError;
use upkit_flash::MemoryLayout;
use upkit_manifest::{DeviceToken, Version, SIGNED_MANIFEST_LEN};
use upkit_net::{SessionEndpoints, SessionStream, StreamResolution};

use crate::unverified::{UnverifiedAgent, UnverifiedError};

fn map_error(e: UnverifiedError) -> AgentError {
    match e {
        UnverifiedError::Layout(e) => AgentError::Layout(e),
        // An unparseable header is the closest thing these agents have to
        // a manifest failure.
        UnverifiedError::Framing(_) => AgentError::Verify(VerifyError::VendorSignature),
        UnverifiedError::TooMuchData => AgentError::TooMuchData,
        UnverifiedError::WrongState => AgentError::WrongState(AgentState::Waiting),
        // DTLS catching replayed traffic is a freshness violation — the
        // same property UpKit's nonce check provides end to end.
        UnverifiedError::TransportReplayDetected => AgentError::Verify(VerifyError::WrongNonce),
    }
}

/// [`SessionEndpoints`] adapter running an [`UnverifiedAgent`] under a
/// push (mcumgr) or pull (LwM2M) session: the proxy forwards `wire` (a
/// serialized update image) and the agent stores it without verification.
pub struct UnverifiedEndpoints<'a> {
    agent: &'a mut UnverifiedAgent,
    layout: &'a mut MemoryLayout,
    wire: Option<Vec<u8>>,
    device_id: u32,
    nonce: u32,
    fresh_session: bool,
    delivered: usize,
}

impl<'a> UnverifiedEndpoints<'a> {
    /// `wire` is what the proxy will forward — `None` models a server
    /// with nothing newer, an empty vector a broken proxy.
    /// `fresh_session` is handed to the simulated DTLS layer on every
    /// chunk, exactly as [`UnverifiedAgent::push_data`] takes it: `false`
    /// when an intermediary replays the bytes.
    pub fn new(
        agent: &'a mut UnverifiedAgent,
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

impl SessionEndpoints for UnverifiedEndpoints<'_> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        self.agent.begin(self.layout).map_err(map_error)?;
        Ok(DeviceToken {
            device_id: self.device_id,
            nonce: self.nonce,
            // No differential support in either baseline: always the full
            // image.
            current_version: Version(0),
        })
    }

    fn resolve_stream(&mut self, _token: &DeviceToken) -> StreamResolution {
        match self.wire.take() {
            None => StreamResolution::NoUpdate,
            Some(wire) if wire.is_empty() => StreamResolution::ProxyEmpty,
            Some(wire) => StreamResolution::Stream(SessionStream::split(wire)),
        }
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let done = self
            .agent
            .push_data(self.layout, chunk, self.fresh_session)
            .map_err(map_error)?;
        self.delivered += chunk.len();
        // The agent accepts any parseable header, so the manifest region
        // boundary *is* manifest acceptance.
        Ok(if done {
            AgentPhase::Complete
        } else if self.delivered == SIGNED_MANIFEST_LEN {
            AgentPhase::ManifestAccepted
        } else {
            AgentPhase::NeedMore
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unverified::tests::{image, layout};
    use upkit_core::image::FIRMWARE_OFFSET;
    use upkit_crypto::sha256::sha256;
    use upkit_flash::standard;
    use upkit_net::{
        LinkProfile, LossyLink, RetryPolicy, Session, SessionEventKind, SessionOutcome,
        SessionReport, Step, TransferAccounting,
    };

    #[test]
    fn mcumgr_session_stores_image_without_verification() {
        let mut layout = layout();
        let fw = vec![0x5A; 10_000];
        let mut bytes = image(170, fw.clone(), 1);
        let len = bytes.len();
        bytes[len - 10] ^= 0xFF; // corrupt: the agent will not notice
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ble_gatt();
        let mut session = Session::push(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints =
            UnverifiedEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, true);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::Complete);
        assert!(agent.is_done(), "tampered image accepted: no verification");
        assert!(report.accounting.bytes_to_device > fw.len() as u64);
    }

    #[test]
    fn mcumgr_session_survives_a_lossy_link() {
        let mut layout = layout();
        let bytes = image(171, vec![0x33; 6_000], 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ble_gatt();
        let mut session = Session::push(
            LossyLink::bernoulli(link, 0.15, 0xBA5E),
            RetryPolicy::for_link(&link),
            7,
        );
        let mut endpoints =
            UnverifiedEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, true);
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
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ble_gatt();
        let mut session = Session::push(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints = UnverifiedEndpoints::new(&mut agent, &mut layout, None, 1, 1, true);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::NoUpdateAvailable);

        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let mut session = Session::push(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints =
            UnverifiedEndpoints::new(&mut agent, &mut layout, Some(Vec::new()), 1, 1, true);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::ProxyEmpty);
    }

    #[test]
    fn lwm2m_session_downloads_and_stores() {
        let mut layout = layout();
        let fw = vec![0xAA; 3_000];
        let bytes = image(172, fw.clone(), 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session = Session::pull(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints =
            UnverifiedEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, true);
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
        let bytes = image(173, vec![0xBB; 1_000], 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, true);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session = Session::pull(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints =
            UnverifiedEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, false);
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
        let bytes = image(174, vec![0xCC; 1_000], 1);
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session = Session::pull(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        let mut endpoints =
            UnverifiedEndpoints::new(&mut agent, &mut layout, Some(bytes), 1, 1, false);
        let report = session.run_to_completion(&mut endpoints);
        assert_eq!(report.outcome, SessionOutcome::Complete);
    }

    // The two pins below freeze one seeded lossy session per baseline
    // role: the session report, the flash work, and the stored firmware.
    // The values were captured when mcumgr and LwM2M still had an agent
    // and adapter each, so they show that the one agent stores what each
    // stored, charge for charge.

    const PINNED_FIRMWARE_SHA256: &str =
        "680a1da11e812307cb541e5d54b09fa4570354aac2582514fd4c113ea353b25d";

    fn pinned_firmware() -> Vec<u8> {
        (0..4_000u32).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Bytes written, sectors erased, and the SHA-256 of the firmware
    /// region of slot B.
    fn flash_work_and_digest(layout: &mut MemoryLayout) -> (u64, u64, String) {
        let stats = layout.total_stats();
        let mut stored = vec![0u8; pinned_firmware().len()];
        layout
            .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored)
            .unwrap();
        let digest = sha256(&stored).iter().map(|b| format!("{b:02x}")).collect();
        (stats.bytes_written, stats.sectors_erased, digest)
    }

    #[test]
    fn mcumgr_role_push_session_is_pinned() {
        let mut layout = layout();
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, false);
        let link = LinkProfile::ble_gatt();
        let mut session = Session::push(
            LossyLink::bernoulli(link, 0.10, 0x5E55),
            RetryPolicy::for_link(&link),
            0,
        );
        let wire = Some(image(175, pinned_firmware(), 1));
        let mut endpoints = UnverifiedEndpoints::new(&mut agent, &mut layout, wire, 1, 1, true);
        assert_eq!(
            session.run_to_completion(&mut endpoints),
            SessionReport {
                outcome: SessionOutcome::Complete,
                accounting: TransferAccounting {
                    bytes_to_device: 4_432,
                    bytes_from_device: 10,
                    chunks: 20,
                    round_trips: 2,
                    elapsed_micros: 2_066_800,
                },
            }
        );
        assert_eq!(
            flash_work_and_digest(&mut layout),
            (4_188, 16, PINNED_FIRMWARE_SHA256.to_owned())
        );
    }

    #[test]
    fn lwm2m_role_pull_session_is_pinned() {
        let mut layout = layout();
        let mut agent = UnverifiedAgent::new(standard::SLOT_B, true);
        let link = LinkProfile::ieee802154_6lowpan();
        let mut session = Session::pull(
            LossyLink::bernoulli(link, 0.10, 0x5E56),
            RetryPolicy::for_link(&link),
            0,
        );
        let wire = Some(image(176, pinned_firmware(), 1));
        let mut endpoints = UnverifiedEndpoints::new(&mut agent, &mut layout, wire, 1, 1, true);
        assert_eq!(
            session.run_to_completion(&mut endpoints),
            SessionReport {
                outcome: SessionOutcome::Complete,
                accounting: TransferAccounting {
                    bytes_to_device: 4_572,
                    bytes_from_device: 10,
                    chunks: 73,
                    round_trips: 73,
                    elapsed_micros: 1_848_560,
                },
            }
        );
        assert_eq!(
            flash_work_and_digest(&mut layout),
            (4_188, 16, PINNED_FIRMWARE_SHA256.to_owned())
        );
    }
}
