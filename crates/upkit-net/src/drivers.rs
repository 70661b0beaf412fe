//! End-to-end propagation drivers for the push and pull flows.
//!
//! Each driver executes the full Fig. 2 message sequence against a real
//! [`UpdateAgent`], moving the actual bytes chunk by chunk and charging
//! every exchange to a [`TransferAccounting`](crate::profiles::TransferAccounting)
//! so the simulator can convert
//! the session into time and energy. The drivers stop the moment the agent
//! rejects something — that early termination is precisely the byte/energy
//! saving UpKit's agent-side verification buys.
//!
//! Both are thin step-until-done wrappers over the resumable
//! [`crate::session`] machinery; `tests/session_regression.rs` pins their
//! [`SessionReport`]s.

use upkit_core::agent::{UpdateAgent, UpdatePlan};
use upkit_core::generation::UpdateServer;
use upkit_flash::MemoryLayout;

use crate::lossy::LossyLink;
use crate::profiles::LinkProfile;
use crate::proxy::{BorderRouter, Smartphone};
use crate::session::{
    PullEndpoints, PullSession, PushEndpoints, PushSession, RetryPolicy, Transport,
};

pub use crate::session::{SessionOutcome, SessionReport};

/// Drives a complete **push** update (Fig. 2's smartphone flow) over a
/// BLE-like link.
///
/// Sequence: token request/response → phone fetches from server → phone
/// pushes manifest → agent verifies (early-rejection point) → phone pushes
/// payload → agent verifies firmware.
///
/// Equivalent to stepping a [`PushSession`] over a reliable link to
/// completion.
pub fn run_push_session(
    server: &UpdateServer,
    phone: &mut Smartphone,
    agent: &mut UpdateAgent,
    layout: &mut MemoryLayout,
    plan: UpdatePlan,
    nonce: u32,
    link: &LinkProfile,
) -> SessionReport {
    let mut session = PushSession::new(LossyLink::reliable(*link), RetryPolicy::for_link(link), 0);
    let mut endpoints = PushEndpoints::new(server, phone, agent, layout, plan, nonce);
    session.run_to_completion(&mut endpoints)
}

/// Drives a complete **pull** update over a CoAP-blockwise-like link with a
/// border router in the path.
///
/// The device initiates everything: it sends its token with the request and
/// fetches the image block by block, each block a confirmed round trip.
///
/// Equivalent to stepping a [`PullSession`] over a reliable link to
/// completion.
pub fn run_pull_session(
    server: &UpdateServer,
    router: &BorderRouter,
    agent: &mut UpdateAgent,
    layout: &mut MemoryLayout,
    plan: UpdatePlan,
    nonce: u32,
    link: &LinkProfile,
) -> SessionReport {
    let mut session = PullSession::new(LossyLink::reliable(*link), RetryPolicy::for_link(link), 0);
    let mut endpoints = PullEndpoints::new(server, router, agent, layout, plan, nonce);
    session.run_to_completion(&mut endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tamper::Tamper;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use upkit_core::agent::{AgentConfig, AgentError};
    use upkit_core::generation::VendorServer;
    use upkit_core::image::FIRMWARE_OFFSET;
    use upkit_core::keys::TrustAnchors;
    use upkit_core::verifier::VerifyError;
    use upkit_crypto::backend::TinyCryptBackend;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
    use upkit_manifest::Version;

    const SLOT_SIZE: u32 = 4096 * 32;

    struct World {
        server: UpdateServer,
        agent: UpdateAgent,
        layout: MemoryLayout,
    }

    fn world(seed: u64, fw: Vec<u8>) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        server.publish(vendor.release(fw, Version(2), 0x100, 0xA));
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
        let layout = configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 256, 4096))),
            SLOT_SIZE,
        )
        .unwrap();
        let agent = UpdateAgent::new(
            Arc::new(TinyCryptBackend),
            anchors,
            AgentConfig {
                device_id: 0xD,
                app_id: 0xA,
                supports_differential: true,
                content_key: None,
            },
        );
        World {
            server,
            agent,
            layout,
        }
    }

    fn plan() -> UpdatePlan {
        UpdatePlan {
            target_slot: standard::SLOT_B,
            current_slot: standard::SLOT_A,
            installed_version: Version(1),
            installed_size: 0,
            allowed_link_offsets: vec![0x100],
            max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
        }
    }

    #[test]
    fn push_session_completes_and_accounts() {
        let mut w = world(150, vec![0x77; 50_000]);
        let mut phone = Smartphone::new();
        let link = LinkProfile::ble_gatt();
        let report = run_push_session(
            &w.server,
            &mut phone,
            &mut w.agent,
            &mut w.layout,
            plan(),
            42,
            &link,
        );
        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        assert!(report.accounting.bytes_to_device > 50_000);
        assert!(report.accounting.elapsed_micros > 0);
    }

    #[test]
    fn pull_session_completes_with_round_trips_per_block() {
        let mut w = world(151, vec![0x66; 20_000]);
        let link = LinkProfile::ieee802154_6lowpan();
        let report = run_pull_session(
            &w.server,
            &BorderRouter::new(),
            &mut w.agent,
            &mut w.layout,
            plan(),
            43,
            &link,
        );
        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        // Every block is confirmed: round trips ≈ chunks.
        assert!(report.accounting.round_trips >= report.accounting.chunks / 2);
    }

    #[test]
    fn tampered_manifest_is_rejected_before_payload_bytes_flow() {
        let mut w = world(152, vec![0x55; 40_000]);
        // Flip a bit inside the manifest region.
        let mut phone = Smartphone::compromised(Tamper::FlipBit { offset: 30 });
        let link = LinkProfile::ble_gatt();
        let report = run_push_session(
            &w.server,
            &mut phone,
            &mut w.agent,
            &mut w.layout,
            plan(),
            44,
            &link,
        );
        match report.outcome {
            SessionOutcome::RejectedAtManifest(_) => {}
            other => panic!("expected manifest rejection, got {other:?}"),
        }
        // Early rejection: only manifest-sized data ever hit the radio.
        assert!(
            report.accounting.bytes_to_device <= upkit_manifest::SIGNED_MANIFEST_LEN as u64,
            "{} bytes flowed",
            report.accounting.bytes_to_device
        );
    }

    #[test]
    fn tampered_firmware_is_rejected_before_reboot() {
        let mut w = world(153, vec![0x44; 30_000]);
        let mut phone = Smartphone::compromised(Tamper::FlipBit {
            offset: upkit_manifest::SIGNED_MANIFEST_LEN + 15_000,
        });
        let link = LinkProfile::ble_gatt();
        let report = run_push_session(
            &w.server,
            &mut phone,
            &mut w.agent,
            &mut w.layout,
            plan(),
            45,
            &link,
        );
        match report.outcome {
            SessionOutcome::RejectedAtFirmware(AgentError::Verify(VerifyError::DigestMismatch)) => {
            }
            other => panic!("expected firmware digest rejection, got {other:?}"),
        }
    }

    #[test]
    fn truncating_proxy_leaves_session_incomplete() {
        let mut w = world(154, vec![0x33; 10_000]);
        let mut phone = Smartphone::compromised(Tamper::Truncate {
            keep: upkit_manifest::SIGNED_MANIFEST_LEN + 2_000,
        });
        let link = LinkProfile::ble_gatt();
        let report = run_push_session(
            &w.server,
            &mut phone,
            &mut w.agent,
            &mut w.layout,
            plan(),
            46,
            &link,
        );
        assert!(matches!(report.outcome, SessionOutcome::Incomplete));
    }

    #[test]
    fn replayed_image_from_previous_request_is_rejected() {
        // Run one honest session; capture its image; replay it to a new
        // request with a fresh nonce. The update-server signature binds the
        // old nonce, so the agent must reject it at the manifest.
        let mut w = world(155, vec![0x22; 5_000]);
        let link = LinkProfile::ble_gatt();
        let mut phone = Smartphone::new();
        let report = run_push_session(
            &w.server,
            &mut phone,
            &mut w.agent,
            &mut w.layout,
            plan(),
            100,
            &link,
        );
        assert!(report.outcome.is_complete());
        let captured = phone.stored().unwrap().image.to_bytes();

        // Fresh device state for a second update attempt.
        let mut w2 = world(155, vec![0x22; 5_000]);
        let mut replaying_phone = Smartphone::compromised(Tamper::Replay(captured));
        let report = run_push_session(
            &w2.server,
            &mut replaying_phone,
            &mut w2.agent,
            &mut w2.layout,
            plan(),
            101, // different nonce than the captured image's 100
            &link,
        );
        match report.outcome {
            SessionOutcome::RejectedAtManifest(AgentError::Verify(VerifyError::WrongNonce)) => {}
            other => panic!("expected nonce rejection, got {other:?}"),
        }
    }

    #[test]
    fn no_update_available_short_circuits() {
        let mut w = world(156, vec![0x11; 1_000]);
        let mut phone = Smartphone::new();
        let link = LinkProfile::ble_gatt();
        let mut p = plan();
        p.installed_version = Version(2); // already newest
        let report = run_push_session(
            &w.server,
            &mut phone,
            &mut w.agent,
            &mut w.layout,
            p,
            47,
            &link,
        );
        assert!(matches!(report.outcome, SessionOutcome::NoUpdateAvailable));
        assert_eq!(report.accounting.bytes_to_device, 0);
    }

    #[test]
    fn differential_pull_transfers_fraction_of_image() {
        // Publish v1 and a similar v2; device at v1 pulls a delta.
        let mut rng = StdRng::seed_from_u64(157);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        let v1: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        let mut v2 = v1.clone();
        v2[1000..1050].fill(0xEE);
        server.publish(vendor.release(v1.clone(), Version(1), 0x100, 0xA));
        server.publish(vendor.release(v2.clone(), Version(2), 0x100, 0xA));
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
        let mut layout = configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 256, 4096))),
            SLOT_SIZE,
        )
        .unwrap();
        // v1 must be installed for the patch base.
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &v1)
            .unwrap();
        let mut agent = UpdateAgent::new(
            Arc::new(TinyCryptBackend),
            anchors,
            AgentConfig {
                device_id: 0xD,
                app_id: 0xA,
                supports_differential: true,
                content_key: None,
            },
        );
        let link = LinkProfile::ieee802154_6lowpan();
        let mut p = plan();
        p.installed_size = v1.len() as u32;
        let report = run_pull_session(
            &server,
            &BorderRouter::new(),
            &mut agent,
            &mut layout,
            p,
            48,
            &link,
        );
        assert!(report.outcome.is_complete(), "{:?}", report.outcome);
        assert!(
            report.accounting.bytes_to_device < v2.len() as u64 / 4,
            "delta transfer should be small: {}",
            report.accounting.bytes_to_device
        );
        // The reconstructed firmware is v2.
        let mut stored = vec![0u8; v2.len()];
        layout
            .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored)
            .unwrap();
        assert_eq!(stored, v2);
    }
}
