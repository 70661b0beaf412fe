//! Security integration tests: the attack matrix the paper's design
//! motivates, run against both UpKit and the baselines so the comparison
//! is explicit — the same attack bytes, different outcomes.

use std::sync::Arc;

use rand::SeedableRng;
use upkit::baselines::{McubootBootloader, McubootConfig, McubootOutcome, UnverifiedAgent};
use upkit::core::agent::{AgentConfig, AgentError, AgentPhase, UpdateAgent, UpdatePlan};
use upkit::core::generation::{UpdateServer, VendorServer};
use upkit::core::image::FIRMWARE_OFFSET;
use upkit::core::keys::{KeyAnchor, TrustAnchors};
use upkit::core::verifier::VerifyError;
use upkit::crypto::backend::TinyCryptBackend;
use upkit::crypto::ecdsa::SigningKey;
use upkit::flash::{
    configuration_a, configuration_b, standard, FlashGeometry, MemoryLayout, SimFlash,
};
use upkit::manifest::{DeviceToken, Version};

const SLOT_SIZE: u32 = 4096 * 12;
const DEV: u32 = 0xD00D;
const APP: u32 = 0xA;

struct World {
    vendor: VendorServer,
    server: UpdateServer,
    anchors: TrustAnchors,
}

fn world(seed: u64, firmware: Vec<u8>, version: u16) -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    server.publish(vendor.release(firmware, Version(version), 0, APP));
    World {
        vendor,
        server,
        anchors,
    }
}

fn fresh_device(w: &World) -> (MemoryLayout, UpdateAgent) {
    let layout = configuration_a(
        Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
        SLOT_SIZE,
    )
    .unwrap();
    let agent = UpdateAgent::new(
        Arc::new(TinyCryptBackend),
        w.anchors,
        AgentConfig {
            device_id: DEV,
            app_id: APP,
            supports_differential: true,
            content_key: None,
        },
    );
    (layout, agent)
}

fn plan(installed: u16) -> UpdatePlan {
    UpdatePlan {
        target_slot: standard::SLOT_B,
        current_slot: standard::SLOT_A,
        installed_version: Version(installed),
        installed_size: 0,
        allowed_link_offsets: vec![0],
        max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
    }
}

fn feed(
    agent: &mut UpdateAgent,
    layout: &mut MemoryLayout,
    bytes: &[u8],
) -> Result<AgentPhase, AgentError> {
    let mut last = AgentPhase::NeedMore;
    for chunk in bytes.chunks(244) {
        last = agent.push_data(layout, chunk)?;
    }
    Ok(last)
}

#[test]
fn replay_rejected_by_upkit_accepted_by_mcumgr() {
    let w = world(1, vec![0x11; 8_000], 2);
    // Capture a legitimately-signed image for nonce 100.
    let captured = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 100,
            current_version: Version(0),
        })
        .unwrap()
        .image
        .to_bytes();

    // UpKit: a new request (nonce 200) rejects the captured image.
    let (mut layout, mut agent) = fresh_device(&w);
    agent
        .request_device_token(&mut layout, plan(1), 200)
        .unwrap();
    let err = feed(&mut agent, &mut layout, &captured).unwrap_err();
    assert!(matches!(err, AgentError::Verify(VerifyError::WrongNonce)));

    // mcumgr: stores the replay happily.
    let mut layout = configuration_a(
        Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
        SLOT_SIZE,
    )
    .unwrap();
    let mut mcumgr = UnverifiedAgent::new(standard::SLOT_B, false);
    mcumgr.begin(&mut layout).unwrap();
    let mut done = false;
    for chunk in captured.chunks(244) {
        done = mcumgr.push_data(&mut layout, chunk, false).unwrap();
    }
    assert!(done, "mcumgr accepted the replayed image");
}

#[test]
fn downgrade_rejected_by_upkit_accepted_by_mcuboot() {
    // Server only has v2; device runs v5 — v2 is a downgrade.
    let w = world(2, vec![0x22; 8_000], 2);
    let image = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 7,
            current_version: Version(0),
        })
        .unwrap()
        .image;

    // UpKit agent at v5 rejects v2.
    let (mut layout, mut agent) = fresh_device(&w);
    agent.request_device_token(&mut layout, plan(5), 7).unwrap();
    let err = feed(&mut agent, &mut layout, &image.to_bytes()).unwrap_err();
    assert!(matches!(err, AgentError::Verify(VerifyError::StaleVersion)));

    // mcuboot (default config): swaps the valid-but-old image in.
    let mut layout = configuration_b(
        Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
        None,
        SLOT_SIZE,
    )
    .unwrap();
    // Install "v5" in primary, stage the v2 image.
    install_raw(&mut layout, standard::SLOT_A, &w, 5, &vec![0x55; 4_000]);
    layout.erase_slot(standard::SLOT_B).unwrap();
    upkit::core::image::write_manifest(&mut layout, standard::SLOT_B, &image.signed_manifest)
        .unwrap();
    layout
        .write_slot(standard::SLOT_B, FIRMWARE_OFFSET, &image.payload)
        .unwrap();
    let mcuboot = McubootBootloader::new(
        Arc::new(TinyCryptBackend),
        McubootConfig {
            primary: standard::SLOT_A,
            staging: standard::SLOT_B,
            vendor_key: KeyAnchor::inline(&w.vendor.verifying_key()),
            downgrade_prevention: false,
        },
    );
    assert_eq!(
        mcuboot.boot(&mut layout).unwrap(),
        McubootOutcome::SwappedNewImage {
            version: Version(2)
        },
        "mcuboot installed the downgrade"
    );
}

#[test]
fn cross_device_image_rejected() {
    let w = world(3, vec![0x33; 6_000], 2);
    // Image prepared for a *different* device id.
    let foreign = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV + 1,
            nonce: 50,
            current_version: Version(0),
        })
        .unwrap()
        .image
        .to_bytes();
    let (mut layout, mut agent) = fresh_device(&w);
    agent
        .request_device_token(&mut layout, plan(1), 50)
        .unwrap();
    let err = feed(&mut agent, &mut layout, &foreign).unwrap_err();
    assert!(matches!(err, AgentError::Verify(VerifyError::WrongDevice)));
}

#[test]
fn wrong_app_image_rejected() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    // Release built for a different product (app id APP+1).
    server.publish(vendor.release(vec![0x44; 6_000], Version(2), 0, APP + 1));
    let w = World {
        anchors: TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key()),
        vendor,
        server,
    };
    let image = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 9,
            current_version: Version(0),
        })
        .unwrap()
        .image
        .to_bytes();
    let (mut layout, mut agent) = fresh_device(&w);
    agent.request_device_token(&mut layout, plan(1), 9).unwrap();
    let err = feed(&mut agent, &mut layout, &image).unwrap_err();
    assert!(matches!(err, AgentError::Verify(VerifyError::WrongAppId)));
}

#[test]
fn fully_forged_image_rejected_even_with_valid_structure() {
    // Attacker builds a structurally perfect image signed with their own
    // keys: rejected on the vendor signature.
    let legit = world(5, vec![0x55; 6_000], 2);
    let attacker = world(6, vec![0x66; 6_000], 3);
    let forged = attacker
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 77,
            current_version: Version(0),
        })
        .unwrap()
        .image
        .to_bytes();
    let (mut layout, mut agent) = fresh_device(&legit);
    agent
        .request_device_token(&mut layout, plan(1), 77)
        .unwrap();
    let err = feed(&mut agent, &mut layout, &forged).unwrap_err();
    assert!(matches!(
        err,
        AgentError::Verify(VerifyError::VendorSignature | VerifyError::ServerSignature)
    ));
}

#[test]
fn compromised_update_server_cannot_forge_firmware() {
    // Double-signature property (i): even with the update-server key, an
    // attacker cannot produce acceptable firmware — the vendor signature
    // covers the digest.
    let w = world(7, vec![0x77; 6_000], 2);
    let legit = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 11,
            current_version: Version(0),
        })
        .unwrap()
        .image;

    // "Stolen server key": re-sign a manifest whose digest points at
    // attacker firmware, keeping the legit vendor signature.
    let mut evil_manifest = legit.signed_manifest.manifest;
    let evil_payload = vec![0xEE; evil_manifest.size as usize];
    evil_manifest.digest = upkit::crypto::sha256::sha256(&evil_payload);
    let evil = upkit::manifest::UpdateImage {
        signed_manifest: upkit::manifest::SignedManifest {
            manifest: evil_manifest,
            vendor_signature: legit.signed_manifest.vendor_signature,
            server_signature: w.server.sign_manifest(&evil_manifest),
        },
        payload: evil_payload,
    };

    let (mut layout, mut agent) = fresh_device(&w);
    agent
        .request_device_token(&mut layout, plan(1), 11)
        .unwrap();
    let err = feed(&mut agent, &mut layout, &evil.to_bytes()).unwrap_err();
    assert!(matches!(
        err,
        AgentError::Verify(VerifyError::VendorSignature)
    ));
}

#[test]
fn compromised_vendor_key_alone_cannot_satisfy_freshness() {
    // Double-signature property (ii): the vendor key alone cannot bind a
    // fresh nonce — the server signature fails.
    let w = world(8, vec![0x88; 6_000], 2);
    let legit = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 500,
            current_version: Version(0),
        })
        .unwrap()
        .image;

    // "Stolen vendor key": attacker re-targets the manifest to nonce 501
    // and re-signs the core; but they cannot produce the server signature.
    let mut evil_manifest = legit.signed_manifest.manifest;
    evil_manifest.nonce = 501;
    let evil = upkit::manifest::UpdateImage {
        signed_manifest: upkit::manifest::SignedManifest {
            manifest: evil_manifest,
            vendor_signature: w.vendor.sign_manifest_core(&evil_manifest),
            // Best the attacker can do: replay the old server signature.
            server_signature: legit.signed_manifest.server_signature,
        },
        payload: legit.payload.clone(),
    };

    let (mut layout, mut agent) = fresh_device(&w);
    agent
        .request_device_token(&mut layout, plan(1), 501)
        .unwrap();
    let err = feed(&mut agent, &mut layout, &evil.to_bytes()).unwrap_err();
    assert!(matches!(
        err,
        AgentError::Verify(VerifyError::ServerSignature)
    ));
}

#[test]
fn bit_flip_anywhere_in_stream_is_caught() {
    let w = world(9, vec![0x99; 4_000], 2);
    let image = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 31,
            current_version: Version(0),
        })
        .unwrap()
        .image
        .to_bytes();

    // Flip one bit at a spread of offsets covering manifest, signatures,
    // and payload; every single one must be rejected.
    for offset in [0usize, 10, 59, 60, 130, 188, 500, 2_000, image.len() - 1] {
        let mut tampered = image.clone();
        tampered[offset] ^= 0x01;
        let (mut layout, mut agent) = fresh_device(&w);
        agent
            .request_device_token(&mut layout, plan(1), 31)
            .unwrap();
        let result = feed(&mut agent, &mut layout, &tampered);
        assert!(result.is_err(), "bit flip at offset {offset} was accepted");
    }
}

#[test]
fn oversized_decode_declaration_is_rejected_and_ledgered() {
    use upkit::core::generation::ServedKind;
    use upkit::trace::{MemorySink, Tracer};

    // A differential update whose LZSS header a compromised proxy
    // inflates to 4 GiB. The dual signatures cover the decoded firmware's
    // digest, not the payload bytes, so the manifest still verifies — the
    // pipeline's slot-derived budget is the only thing standing between
    // the declared length and a 4 GiB allocation on a constrained device.
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    let f1 = vec![0xAA; 8_000];
    let mut f2 = f1.clone();
    f2[..64].copy_from_slice(&[0x5A; 64]);
    server.publish(vendor.release(f1.clone(), Version(1), 0, APP));
    server.publish(vendor.release(f2, Version(2), 0, APP));
    let w = World {
        vendor,
        server,
        anchors,
    };

    let prepared = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 40,
            current_version: Version(1),
        })
        .unwrap();
    assert!(matches!(prepared.kind, ServedKind::Differential { .. }));
    let mut image = prepared.image.clone();
    // LZSS header: 4 magic bytes, 1 params byte, 4-byte declared length.
    image.payload[5..9].copy_from_slice(&u32::MAX.to_le_bytes());

    let (mut layout, mut agent) = fresh_device(&w);
    install_raw(&mut layout, standard::SLOT_A, &w, 1, &f1);
    let tracer = Tracer::with_sink(Box::new(Arc::new(MemorySink::new())));
    layout.set_tracer(tracer.clone());

    let mut p = plan(1);
    p.installed_size = f1.len() as u32;
    agent.request_device_token(&mut layout, p, 40).unwrap();
    let err = feed(&mut agent, &mut layout, &image.to_bytes()).unwrap_err();
    assert!(
        matches!(err, AgentError::Pipeline(_)),
        "expected a typed pipeline rejection, got {err:?}"
    );

    // The ledger tells the same story: one budget overrun, one rejected
    // package, zero forgeries accepted.
    let snapshot = tracer.counters().snapshot();
    assert_eq!(snapshot.decode_overruns, 1);
    assert_eq!(snapshot.packages_rejected, 1);
    assert_eq!(snapshot.forgeries_accepted, 0);

    // The untampered stream still applies cleanly on a fresh device.
    let (mut layout, mut agent) = fresh_device(&w);
    install_raw(&mut layout, standard::SLOT_A, &w, 1, &f1);
    let mut p = plan(1);
    p.installed_size = f1.len() as u32;
    agent.request_device_token(&mut layout, p, 40).unwrap();
    let phase = feed(&mut agent, &mut layout, &prepared.image.to_bytes()).unwrap();
    assert_eq!(phase, AgentPhase::Complete);
}

#[test]
fn framed_container_bombs_are_rejected_and_ledgered() {
    use upkit::core::generation::ServedKind;
    use upkit::delta::{PatchFormat, FRAMED_MAGIC};
    use upkit::trace::{MemorySink, Tracer};

    // The framed container adds attacker-controlled structure — a window
    // directory with declared offsets and lengths. Each tamper below
    // inflates one field in place (the signatures cover the decoded
    // firmware digest, not the payload bytes, so the manifest still
    // verifies); the slot-derived decode budget must reject every one
    // before any allocation matches the declaration.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    server.set_patch_format(PatchFormat::Framed);
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    let f1 = vec![0xAA; 8_000];
    let mut f2 = f1.clone();
    f2[..64].copy_from_slice(&[0x5A; 64]);
    server.publish(vendor.release(f1.clone(), Version(1), 0, APP));
    server.publish(vendor.release(f2, Version(2), 0, APP));
    let w = World {
        vendor,
        server,
        anchors,
    };

    let prepared = w
        .server
        .prepare_update(&DeviceToken {
            device_id: DEV,
            nonce: 41,
            current_version: Version(1),
        })
        .unwrap();
    assert!(matches!(prepared.kind, ServedKind::Differential { .. }));
    assert_eq!(prepared.image.payload[..4], FRAMED_MAGIC);

    // (field under attack, payload byte range of that field)
    // Header: magic[0..4] old_len[4..8] new_len[8..12] window_count[12..16];
    // first directory entry: out_offset[16..20] out_len[20..24] comp[24]
    // body_len[25..29].
    for (label, range) in [
        ("window-count bomb", 12..16),
        ("window-length bomb", 20..24),
        ("body-length bomb", 25..29),
    ] {
        let mut image = prepared.image.clone();
        image.payload[range].copy_from_slice(&u32::MAX.to_le_bytes());

        let (mut layout, mut agent) = fresh_device(&w);
        install_raw(&mut layout, standard::SLOT_A, &w, 1, &f1);
        let tracer = Tracer::with_sink(Box::new(Arc::new(MemorySink::new())));
        layout.set_tracer(tracer.clone());

        let mut p = plan(1);
        p.installed_size = f1.len() as u32;
        agent.request_device_token(&mut layout, p, 41).unwrap();
        let err = feed(&mut agent, &mut layout, &image.to_bytes()).unwrap_err();
        assert!(
            matches!(err, AgentError::Pipeline(_)),
            "{label}: expected a typed pipeline rejection, got {err:?}"
        );
        let snapshot = tracer.counters().snapshot();
        assert_eq!(snapshot.decode_overruns, 1, "{label}");
        assert_eq!(snapshot.packages_rejected, 1, "{label}");
        assert_eq!(snapshot.forgeries_accepted, 0, "{label}");
    }

    // The untampered framed stream still applies cleanly.
    let (mut layout, mut agent) = fresh_device(&w);
    install_raw(&mut layout, standard::SLOT_A, &w, 1, &f1);
    let mut p = plan(1);
    p.installed_size = f1.len() as u32;
    agent.request_device_token(&mut layout, p, 41).unwrap();
    let phase = feed(&mut agent, &mut layout, &prepared.image.to_bytes()).unwrap();
    assert_eq!(phase, AgentPhase::Complete);
}

mod frame_mutations {
    //! Proptest satellite of the adversarial explorer: arbitrary
    //! single-frame mutations and stream replays on an otherwise valid
    //! push session must end in a typed rejection (or a byte-identical
    //! completed install), leave the running slot untouched, and keep
    //! the device booting a valid image.

    use std::sync::OnceLock;

    use proptest::prelude::*;
    use upkit::adversary::{
        frame_tamper, record_baseline, scenario_nonce, Baseline, MutationClass,
    };
    use upkit::flash::{standard, SimFlash};
    use upkit::manifest::Version;
    use upkit::net::{FrameAdversary, SessionOutcome};
    use upkit::sim::failure::{update_world, world_geometry, WorldConfig, WorldMode};

    fn scenario() -> WorldConfig {
        WorldConfig {
            seed: 7,
            firmware_size: 6_000,
            slot_size: 4096 * 3,
            mode: WorldMode::Ab,
        }
    }

    fn baseline() -> &'static Baseline {
        static BASELINE: OnceLock<Baseline> = OnceLock::new();
        BASELINE.get_or_init(|| record_baseline(&scenario()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn single_frame_mutations_end_typed_and_leave_the_device_valid(
            class in 0usize..4,
            target in 0u64..64,
        ) {
            let surface = [
                MutationClass::FrameCorrupt,
                MutationClass::FrameReorder,
                MutationClass::FrameDuplicate,
                MutationClass::DowngradeReplay,
            ][class];
            let scenario = scenario();
            let baseline = baseline();
            let index = if surface == MutationClass::DowngradeReplay {
                target % 2
            } else {
                target % baseline.frames
            };
            let tamper = frame_tamper(surface, index, baseline).unwrap();

            let mut world =
                update_world(&scenario, Box::new(SimFlash::new(world_geometry(&scenario))));
            let spec = world.layout.slot(standard::SLOT_A).unwrap();
            let mut before = vec![0u8; spec.size as usize];
            world.layout.read_slot(standard::SLOT_A, 0, &mut before).unwrap();

            let outcome = {
                let (mut session, endpoints) = world.push_session(scenario_nonce(&scenario));
                let mut adversary = FrameAdversary::new(endpoints, tamper);
                session.run_to_completion(&mut adversary).outcome
            };

            // A mutated session ends in a typed state, never a hang or a
            // panic: either the full byte-identical image landed, or the
            // agent rejected with a typed error, or the stream ran short.
            prop_assert!(
                matches!(
                    outcome,
                    SessionOutcome::Complete
                        | SessionOutcome::RejectedAtManifest(_)
                        | SessionOutcome::RejectedAtFirmware(_)
                        | SessionOutcome::Incomplete
                ),
                "unexpected outcome {outcome:?}"
            );
            if surface == MutationClass::DowngradeReplay {
                prop_assert!(matches!(outcome, SessionOutcome::RejectedAtManifest(_)));
            }

            // The running image is byte-identical no matter what arrived.
            let mut after = vec![0u8; spec.size as usize];
            world.layout.read_slot(standard::SLOT_A, 0, &mut after).unwrap();
            prop_assert_eq!(&before, &after, "the running slot was modified");

            // And the device still boots a valid version.
            let completed = outcome.is_complete();
            let report = world.reboot_to_fixed_point(8).unwrap();
            prop_assert!(
                matches!(report.outcome.version, Version(1) | Version(2)),
                "booted {:?}", report.outcome.version
            );
            if completed {
                // A completed session means the byte-identical v2 landed.
                let mut installed = vec![0u8; baseline.booted_bytes.len()];
                world
                    .layout
                    .read_slot(baseline.booted_slot, 0, &mut installed)
                    .unwrap();
                prop_assert_eq!(&installed, &baseline.booted_bytes);
            }
        }
    }
}

fn install_raw(
    layout: &mut MemoryLayout,
    slot: upkit::flash::SlotId,
    w: &World,
    version: u16,
    fw: &[u8],
) {
    use upkit::crypto::sha256::sha256;
    use upkit::manifest::{Manifest, SignedManifest};
    let manifest = Manifest {
        device_id: DEV,
        nonce: 0,
        old_version: Version(0),
        version: Version(version),
        size: fw.len() as u32,
        payload_size: fw.len() as u32,
        digest: sha256(fw),
        link_offset: 0,
        app_id: APP,
    };
    let signed = SignedManifest {
        manifest,
        vendor_signature: w.vendor.sign_manifest_core(&manifest),
        server_signature: w.server.sign_manifest(&manifest),
    };
    layout.erase_slot(slot).unwrap();
    upkit::core::image::write_manifest(layout, slot, &signed).unwrap();
    layout.write_slot(slot, FIRMWARE_OFFSET, fw).unwrap();
}
