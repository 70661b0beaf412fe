//! Property-based equivalences of the stepped sessions: equal loss seeds
//! give identical reports, and a zero-rate Bernoulli link is the reliable
//! link, whatever its seed. `tests/session_regression.rs` pins the
//! sessions' exact outputs.

use proptest::prelude::*;
use std::sync::Arc;

use upkit::core::agent::{AgentConfig, UpdateAgent, UpdatePlan};
use upkit::core::generation::{UpdateServer, VendorServer};
use upkit::core::image::FIRMWARE_OFFSET;
use upkit::core::keys::TrustAnchors;
use upkit::crypto::backend::TinyCryptBackend;
use upkit::crypto::ecdsa::SigningKey;
use upkit::flash::{configuration_a, standard, FlashGeometry, MemoryLayout, SimFlash};
use upkit::manifest::Version;
use upkit::net::{
    forward, AgentEndpoints, LinkProfile, LossyLink, RetryPolicy, Session, SessionReport,
};
use upkit::sim::FirmwareGenerator;

const SLOT_SIZE: u32 = 4096 * 16;
const APP_ID: u32 = 0xA;

struct World {
    server: UpdateServer,
    agent: UpdateAgent,
    layout: MemoryLayout,
    plan: UpdatePlan,
}

/// A device running signed v1 with v1 and v2 published; the agent takes
/// full images.
fn world(seed: u64, fw_size: usize) -> World {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());

    let generator = FirmwareGenerator::new(seed);
    let v1 = generator.base(fw_size);
    let v2 = generator.os_version_change(&v1);
    server.publish(vendor.release(v1.clone(), Version(1), 0, APP_ID));
    server.publish(vendor.release(v2, Version(2), 0, APP_ID));

    let mut layout = configuration_a(
        Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 64, 4096))),
        SLOT_SIZE,
    )
    .unwrap();

    // Install signed v1 in slot A.
    let manifest = upkit::manifest::Manifest {
        device_id: 0xD,
        nonce: 0,
        old_version: Version(0),
        version: Version(1),
        size: v1.len() as u32,
        payload_size: v1.len() as u32,
        digest: upkit::crypto::sha256::sha256(&v1),
        link_offset: 0,
        app_id: APP_ID,
    };
    let signed = upkit::manifest::SignedManifest {
        manifest,
        vendor_signature: vendor.sign_manifest_core(&manifest),
        server_signature: server.sign_manifest(&manifest),
    };
    layout.erase_slot(standard::SLOT_A).unwrap();
    upkit::core::image::write_manifest(&mut layout, standard::SLOT_A, &signed).unwrap();
    layout
        .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &v1)
        .unwrap();

    let agent = UpdateAgent::new(
        Arc::new(TinyCryptBackend),
        anchors,
        AgentConfig {
            device_id: 0xD,
            app_id: APP_ID,
            supports_differential: false,
            content_key: None,
        },
    );
    let plan = UpdatePlan {
        target_slot: standard::SLOT_B,
        current_slot: standard::SLOT_A,
        installed_version: Version(1),
        installed_size: v1.len() as u32,
        allowed_link_offsets: vec![0],
        max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
    };
    World {
        server,
        agent,
        layout,
        plan,
    }
}

/// Runs `session` to completion for `w`'s agent through an honest phone.
fn push(w: &mut World, mut session: Session) -> SessionReport {
    let server = &w.server;
    session.run_to_completion(&mut AgentEndpoints::new(
        &mut w.agent,
        &mut w.layout,
        w.plan.clone(),
        9,
        |t| forward(server, t),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lossy_sessions_are_seed_deterministic(
        seed in any::<u64>(),
        loss_seed in any::<u64>(),
        rate_permille in 0u32..400,
    ) {
        // Same Bernoulli stream → byte-for-byte identical reports, the
        // property the event scheduler's determinism rests on.
        let rate = f64::from(rate_permille) / 1000.0;
        let link = LinkProfile::ble_gatt();
        let run = |_: ()| {
            let session = Session::push(
                LossyLink::bernoulli(link, rate, loss_seed),
                RetryPolicy::for_link(&link),
                loss_seed,
            );
            push(&mut world(seed, 4_000), session)
        };
        prop_assert_eq!(run(()), run(()));
    }

    #[test]
    fn zero_loss_rate_matches_reliable_link_for_any_seed(
        seed in any::<u64>(),
        loss_seed in any::<u64>(),
    ) {
        // A 0.0-rate Bernoulli link must be indistinguishable from the
        // reliable link regardless of its seed.
        let link = LinkProfile::ieee802154_6lowpan();
        let run = |lossy: LossyLink| {
            push(&mut world(seed, 3_000), Session::push(lossy, RetryPolicy::for_link(&link), 1))
        };
        prop_assert_eq!(
            run(LossyLink::bernoulli(link, 0.0, loss_seed)),
            run(LossyLink::reliable(link))
        );
    }
}
