//! The paper's Fig. 2 push flow: a smartphone fetches the update from the
//! Internet and forwards it to the device over a BLE-like link — first
//! honestly (`forward`, stepped one link event at a time through the
//! resumable session API), then as a compromised proxy (a
//! `FrameAdversary` around the same endpoints, flipping a bit or replaying
//! the honest session's stream) whose tampering UpKit's agent-side
//! verification rejects before the firmware transfer even starts.
//!
//! ```text
//! cargo run --example push_smartphone
//! ```

use std::sync::Arc;

use rand::SeedableRng;
use upkit::core::agent::{AgentConfig, UpdateAgent, UpdatePlan};
use upkit::core::generation::{UpdateServer, VendorServer};
use upkit::core::image::FIRMWARE_OFFSET;
use upkit::core::keys::TrustAnchors;
use upkit::crypto::backend::TinyCryptBackend;
use upkit::crypto::ecdsa::SigningKey;
use upkit::flash::{configuration_a, standard, FlashGeometry, MemoryLayout, SimFlash};
use upkit::manifest::Version;
use upkit::net::{
    forward, AgentEndpoints, FrameAdversary, FrameTamper, LinkProfile, LossyLink, RetryPolicy,
    Session, SessionEventKind, SessionOutcome, SessionReport, Step, StreamResolution,
};

const SLOT_SIZE: u32 = 4096 * 24;

struct Device {
    layout: MemoryLayout,
    agent: UpdateAgent,
}

fn device(anchors: TrustAnchors) -> Device {
    Device {
        layout: configuration_a(
            Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
            SLOT_SIZE,
        )
        .expect("valid layout"),
        agent: UpdateAgent::new(
            Arc::new(TinyCryptBackend),
            anchors,
            AgentConfig {
                device_id: 0x51,
                app_id: 0xA,
                supports_differential: false,
                content_key: None,
            },
        ),
    }
}

fn plan() -> UpdatePlan {
    UpdatePlan {
        target_slot: standard::SLOT_B,
        current_slot: standard::SLOT_A,
        installed_version: Version(1),
        installed_size: 0,
        allowed_link_offsets: vec![0],
        max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
    }
}

/// One reliable push session of a fresh device through a phone that
/// applies `tamper` to what it forwards.
fn push(
    server: &UpdateServer,
    anchors: TrustAnchors,
    tamper: FrameTamper,
    nonce: u32,
) -> SessionReport {
    let mut dev = device(anchors);
    let link = LinkProfile::ble_gatt();
    let endpoints = AgentEndpoints::new(&mut dev.agent, &mut dev.layout, plan(), nonce, |t| {
        forward(server, t)
    });
    Session::push(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0)
        .run_to_completion(&mut FrameAdversary::new(endpoints, tamper))
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    server.publish(vendor.release(vec![0xF1; 60_000], Version(2), 0, 0xA));
    let link = LinkProfile::ble_gatt();

    // --- Honest smartphone, one link event at a time ------------------------
    // The phone's stream is kept: the replaying phone below plays it back.
    let mut dev = device(anchors);
    let mut captured = None;
    let mut session = Session::push(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
    let mut endpoints = AgentEndpoints::new(&mut dev.agent, &mut dev.layout, plan(), 100, |t| {
        let served = forward(&server, t);
        if let StreamResolution::Stream(stream) = &served {
            captured = Some(stream.clone());
        }
        served
    });
    let mut chunks = 0u64;
    let report = loop {
        match session.step(&mut endpoints) {
            Step::Progress(event) => match event.kind {
                SessionEventKind::TokenExchange => {
                    println!("event: token exchange ({} µs)", event.cost_micros);
                }
                SessionEventKind::ProxyFetch => {
                    println!("event: phone fetched the update over the Internet");
                }
                SessionEventKind::ChunkDelivered { bytes } => {
                    chunks += 1;
                    if chunks <= 2 {
                        println!(
                            "event: chunk delivered ({bytes} B, {} µs)",
                            event.cost_micros
                        );
                    } else if chunks == 3 {
                        println!("event: … (one event per BLE chunk; session is resumable");
                        println!("        between any two of them)");
                    }
                }
                SessionEventKind::ChunkLost { .. } => unreachable!("reliable link"),
                SessionEventKind::GoAhead => {
                    println!("event: manifest verified — agent sends the go-ahead");
                }
            },
            Step::Done(report) => break report,
        }
    };
    println!(
        "honest phone: {:?}, {} bytes over BLE in {} chunks, {:.1} s of radio time",
        describe(&report.outcome),
        report.accounting.bytes_to_device,
        chunks,
        report.accounting.elapsed_micros as f64 / 1e6
    );
    assert!(report.outcome.is_complete());

    // --- Compromised smartphone: corrupts the image in transit -------------
    let report = push(&server, anchors, FrameTamper::FlipBit { offset: 25 }, 101);
    println!(
        "tampering phone: {:?} after only {} bytes — the firmware never left the phone",
        describe(&report.outcome),
        report.accounting.bytes_to_device
    );
    assert!(matches!(
        report.outcome,
        SessionOutcome::RejectedAtManifest(_)
    ));

    // --- Replaying smartphone: the honest session's image for a new request --
    let captured = captured.expect("the honest phone forwarded a stream");
    let report = push(&server, anchors, FrameTamper::ReplaceStream(captured), 103);
    println!(
        "replaying phone: {:?} — the update server's signature binds the nonce",
        describe(&report.outcome)
    );
    assert!(matches!(
        report.outcome,
        SessionOutcome::RejectedAtManifest(_)
    ));

    println!("\nthe proxy is passive: it can disturb, but never forge, an update");
}

fn describe(outcome: &SessionOutcome) -> &'static str {
    match outcome {
        SessionOutcome::Complete => "update verified and stored",
        SessionOutcome::NoUpdateAvailable => "no update available",
        SessionOutcome::RejectedAtManifest(_) => "REJECTED at manifest (early)",
        SessionOutcome::RejectedAtFirmware(_) => "REJECTED at firmware (before reboot)",
        SessionOutcome::Incomplete => "stream incomplete",
        SessionOutcome::ProxyEmpty => "proxy claimed success but had no bytes",
        SessionOutcome::TimedOut => "a block exhausted its retransmissions",
    }
}
