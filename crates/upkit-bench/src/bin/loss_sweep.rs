//! Extension experiment: propagation time under frame loss.
//!
//! Smart objects "operate in harsh environmental conditions for several
//! years" (paper, Sect. I); this sweep quantifies how 802.15.4 frame loss
//! inflates the pull propagation phase for full versus differential
//! updates — the differential update's advantage *grows* with loss,
//! because retransmission cost scales with bytes on the wire.
//!
//! Three views, coarse to fine:
//!
//! 1. the analytic expectation (retransmit `chunks × rate` blocks),
//! 2. a real stepped `PullSession` per rate, with seeded Bernoulli
//!    loss, per-block timeouts, and exponential backoff, and
//! 3. an interleaved event-fleet campaign where hundreds of such
//!    sessions share one virtual clock.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin loss_sweep [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the fleet so CI can run the whole binary in seconds
//! and compare `BENCH_loss.json` byte for byte with
//! `crates/upkit-bench/baselines/BENCH_loss_smoke.json`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use upkit_bench::{metrics_json, print_table, Json};
use upkit_core::agent::{AgentConfig, UpdateAgent, UpdatePlan};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::image::FIRMWARE_OFFSET;
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_crypto::ecdsa::SigningKey;
use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
use upkit_manifest::Version;
use upkit_net::{
    BorderRouter, LinkProfile, LossyLink, PullEndpoints, PullSession, RetryPolicy,
    SessionEventKind, SessionOutcome, Step, TransferAccounting, Transport,
};
use upkit_sim::{run_event_rollout_traced, EventFleetConfig, FirmwareGenerator};
use upkit_trace::Tracer;

const LOSS_RATES: [(&str, f64); 5] = [
    ("0 %", 0.0),
    ("1 %", 0.01),
    ("5 %", 0.05),
    ("10 %", 0.10),
    ("20 %", 0.20),
];

fn propagation_secs(link: LossyLink, payload_bytes: u64) -> f64 {
    let mut acc = TransferAccounting::default();
    link.charge_to_device(&mut acc, payload_bytes);
    // Each confirmed blockwise GET costs a round trip (as in the pull
    // driver).
    for _ in 0..link.link.chunks_for(payload_bytes) {
        acc.charge_round_trip(&link.link);
    }
    acc.elapsed_micros as f64 / 1e6
}

/// What one real stepped session did under a given loss rate.
struct SteppedRow {
    outcome: SessionOutcome,
    events: u64,
    lost_chunks: u64,
    backoff_wait_micros: u64,
    elapsed_micros: u64,
}

/// Runs one full pull update through the stepped session machinery: a
/// provisioned device, a Bernoulli-lossy 6LoWPAN link, and the per-block
/// timeout → retry → exponential-backoff policy, advanced one link event
/// at a time so losses and waits can be counted exactly.
fn stepped_pull(firmware_size: usize, loss_rate: f64, seed: u64, tracer: &Tracer) -> SteppedRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());

    let generator = FirmwareGenerator::new(seed);
    let v1 = generator.base(firmware_size);
    let v2 = generator.os_version_change(&v1);
    server.publish(vendor.release(v1.clone(), Version(1), 0, 0xF1));
    server.publish(vendor.release(v2, Version(2), 0, 0xF1));

    let slot_size = (firmware_size as u32 + FIRMWARE_OFFSET).div_ceil(4096) * 4096 + 4096 * 4;
    let mut layout = configuration_a(
        Box::new(SimFlash::new(FlashGeometry {
            size: (slot_size * 2).next_power_of_two().max(64 * 1024),
            sector_size: 4096,
            read_micros_per_byte: 0,
            write_micros_per_byte: 0,
            erase_micros_per_sector: 0,
        })),
        slot_size,
    )
    .expect("valid layout");
    let mut agent = UpdateAgent::new(
        Arc::new(TinyCryptBackend),
        anchors,
        AgentConfig {
            device_id: 0xD0,
            app_id: 0xF1,
            supports_differential: false,
            content_key: None,
        },
    );
    let plan = UpdatePlan {
        target_slot: standard::SLOT_B,
        current_slot: standard::SLOT_A,
        installed_version: Version(1),
        installed_size: firmware_size as u32,
        allowed_link_offsets: vec![0],
        max_firmware_size: slot_size - FIRMWARE_OFFSET,
    };

    layout.set_tracer(tracer.clone());
    let link = LinkProfile::ieee802154_6lowpan();
    let router = BorderRouter::new();
    let mut session = PullSession::new(
        LossyLink::bernoulli(link, loss_rate, seed),
        RetryPolicy::for_link(&link),
        seed,
    );
    session.set_tracer(tracer.clone());
    let mut endpoints = PullEndpoints::new(&server, &router, &mut agent, &mut layout, plan, 1);

    let mut events = 0u64;
    let mut lost_chunks = 0u64;
    let mut backoff_wait_micros = 0u64;
    let report = loop {
        match session.step(&mut endpoints) {
            Step::Progress(event) => {
                events += 1;
                if let SessionEventKind::ChunkLost { timeout_micros, .. } = event.kind {
                    lost_chunks += 1;
                    backoff_wait_micros += timeout_micros;
                }
            }
            Step::Done(report) => break report,
        }
    };
    SteppedRow {
        outcome: report.outcome,
        events,
        lost_chunks,
        backoff_wait_micros,
        elapsed_micros: report.accounting.elapsed_micros,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let base = LinkProfile::ieee802154_6lowpan();
    let full_bytes = 100_000u64; // Fig. 8a's image
    let delta_bytes = 24_600u64; // Fig. 8b's OS-change delta

    // ── 1. Analytic expectation ─────────────────────────────────────────
    let mut rows = Vec::new();
    for (label, rate) in LOSS_RATES {
        let link = LossyLink::bernoulli(base, rate, 0);
        let full = propagation_secs(link, full_bytes);
        let delta = propagation_secs(link, delta_bytes);
        rows.push(vec![
            label.to_string(),
            format!("{full:.1}"),
            format!("{delta:.1}"),
            format!("{:.1}×", full / delta),
        ]);
    }

    print_table(
        "Extension: pull propagation time vs frame loss (seconds)",
        &[
            "Loss rate",
            "Full 100 kB",
            "Delta 24.6 kB",
            "Delta advantage",
        ],
        &rows,
    );
    println!(
        "\nLoss inflates both transfers proportionally, so the differential\n\
         update's absolute saving grows with link quality degradation —\n\
         harsh environments benefit most from UpKit's delta support."
    );

    // ── 2. One real stepped session per rate ────────────────────────────
    // One counters-only tracer across the whole sweep: every session,
    // flash write, and retransmission lands in the `metrics` section of
    // BENCH_loss.json. Everything is virtual-time and seeded, so the
    // section is byte-deterministic — CI diffs it against a committed
    // snapshot.
    let tracer = Tracer::disabled();
    let stepped_fw = if smoke { 20_000 } else { 100_000 };
    let mut rows = Vec::new();
    for (label, rate) in LOSS_RATES {
        let row = stepped_pull(stepped_fw, rate, 0x10_55 + (rate * 100.0) as u64, &tracer);
        assert!(
            matches!(row.outcome, SessionOutcome::Complete),
            "stepped session at {label}: {:?}",
            row.outcome
        );
        rows.push(vec![
            label.to_string(),
            row.events.to_string(),
            row.lost_chunks.to_string(),
            format!("{:.1}", row.backoff_wait_micros as f64 / 1e6),
            format!("{:.1}", row.elapsed_micros as f64 / 1e6),
        ]);
    }
    print_table(
        &format!("Stepped pull session, Bernoulli loss, {stepped_fw} B image"),
        &[
            "Loss rate",
            "Link events",
            "Lost chunks",
            "Backoff wait (s)",
            "Elapsed (s)",
        ],
        &rows,
    );
    println!(
        "\nEach row is a single resumable PullSession advanced one link event\n\
         at a time: every lost chunk costs a timeout (doubling per\n\
         consecutive loss) before its retransmission, so sampled loss adds\n\
         backoff wait on top of the analytic airtime above."
    );

    // ── 3. Interleaved event-fleet campaign ─────────────────────────────
    let devices = if smoke { 60 } else { 400 };
    let mut rows = Vec::new();
    let mut fleet_rows = Vec::new();
    for (label, rate) in [("0 %", 0.0), ("10 %", 0.10), ("20 %", 0.20)] {
        let report = run_event_rollout_traced(
            &EventFleetConfig {
                devices,
                firmware_size: 2_000,
                loss_rate: rate,
                verify_signatures: false,
                device_bound_manifests: false,
                ..EventFleetConfig::default()
            },
            &tracer,
        );
        fleet_rows.push(Json::obj(vec![
            ("loss_rate", Json::Num(rate)),
            ("completed", Json::Int(u64::from(report.completed))),
            ("wire_bytes", Json::Int(report.total_wire_bytes)),
            ("makespan_micros", Json::Int(report.makespan_micros)),
        ]));
        rows.push(vec![
            label.to_string(),
            format!("{}/{}", report.completed, devices),
            report.peak_in_flight.to_string(),
            format!("{:.1}", report.total_wire_bytes as f64 / 1e3),
            format!("{:.1}", report.makespan_micros as f64 / 1e6),
        ]);
    }
    print_table(
        &format!("Event-driven fleet: {devices} interleaved pull sessions"),
        &[
            "Loss rate",
            "Completed",
            "Peak in flight",
            "Wire kB",
            "Makespan (s)",
        ],
        &rows,
    );
    println!(
        "\nAll sessions share one virtual clock: loss stretches individual\n\
         sessions (more wire bytes, longer makespan) without serialising the\n\
         campaign — retransmissions of one device interleave with fresh\n\
         chunks of every other."
    );

    // Machine-readable artifact. Everything in it — including the metrics
    // counters — is virtual-time and seeded, so the file is reproducible
    // bit for bit and diffable in CI.
    let json = Json::obj(vec![
        ("bench", Json::Str("loss_sweep".into())),
        ("smoke", Json::Bool(smoke)),
        ("stepped_firmware_bytes", Json::Int(stepped_fw as u64)),
        ("fleet_devices", Json::Int(u64::from(devices))),
        ("event_fleet", Json::Arr(fleet_rows)),
        ("metrics", metrics_json(&tracer.counters().snapshot())),
    ]);
    std::fs::write("BENCH_loss.json", json.render()).expect("write BENCH_loss.json");
    println!("\nwrote BENCH_loss.json");
}
