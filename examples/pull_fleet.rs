//! A fleet of devices pulling updates over simulated CoAP/6LoWPAN,
//! interleaved on one virtual clock, with per-device differential updates.
//!
//! Models the paper's pull deployment: each device polls the update server
//! through a border router. Devices run different installed versions, so
//! the server serves each one a different delta (or a full image for the
//! device that cannot apply patches). All four sessions are *resumable*
//! state machines advanced one link event at a time by a single thread —
//! the device whose next event is earliest in virtual time goes next, so
//! transfers of different lengths finish in wire-time order, not
//! submission order.
//!
//! ```text
//! cargo run --example pull_fleet
//! ```
//!
//! The whole round is traced: flash, agent, session, and scheduler events
//! land in one NDJSON file (default `target/pull_fleet.trace.ndjson`;
//! override with `UPKIT_TRACE=/path/to/file`).

use std::io::Write as _;
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
    forward, AgentEndpoints, LinkProfile, LossyLink, RetryPolicy, Session, SessionReport, Step,
};
use upkit::sim::FirmwareGenerator;
use upkit::trace::{Event, MemorySink, Tracer};

const SLOT_SIZE: u32 = 4096 * 24;

struct Device {
    device_id: u32,
    installed: u16,
    installed_size: u32,
    differential: bool,
    layout: MemoryLayout,
    agent: UpdateAgent,
}

fn device(
    anchors: TrustAnchors,
    device_id: u32,
    installed: u16,
    differential: bool,
    current_fw: &[u8],
) -> Device {
    let mut layout = configuration_a(
        Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
        SLOT_SIZE,
    )
    .expect("valid layout");
    // Pre-install the running firmware (differential base).
    layout.erase_slot(standard::SLOT_A).expect("fresh");
    layout
        .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, current_fw)
        .expect("fits");
    let agent = UpdateAgent::new(
        Arc::new(TinyCryptBackend),
        anchors,
        AgentConfig {
            device_id,
            app_id: 0xA,
            supports_differential: differential,
            content_key: None,
        },
    );
    Device {
        device_id,
        installed,
        installed_size: current_fw.len() as u32,
        differential,
        layout,
        agent,
    }
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());

    // Release history v1..v3; v3 is current.
    let generator = FirmwareGenerator::new(5);
    let v1 = generator.base(50_000);
    let v2 = generator.os_version_change(&v1);
    let v3 = generator.app_change(&v2, 1200);
    for (fw, version) in [(v1.clone(), 1u16), (v2.clone(), 2), (v3.clone(), 3)] {
        server.publish(vendor.release(fw, Version(version), 0, 0xA));
    }

    // Fleet: device id, installed version, differential support.
    let mut fleet = [
        device(anchors, 0x1001, 1, true, &v1),
        device(anchors, 0x1002, 2, true, &v2),
        device(anchors, 0x1003, 3, true, &v3), // already current
        device(anchors, 0x1004, 1, false, &v1), // cannot patch: full image
    ];

    // One tracer for the whole round: device flash/agent events route
    // through each layout, session events through each session, scheduler
    // picks through this loop. Installed after provisioning so the trace
    // covers the update itself, not the factory image writes.
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
    for dev in &mut fleet {
        dev.layout.set_tracer(tracer.clone());
    }
    let device_ids: Vec<u32> = fleet.iter().map(|d| d.device_id).collect();

    let link = LinkProfile::ieee802154_6lowpan();
    let server = &server;

    // One resumable session per device, all stepped by this one thread.
    let mut lanes: Vec<_> = fleet
        .iter_mut()
        .map(|dev| {
            let plan = UpdatePlan {
                target_slot: standard::SLOT_B,
                current_slot: standard::SLOT_A,
                installed_version: Version(dev.installed),
                installed_size: dev.installed_size,
                allowed_link_offsets: vec![0],
                max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
            };
            let mut session = Session::pull(
                LossyLink::reliable(link),
                RetryPolicy::for_link(&link),
                u64::from(dev.device_id),
            );
            session.set_tracer(tracer.clone());
            let nonce = dev.device_id ^ 0x5555;
            let endpoints =
                AgentEndpoints::new(&mut dev.agent, &mut dev.layout, plan, nonce, |t| {
                    forward(server, t)
                });
            (session, endpoints, 0u64)
        })
        .collect();

    // Virtual-clock interleave: always advance the session whose next
    // event is earliest; record each session's finish time.
    println!("fleet update round (server at v3), four sessions on one thread:");
    let mut reports: Vec<Option<(u64, SessionReport)>> = vec![None; lanes.len()];
    let mut events = 0u64;
    while reports.iter().any(Option::is_none) {
        let idx = (0..lanes.len())
            .filter(|&i| reports[i].is_none())
            .min_by_key(|&i| lanes[i].2)
            .expect("an unfinished session");
        let (session, endpoints, clock) = &mut lanes[idx];
        // The earliest unfinished lane is chosen each iteration, so these
        // dispatch times (and the trace clock) only move forward.
        let at_micros = *clock;
        tracer.advance_now_to(at_micros);
        let dispatched = u64::from(device_ids[idx]);
        tracer.emit(|| Event::SchedulerDispatch {
            device: dispatched,
            at_micros,
        });
        match session.step(endpoints) {
            Step::Progress(event) => {
                *clock += event.cost_micros;
                events += 1;
            }
            Step::Done(report) => {
                *clock = session.virtual_elapsed_micros();
                reports[idx] = Some((*clock, report));
            }
        }
    }
    drop(lanes);
    println!("  {events} link events interleaved across the fleet\n");

    let mut finish_order: Vec<(usize, u64)> = reports
        .iter()
        .map(|r| r.as_ref().expect("finished").0)
        .enumerate()
        .collect();
    finish_order.sort_by_key(|&(_, t)| t);
    for (idx, t) in finish_order {
        let dev = &fleet[idx];
        let (_, report) = reports[idx].as_ref().expect("finished");
        println!(
            "  t={:6.1}s  device {:#x} (v{}, diff={}): {}, {} bytes on the wire",
            t as f64 / 1e6,
            dev.device_id,
            dev.installed,
            dev.differential,
            kind(&report.outcome),
            report.accounting.bytes_to_device
        );
    }
    println!(
        "\nsmall deltas finish first: completion follows wire time, not the\n\
         order the sessions were started in"
    );

    // Dump the merged trace as NDJSON — one line per event, timestamps in
    // virtual microseconds, monotone across all four interleaved sessions.
    let trace_path =
        std::env::var("UPKIT_TRACE").unwrap_or_else(|_| "target/pull_fleet.trace.ndjson".into());
    let records = sink.drain();
    if let Some(parent) = std::path::Path::new(&trace_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut file = std::fs::File::create(&trace_path).expect("trace file");
    for record in &records {
        writeln!(file, "{}", record.to_ndjson()).expect("trace write");
    }
    let snap = tracer.counters().snapshot();
    println!(
        "\ntrace: {} events -> {trace_path}\n\
         counters: {} bytes to devices, {} frames, {} signature checks,\n\
         {} flash bytes written, {} sectors erased",
        records.len(),
        snap.link_bytes_to_device,
        snap.frames_sent,
        snap.sig_verifications,
        snap.total_flash_writes(),
        snap.total_erases(),
    );
}

fn kind(outcome: &upkit::net::SessionOutcome) -> &'static str {
    match outcome {
        upkit::net::SessionOutcome::Complete => "updated to v3",
        upkit::net::SessionOutcome::NoUpdateAvailable => "already current",
        _ => "failed",
    }
}
