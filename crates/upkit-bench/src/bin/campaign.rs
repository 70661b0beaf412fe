//! Staged campaign orchestration at fleet scale.
//!
//! Drives the `upkit-sim::campaign` orchestrator — channels, fractional
//! stages, cohort targeting, health monitoring — over 100k lite devices at
//! 1, 2, and 8 worker threads. Reports and counters must be byte-identical
//! across thread counts (the virtual-clock decisions guarantee it; this
//! bin asserts it). Results go to `BENCH_campaign.json`, which holds no
//! clock reading or host fact: host time is measured by perfbench's
//! `broadcast` workload.
//!
//! `--smoke` shrinks the fleet so CI can run the full three-thread-count
//! matrix in seconds and compare the output byte for byte with
//! `crates/upkit-bench/baselines/BENCH_campaign_smoke.json`: health
//! counters (`boots_failed`, `forgeries_accepted`, `campaign_halts`) are
//! pinned to zero there, and `gates.thread_divergence` pins cross-thread
//! determinism as a numeric leaf.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin campaign [-- --smoke]
//! ```

use upkit_bench::{metrics_json, print_table, Json};
use upkit_sim::campaign::{run_campaign_traced, CampaignConfig};
use upkit_sim::FleetConfig;
use upkit_trace::Tracer;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn config(devices: u32, shards: u32, threads: usize) -> CampaignConfig {
    CampaignConfig {
        fleet: FleetConfig {
            devices,
            poll_fraction: 0.25,
            firmware_size: 20_000,
            differential: true,
            seed: 0xCA3D_BE2C,
        },
        shards,
        threads,
        stage_rounds: 4,
        ..CampaignConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (devices, shards) = if smoke {
        (2_000u32, 8u32)
    } else {
        (100_000, 64)
    };

    // Counters-only tracers: the snapshots double as the cross-thread
    // determinism check the baseline pins.
    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let tracer = Tracer::disabled();
        let report = run_campaign_traced(&config(devices, shards, threads), &tracer);
        runs.push((threads, report, tracer.counters().snapshot()));
    }

    let (_, reference, ref_metrics) = &runs[0];
    for (threads, report, metrics) in &runs {
        assert_eq!(reference, report, "{threads} threads changed the campaign");
        assert_eq!(ref_metrics, metrics, "{threads} threads changed counters");
    }
    assert!(reference.halted.is_none(), "healthy campaign must not halt");
    assert_eq!(reference.updated, devices, "campaign must converge");

    let json = Json::obj(vec![
        ("bench", Json::Str("campaign".into())),
        ("smoke", Json::Bool(smoke)),
        (
            "thread_counts",
            Json::Arr(THREAD_COUNTS.iter().map(|t| Json::Int(*t as u64)).collect()),
        ),
        ("devices", Json::Int(u64::from(devices))),
        ("shards", Json::Int(u64::from(shards))),
        ("stages", Json::Int(5)),
        ("stage_rounds", Json::Int(4)),
        ("manifest_mode", Json::Str("campaign_broadcast".into())),
        ("rounds", Json::Int(reference.rounds.len() as u64)),
        ("total_wire_bytes", Json::Int(reference.total_wire_bytes)),
        ("updated", Json::Int(u64::from(reference.updated))),
        (
            "identical_across_thread_counts",
            Json::Bool(true), // asserted above; divergence aborts the bin
        ),
        (
            "gates",
            Json::obj(vec![("thread_divergence", Json::Int(0))]),
        ),
        ("metrics", metrics_json(ref_metrics)),
    ]);

    print_table(
        &format!("Staged campaign: {devices} lite devices, {shards} shards"),
        &["Threads", "Rounds", "Wire bytes"],
        &runs
            .iter()
            .map(|(threads, report, _)| {
                vec![
                    threads.to_string(),
                    report.rounds.len().to_string(),
                    report.total_wire_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\nreports and counters byte-identical across thread counts");

    std::fs::write("BENCH_campaign.json", json.render()).expect("write BENCH_campaign.json");
    println!("wrote BENCH_campaign.json");
}
