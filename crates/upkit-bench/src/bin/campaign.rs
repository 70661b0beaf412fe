//! Performance benchmark: staged campaign orchestration at fleet scale.
//!
//! Drives the `upkit-sim::campaign` orchestrator — channels, fractional
//! stages, cohort targeting, health monitoring — over 100k lite devices at
//! 1, 2, and 8 worker threads, then a single 1M-device run for peak
//! throughput. Reports and counters must be byte-identical across thread
//! counts (the virtual-clock decisions guarantee it; this bin asserts
//! it). Results go to `BENCH_campaign.json`.
//!
//! Wall-clock entries record the actual thread count and the machine's
//! core count: on a 1-core host the speedup column honestly reads ~1× —
//! the scaling win on such hosts is the hot-path fix itself (no per-poll
//! image serialization, one signature verification per shard per manifest
//! instead of two per device).
//!
//! `--smoke` shrinks the fleet so CI can run the full three-thread-count
//! matrix in seconds and gate the metrics with `bench_diff` against
//! `crates/upkit-bench/baselines/BENCH_campaign_smoke.json`: health
//! counters (`boots_failed`, `forgeries_accepted`, `campaign_halts`) are
//! pinned to zero there, and `gates.thread_divergence` pins cross-thread
//! determinism as a numeric leaf.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin campaign [-- --smoke]
//! ```

use std::time::Instant;

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
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Counters-only tracers: the snapshots double as the cross-thread
    // determinism check bench_diff gates on.
    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let tracer = Tracer::disabled();
        let start = Instant::now();
        let report = run_campaign_traced(&config(devices, shards, threads), &tracer);
        let wall_s = start.elapsed().as_secs_f64();
        runs.push((threads, wall_s, report, tracer.counters().snapshot()));
    }

    let (_, wall_1, reference, ref_metrics) = &runs[0];
    for (threads, _, report, metrics) in &runs {
        assert_eq!(reference, report, "{threads} threads changed the campaign");
        assert_eq!(ref_metrics, metrics, "{threads} threads changed counters");
    }
    assert!(reference.halted.is_none(), "healthy campaign must not halt");
    assert_eq!(reference.updated, devices, "campaign must converge");

    let rounds = reference.rounds.len();
    let (_, best_wall_s, ..) = runs
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one run");
    let devices_per_sec = f64::from(devices) / best_wall_s;

    // Peak throughput: one 1M-device run at the widest thread count.
    let million = if smoke {
        None
    } else {
        let million_devices = 1_000_000u32;
        let tracer = Tracer::disabled();
        let start = Instant::now();
        let report = run_campaign_traced(&config(million_devices, 256, 8), &tracer);
        let wall_s = start.elapsed().as_secs_f64();
        assert_eq!(report.updated, million_devices, "1M campaign must converge");
        Some(Json::obj(vec![
            ("devices", Json::Int(u64::from(million_devices))),
            ("shards", Json::Int(256)),
            ("threads", Json::Int(8)),
            ("rounds", Json::Int(report.rounds.len() as u64)),
            ("total_wire_bytes", Json::Int(report.total_wire_bytes)),
            ("wall_s", Json::Num(wall_s)),
            (
                "devices_per_sec",
                Json::Num(f64::from(million_devices) / wall_s),
            ),
        ]))
    };

    let wall_entries: Vec<(&str, Json)> = runs
        .iter()
        .map(|(threads, wall_s, ..)| {
            let key: &'static str = match threads {
                1 => "threads_1",
                2 => "threads_2",
                _ => "threads_8",
            };
            (key, Json::Num(*wall_s))
        })
        .collect();
    let mut fields = vec![
        ("bench", Json::Str("campaign".into())),
        ("smoke", Json::Bool(smoke)),
        ("cores", Json::Int(cores as u64)),
        (
            "thread_counts",
            Json::Arr(THREAD_COUNTS.iter().map(|t| Json::Int(*t as u64)).collect()),
        ),
        ("devices", Json::Int(u64::from(devices))),
        ("shards", Json::Int(u64::from(shards))),
        ("stages", Json::Int(5)),
        ("stage_rounds", Json::Int(4)),
        ("manifest_mode", Json::Str("campaign_broadcast".into())),
        ("rounds", Json::Int(rounds as u64)),
        ("total_wire_bytes", Json::Int(reference.total_wire_bytes)),
        ("updated", Json::Int(u64::from(reference.updated))),
        ("wall_s", Json::obj(wall_entries)),
        ("speedup_8_threads_vs_1", Json::Num(wall_1 / runs[2].1)),
        ("devices_per_sec", Json::Num(devices_per_sec)),
        (
            "identical_across_thread_counts",
            Json::Bool(true), // asserted above; divergence aborts the bin
        ),
        (
            "gates",
            Json::obj(vec![("thread_divergence", Json::Int(0))]),
        ),
        ("metrics", metrics_json(ref_metrics)),
    ];
    if let Some(million) = million {
        fields.push(("million_device_run", million));
    }
    let json = Json::obj(fields);

    print_table(
        &format!("Staged campaign: {devices} lite devices, {shards} shards, {cores} cores"),
        &["Threads", "Wall s", "Rounds", "Wire bytes"],
        &runs
            .iter()
            .map(|(threads, wall_s, report, _)| {
                vec![
                    threads.to_string(),
                    format!("{wall_s:.2}"),
                    report.rounds.len().to_string(),
                    report.total_wire_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n{devices_per_sec:.0} devices/s at best thread count, \
         reports byte-identical across thread counts"
    );

    std::fs::write("BENCH_campaign.json", json.render()).expect("write BENCH_campaign.json");
    println!("wrote BENCH_campaign.json");
}
