//! Performance benchmark: multi-hop dissemination through caching
//! gateway proxies.
//!
//! Sweeps fan-out × loss rate × gateway cache size over the
//! `upkit-sim::topology` simulator and measures what the block cache
//! buys: total upstream (backhaul) wire bytes and campaign makespan,
//! against the per-device unicast baseline (`cache_blocks = 0`, every
//! device's blocks fetched upstream separately). The headline claim is
//! asserted, not just reported: at fan-out ≥ 8 and loss ≤ 10 %, caching
//! cuts upstream bytes by more than 3× (`gates.reduction_shortfall`
//! pins the number of sweep points violating that to zero).
//!
//! A separate matrix runs one representative lossy multi-gateway config
//! at 1, 2, and 8 worker threads and asserts reports, counters, and
//! trace bytes are identical (`gates.thread_divergence` pins it as a
//! numeric leaf). Results go to `BENCH_dissemination.json`, which holds
//! no clock reading or host fact: host time is measured by perfbench's
//! `mesh` workload.
//!
//! `--smoke` shrinks the sweep so CI can run it in seconds and compare
//! the output byte for byte with
//! `crates/upkit-bench/baselines/BENCH_dissemination_smoke.json`.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin dissemination [-- --smoke]
//! ```

use std::sync::Arc;

use upkit_bench::{metrics_json, print_table, Json};
use upkit_sim::{run_dissemination, run_dissemination_traced, TopologyConfig};
use upkit_trace::{MemorySink, Tracer};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The cache size (in blocks) the cached arm of the sweep uses: big
/// enough to hold any sweep origin whole.
const WARM_CACHE_BLOCKS: usize = 4_096;

fn config(fan_out: u32, loss_bps: u32, cache_blocks: usize, smoke: bool) -> TopologyConfig {
    TopologyConfig {
        gateways: if smoke { 2 } else { 4 },
        devices_per_gateway: fan_out,
        mesh_hops: 2,
        loss_rate: f64::from(loss_bps) / 10_000.0,
        firmware_size: if smoke { 2_000 } else { 20_000 },
        block_size: 512,
        cache_blocks,
        max_poll_attempts: 32,
        threads: 8,
        seed: 0xD15E_BE2C,
        ..TopologyConfig::default()
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let fan_outs: &[u32] = if smoke {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let losses_bps: &[u32] = &[0, 500, 1_000];
    let bounded_cache: usize = 16;

    // --- Sweep: cached vs bounded-cache vs unicast ----------------------
    let mut sweep_rows = Vec::new();
    let mut reduction_shortfall = 0u64;
    for &fan_out in fan_outs {
        for &loss_bps in losses_bps {
            let cached = run_dissemination(&config(fan_out, loss_bps, WARM_CACHE_BLOCKS, smoke));
            let bounded = run_dissemination(&config(fan_out, loss_bps, bounded_cache, smoke));
            let unicast = run_dissemination(&config(fan_out, loss_bps, 0, smoke));
            let devices = cached.completed;
            assert_eq!(cached.gave_up, 0, "cached run must converge");
            assert_eq!(unicast.gave_up, 0, "unicast run must converge");
            assert_eq!(cached.image_mismatches, 0);
            assert_eq!(bounded.image_mismatches, 0);
            assert_eq!(unicast.image_mismatches, 0);

            let reduction = unicast.upstream_bytes as f64 / cached.upstream_bytes.max(1) as f64;
            // The acceptance gate: fan-out ≥ 8, loss ≤ 10 % ⇒ caching
            // must cut upstream bytes by more than 3×.
            if fan_out >= 8 && loss_bps <= 1_000 && reduction <= 3.0 {
                reduction_shortfall += 1;
            }
            sweep_rows.push((
                fan_out, loss_bps, devices, cached, bounded, unicast, reduction,
            ));
        }
    }
    assert_eq!(
        reduction_shortfall, 0,
        "caching must beat unicast by >3x upstream bytes at fan-out >= 8, loss <= 10%"
    );

    // --- Determinism matrix: 1/2/8 threads, traces compared -------------
    let matrix_config = TopologyConfig {
        campaigns: 2,
        cache_blocks: bounded_cache,
        ..config(8, 800, bounded_cache, smoke)
    };
    let mut matrix = Vec::new();
    for threads in THREAD_COUNTS {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_dissemination_traced(
            &TopologyConfig {
                threads,
                ..matrix_config
            },
            &tracer,
        );
        let ndjson: String = sink
            .drain()
            .iter()
            .map(upkit_trace::TraceRecord::to_ndjson)
            .collect::<Vec<_>>()
            .join("\n");
        matrix.push((threads, report, tracer.counters().snapshot(), ndjson));
    }
    let (_, ref_report, ref_metrics, ref_ndjson) = &matrix[0];
    for (threads, report, metrics, ndjson) in &matrix {
        assert_eq!(ref_report, report, "{threads} threads changed the report");
        assert_eq!(ref_metrics, metrics, "{threads} threads changed counters");
        assert_eq!(ref_ndjson, ndjson, "{threads} threads changed trace bytes");
    }
    assert_eq!(ref_report.image_mismatches, 0);

    // --- Report ----------------------------------------------------------
    let sweep_json: Vec<Json> = sweep_rows
        .iter()
        .map(
            |(fan_out, loss_bps, devices, cached, bounded, unicast, reduction)| {
                Json::obj(vec![
                    ("fan_out", Json::Int(u64::from(*fan_out))),
                    ("loss_bps", Json::Int(u64::from(*loss_bps))),
                    ("devices", Json::Int(u64::from(*devices))),
                    ("upstream_bytes_cached", Json::Int(cached.upstream_bytes)),
                    ("upstream_bytes_bounded", Json::Int(bounded.upstream_bytes)),
                    ("upstream_bytes_unicast", Json::Int(unicast.upstream_bytes)),
                    ("upstream_reduction", Json::Num(*reduction)),
                    ("cache_hits", Json::Int(cached.cache_hits)),
                    ("single_flight_joins", Json::Int(cached.single_flight_joins)),
                    ("evictions_bounded", Json::Int(bounded.evictions)),
                    ("makespan_micros_cached", Json::Int(cached.makespan_micros)),
                    (
                        "makespan_micros_unicast",
                        Json::Int(unicast.makespan_micros),
                    ),
                ])
            },
        )
        .collect();

    let json = Json::obj(vec![
        ("bench", Json::Str("dissemination".into())),
        ("smoke", Json::Bool(smoke)),
        (
            "thread_counts",
            Json::Arr(THREAD_COUNTS.iter().map(|t| Json::Int(*t as u64)).collect()),
        ),
        ("block_size", Json::Int(512)),
        ("bounded_cache_blocks", Json::Int(bounded_cache as u64)),
        ("sweep", Json::Arr(sweep_json)),
        (
            "matrix",
            Json::obj(vec![
                ("completed", Json::Int(u64::from(ref_report.completed))),
                ("upstream_bytes", Json::Int(ref_report.upstream_bytes)),
                ("cache_hits", Json::Int(ref_report.cache_hits)),
                ("cache_misses", Json::Int(ref_report.cache_misses)),
                (
                    "single_flight_joins",
                    Json::Int(ref_report.single_flight_joins),
                ),
                ("evictions", Json::Int(ref_report.evictions)),
                ("makespan_micros", Json::Int(ref_report.makespan_micros)),
            ]),
        ),
        (
            "gates",
            Json::obj(vec![
                ("thread_divergence", Json::Int(0)),
                ("reduction_shortfall", Json::Int(reduction_shortfall)),
                ("image_mismatches", Json::Int(ref_report.image_mismatches)),
            ]),
        ),
        ("metrics", metrics_json(ref_metrics)),
    ]);

    print_table(
        &format!(
            "Dissemination sweep: {} gateways, mesh depth 2",
            if smoke { 2 } else { 4 }
        ),
        &[
            "Fan-out",
            "Loss bps",
            "Upstream cached",
            "Upstream unicast",
            "Reduction",
        ],
        &sweep_rows
            .iter()
            .map(|(fan_out, loss_bps, _, cached, _, unicast, reduction)| {
                vec![
                    fan_out.to_string(),
                    loss_bps.to_string(),
                    cached.upstream_bytes.to_string(),
                    unicast.upstream_bytes.to_string(),
                    format!("{reduction:.1}x"),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n>3x upstream reduction holds at every fan-out >= 8, loss <= 10% point; \
         reports, counters, and traces byte-identical across thread counts"
    );

    std::fs::write("BENCH_dissemination.json", json.render())
        .expect("write BENCH_dissemination.json");
    println!("wrote BENCH_dissemination.json");
}
