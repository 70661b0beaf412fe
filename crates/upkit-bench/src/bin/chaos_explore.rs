//! Crash-consistency exploration: every flash-op boundary, every fault
//! class, never-brick proven per case.
//!
//! Runs the `upkit-chaos` explorer over the quickstart A/B scenario and
//! the static-swap-with-recovery scenario: one fault-free recording pass
//! enumerates every mutating flash op, then each `(boundary, fault)`
//! pair is re-executed with the fault injected and rebooted to a fixed
//! point. The run fails (exit 1) if any case violates the invariant —
//! and writes each minimized counterexample's reproducer command to
//! `CHAOS_repro.txt` so CI can surface it as an artifact.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin chaos_explore \
//!     [-- --smoke] [--components N]
//! cargo run --release -p upkit-bench --bin chaos_explore -- \
//!     --repro <mode> <seed> <firmware_size> <slot_size> <fault> <boundary>
//! ```
//!
//! `--smoke` shrinks the scenarios so CI explores them exhaustively in
//! seconds; `--components N` (2 ..= 8) adds an N-component transactional
//! scenario, whose cases additionally assert the never-mixed-set
//! invariant (`mixed_set_violations` in the metrics section, pinned to
//! zero by the committed baseline); `--repro` replays exactly one case
//! (the command shape the shrinker emits) and exits non-zero if the
//! invariant fails. CI compares the `--components 3 --smoke` output
//! byte for byte with
//! `crates/upkit-bench/baselines/BENCH_chaos_smoke.json`.

use upkit_bench::{
    counterexamples, exit_on_counterexamples, metrics_json, print_table, repro, Json,
};
use upkit_chaos::{explore_traced, run_case, shrink_violation, CaseResult, ChaosConfig};
use upkit_sim::failure::mode_label;
use upkit_sim::{WorldConfig, WorldMode};
use upkit_trace::Tracer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--repro") {
        std::process::exit(repro::<CaseResult>(
            &args[1..],
            |scenario, fault, boundary| run_case(scenario, boundary, fault, &Tracer::disabled()),
        ));
    }
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let components: Option<u8> =
        args.windows(2)
            .find(|pair| pair[0] == "--components")
            .map(|pair| match pair[1].parse() {
                Ok(n) if (2..=8).contains(&n) => n,
                _ => {
                    eprintln!("--components takes a count in 2 ..= 8, got {:?}", pair[1]);
                    std::process::exit(2);
                }
            });

    // Exhaustive in both profiles: `--smoke` shrinks the *scenario*, not
    // the boundary coverage, so the CI gate still proves every boundary
    // of its (smaller) update.
    let (firmware_size, slot_size) = if smoke {
        (6_000, 4096 * 3)
    } else {
        (24_000, 4096 * 8)
    };
    let mut scenarios = vec![
        ("quickstart-ab", WorldMode::Ab),
        ("static-recovery", WorldMode::StaticSwap { recovery: true }),
    ];
    if let Some(components) = components {
        // An N-module set behind the transactional commit journal: every
        // staging write, the journal record, and every replay copy is a
        // boundary, so cuts between component swaps and double cuts
        // mid-replay are all in the case universe.
        let mode = WorldMode::Multi { components };
        scenarios.push((mode_label(mode), mode));
    }

    // One tracer across every case of every scenario, merged in
    // deterministic case order: the `metrics` section (including
    // `faults_injected` and the all-important `fault_violations = 0`) is
    // reproducible bit for bit, so CI pins it to the committed baseline.
    let tracer = Tracer::disabled();
    let mut rows = Vec::new();
    let mut scenario_json = Vec::new();
    let mut repro_lines = Vec::new();
    for (label, mode) in scenarios {
        let config = ChaosConfig {
            scenario: WorldConfig {
                seed: 7,
                firmware_size,
                slot_size,
                mode,
            },
            threads: 4,
            boundary_limit: None,
        };
        let report = explore_traced(&config, &tracer);
        assert!(report.recorded_ops > 0, "{label}: recording found no ops");
        assert!(
            report.full_coverage(),
            "{label}: coverage hole — explored boundaries and case set disagree"
        );
        repro_lines.extend(counterexamples(
            &format!("{label}: "),
            &report,
            shrink_violation(&config, &report),
            |fault, boundary| format!("boundary {boundary} fault {}", fault.label()),
        ));
        rows.push(vec![
            label.to_string(),
            report.recorded_ops.to_string(),
            report.explored.len().to_string(),
            report.cases.len().to_string(),
            report.violations().len().to_string(),
            report.max_boots_to_recovery.to_string(),
        ]);
        scenario_json.push(Json::obj(vec![
            ("scenario", Json::Str(label.into())),
            ("boundaries", Json::Int(report.recorded_ops as u64)),
            ("cases", Json::Int(report.cases.len() as u64)),
            ("violations", Json::Int(report.violations().len() as u64)),
            (
                "max_boots_to_recovery",
                Json::Int(u64::from(report.max_boots_to_recovery)),
            ),
        ]));
    }

    print_table(
        &format!("Crash-consistency exploration ({firmware_size} B firmware, 5 fault classes)"),
        &[
            "Scenario",
            "Boundaries",
            "Explored",
            "Cases",
            "Violations",
            "Max boots",
        ],
        &rows,
    );
    println!(
        "\nEach case injects one fault (clean cut, torn write, torn erase,\n\
         post-cut bit flip, or double cut) at one recorded flash-op\n\
         boundary, then reboots to a fixed point and checks the booted\n\
         slot still carries a valid dual signature at version ≥ the\n\
         pre-update one."
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("chaos_explore".into())),
        ("smoke", Json::Bool(smoke)),
        ("firmware_bytes", Json::Int(firmware_size as u64)),
        ("scenarios", Json::Arr(scenario_json)),
        ("metrics", metrics_json(&tracer.counters().snapshot())),
    ]);
    std::fs::write("BENCH_chaos.json", json.render()).expect("write BENCH_chaos.json");
    println!("\nwrote BENCH_chaos.json");

    exit_on_counterexamples(
        "CHAOS_repro.txt",
        "never-brick violations found",
        &repro_lines,
    );
}
