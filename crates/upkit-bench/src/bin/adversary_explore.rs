//! Adversarial-input exploration: every untrusted byte surface, mutated,
//! with never-accept / never-panic / bounded-memory proven per case.
//!
//! Runs the `upkit-adversary` explorer over the quickstart A/B scenario:
//! one honest baseline pass captures the frame count, the installed
//! image, and the package corpora, then each `(surface, mutation)` case
//! drives the real acceptance path inside a panic-catching,
//! budget-checked harness. The run fails (exit 1) if any case violates
//! the invariant — and writes each minimized counterexample's reproducer
//! command to `ADVERSARY_repro.txt` so CI can surface it as an artifact.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin adversary_explore [-- --smoke]
//! cargo run --release -p upkit-bench --bin adversary_explore -- \
//!     --repro <mode> <seed> <firmware_size> <slot_size> <surface> <index>
//! ```
//!
//! `--smoke` shrinks the scenario and strides each surface's universe so
//! CI covers every surface in seconds, then compares the output byte for
//! byte with `crates/upkit-bench/baselines/BENCH_adversary_smoke.json`;
//! `--repro` replays exactly one case (the command shape the shrinker
//! emits) and exits non-zero if the invariant fails.

use upkit_adversary::{
    explore_traced, record_baseline, run_case, shrink_violation, AdversaryConfig, AdversaryReport,
    CaseResult, MutationClass,
};
use upkit_bench::{
    counterexamples, exit_on_counterexamples, metrics_json, print_table, repro, Json,
};
use upkit_sim::{WorldConfig, WorldMode};
use upkit_trace::Tracer;

/// `(surface, universe, explored, violations)` for every surface.
fn surface_counts(report: &AdversaryReport) -> Vec<(MutationClass, u64, usize, usize)> {
    let violations = report.violations();
    report
        .universes
        .iter()
        .map(|&(surface, total)| {
            let explored = report.explored.iter().filter(|(s, _)| *s == surface);
            let violated = violations.iter().filter(|c| c.surface == surface);
            (surface, total, explored.count(), violated.count())
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--repro") {
        std::process::exit(repro::<CaseResult>(
            &args[1..],
            |scenario, surface, index| {
                let baseline = record_baseline(scenario);
                run_case(scenario, &baseline, surface, index, &Tracer::disabled())
            },
        ));
    }
    let smoke = args.iter().any(|arg| arg == "--smoke");

    // `--smoke` shrinks the scenario and the per-surface stride, never
    // the surface list: the CI gate always attacks every surface.
    let (firmware_size, slot_size, case_limit) = if smoke {
        (6_000, 4096 * 3, Some(48))
    } else {
        (24_000, 4096 * 8, Some(160))
    };
    let config = AdversaryConfig {
        scenario: WorldConfig {
            seed: 7,
            firmware_size,
            slot_size,
            mode: WorldMode::Ab,
        },
        threads: 4,
        case_limit,
    };

    // One tracer across every case, merged in deterministic case order:
    // the `metrics` section (including `packages_rejected` and the
    // all-important `forgeries_accepted = 0`) is reproducible bit for
    // bit, so CI pins it to the committed baseline.
    let tracer = Tracer::disabled();
    let report = explore_traced(&config, &tracer);
    assert!(
        report.full_coverage(),
        "coverage hole — selected cases and result set disagree"
    );

    let surfaces = surface_counts(&report);
    // Shrinking replays cases against a fresh baseline: record it only
    // when there is a violation to shrink.
    let shrunk = report
        .minimal_violation()
        .and_then(|_| shrink_violation(&config, &record_baseline(&config.scenario), &report));
    let repro_lines = counterexamples("", &report, shrunk, |surface, index| {
        format!("surface {} index {index}", surface.label())
    });

    print_table(
        &format!(
            "Adversarial-input exploration ({firmware_size} B firmware, {} surfaces)",
            MutationClass::ALL.len()
        ),
        &["Surface", "Universe", "Explored", "Violations"],
        &surfaces
            .iter()
            .map(|&(surface, total, explored, violations)| {
                vec![
                    surface.label().to_string(),
                    total.to_string(),
                    explored.to_string(),
                    violations.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nEach case applies one structure-aware mutation (bit flip,\n\
         truncation, extension, zeroing, frame corrupt/reorder/duplicate/\n\
         inject/drop, or a stale-nonce / wrong-device stream replay) and\n\
         asserts the device either installs a byte-identical valid update\n\
         or returns a typed rejection, never panics, never decodes past\n\
         the slot budget, and still boots to a fixed point."
    );

    let surfaces_json = surfaces
        .iter()
        .map(|&(surface, total, explored, _)| {
            Json::obj(vec![
                ("surface", Json::Str(surface.label().into())),
                ("universe", Json::Int(total)),
                ("explored", Json::Int(explored as u64)),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("bench", Json::Str("adversary_explore".into())),
        ("smoke", Json::Bool(smoke)),
        ("firmware_bytes", Json::Int(firmware_size as u64)),
        ("cases", Json::Int(report.cases.len() as u64)),
        ("violations", Json::Int(report.violations().len() as u64)),
        ("panics", Json::Int(report.panics() as u64)),
        ("surfaces", Json::Arr(surfaces_json)),
        ("metrics", metrics_json(&tracer.counters().snapshot())),
    ]);
    std::fs::write("BENCH_adversary.json", json.render()).expect("write BENCH_adversary.json");
    println!("\nwrote BENCH_adversary.json");

    exit_on_counterexamples(
        "ADVERSARY_repro.txt",
        "adversarial-input violations found",
        &repro_lines,
    );
}
