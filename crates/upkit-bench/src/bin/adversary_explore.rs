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
    explore_traced, mode_from_label, record_baseline, repro_command, shrink_violation,
    AdversaryConfig, AdversaryReport, MutationClass,
};
use upkit_bench::{metrics_json, print_table, Json};
use upkit_sim::{WorldConfig, WorldMode};
use upkit_trace::Tracer;

fn repro(args: &[String]) -> i32 {
    let usage = "usage: adversary_explore --repro <mode> <seed> <firmware_size> <slot_size> \
                 <surface> <index>";
    let [mode, seed, firmware_size, slot_size, surface, index] = args else {
        eprintln!("{usage}");
        return 2;
    };
    let (Some(mode), Ok(seed), Ok(firmware_size), Ok(slot_size), Some(surface), Ok(index)) = (
        mode_from_label(mode),
        seed.parse::<u64>(),
        firmware_size.parse::<usize>(),
        slot_size.parse::<u32>(),
        MutationClass::from_label(surface),
        index.parse::<u64>(),
    ) else {
        eprintln!("{usage}");
        return 2;
    };
    let scenario = WorldConfig {
        seed,
        firmware_size,
        slot_size,
        mode,
    };
    let baseline = record_baseline(&scenario);
    let case =
        upkit_adversary::run_case(&scenario, &baseline, surface, index, 8, &Tracer::disabled());
    println!("{case:#?}");
    i32::from(!case.ok())
}

fn surface_rows(report: &AdversaryReport) -> Vec<Vec<String>> {
    report
        .universes
        .iter()
        .map(|&(surface, total)| {
            let explored = report
                .explored
                .iter()
                .filter(|(s, _)| *s == surface)
                .count();
            let violations = report
                .violations()
                .iter()
                .filter(|c| c.surface == surface)
                .count();
            vec![
                surface.label().to_string(),
                total.to_string(),
                explored.to_string(),
                violations.to_string(),
            ]
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--repro") {
        std::process::exit(repro(&args[1..]));
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
        max_boots: 8,
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

    let mut repro_lines = Vec::new();
    if let Some(shrunk) = {
        let baseline = record_baseline(&config.scenario);
        shrink_violation(&config, &baseline, &report)
    } {
        repro_lines.push(format!(
            "surface {} index {} — {}\n  reproduce: {}",
            shrunk.case.surface.label(),
            shrunk.case.index,
            shrunk.case.violation.as_deref().unwrap_or("violation"),
            shrunk.command
        ));
        for violation in report.violations() {
            repro_lines.push(format!(
                "  also at surface {} index {}: {}",
                violation.surface.label(),
                violation.index,
                repro_command(&config.scenario, violation.surface, violation.index)
            ));
        }
    }

    print_table(
        &format!(
            "Adversarial-input exploration ({firmware_size} B firmware, {} surfaces)",
            MutationClass::ALL.len()
        ),
        &["Surface", "Universe", "Explored", "Violations"],
        &surface_rows(&report),
    );
    println!(
        "\nEach case applies one structure-aware mutation (bit flip,\n\
         truncation, extension, zeroing, frame corrupt/reorder/duplicate/\n\
         inject/drop, or a stale-nonce / wrong-device stream replay) and\n\
         asserts the device either installs a byte-identical valid update\n\
         or returns a typed rejection, never panics, never decodes past\n\
         the slot budget, and still boots to a fixed point."
    );

    let surfaces_json = report
        .universes
        .iter()
        .map(|&(surface, total)| {
            Json::obj(vec![
                ("surface", Json::Str(surface.label().into())),
                ("universe", Json::Int(total)),
                (
                    "explored",
                    Json::Int(
                        report
                            .explored
                            .iter()
                            .filter(|(s, _)| *s == surface)
                            .count() as u64,
                    ),
                ),
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

    if !repro_lines.is_empty() {
        let body = repro_lines.join("\n") + "\n";
        std::fs::write("ADVERSARY_repro.txt", &body).expect("write ADVERSARY_repro.txt");
        eprintln!("\nadversarial-input violations found:\n{body}");
        std::process::exit(1);
    }
}
