//! Every workload at smoke size: the metrics `BENCHMARK.json` declares
//! are all emitted, finite and in their declared units; the outputs pass
//! their checks on two seeds; and equal seeds give equal counts.

use super::*;

/// Metrics that are a pure function of the seed (counts, sizes, and
/// virtual times), never of the host.
const DETERMINISTIC: &[&str] = &[
    "wire_kb_per_item",
    "crypto.verifies_per_item",
    "flash.bytes_written_per_item",
    "flash.sectors_erased_per_item",
    "core.patch_cache_hit_ratio",
    "net.frames_per_item",
    "net.retries_per_item",
    "net.proxy_hit_ratio",
    "net.evictions_per_item",
    "net.single_flight_joins_per_item",
    "net.upstream_kb_per_item",
    "net.makespan_s",
    "sim.rounds",
    "sim.verify_memo_hit_ratio",
    "sim.fig8a_push_s",
    "sim.fig8a_pull_s",
];

fn smoke(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
    }
}

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn as_array(value: Option<&Json>) -> &[Json] {
    match value {
        Some(Json::Arr(items)) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn as_str(value: Option<&Json>) -> &str {
    match value {
        Some(Json::Str(s)) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Vec<(String, String)> {
    as_array(declared().get(section))
        .iter()
        .map(|m| {
            (
                as_str(m.get("name")).to_string(),
                as_str(m.get("unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_binary_measures() {
    let doc = declared();
    let workloads: Vec<&str> = as_array(doc.get("workloads"))
        .iter()
        .map(|w| as_str(w.get("name")))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    for (section, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let code: Vec<(String, String)> = specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect();
        assert_eq!(declared_metrics(section), code, "{section}");
    }
}

/// Runs `workload` at smoke size in both modes and on two seeds.
fn check_workload(workload: Workload) {
    let traced = run(workload, &smoke(1, true));
    let again = run(workload, &smoke(1, true));
    let plain = run(workload, &smoke(1, false));
    let other_seed = run(workload, &smoke(2, false));
    for (label, outcome) in [
        ("traced", &traced),
        ("traced again", &again),
        ("untraced", &plain),
        ("seed 2", &other_seed),
    ] {
        assert!(
            outcome.checks.0.is_empty(),
            "{} {label}: {:?}",
            workload.name(),
            outcome.checks.0
        );
        assert!(
            outcome.timed.items > 0,
            "{} {label}: no items",
            workload.name()
        );
        assert_eq!(outcome.timed.failed, 0, "{} {label}", workload.name());
    }

    for (outcome, trace, section) in [(&plain, false, "end_to_end"), (&traced, true, "per_layer")] {
        let line = Json::parse(&result_line(outcome, trace)).expect("result line is JSON");
        let Json::Obj(fields) = &line else {
            panic!("the result line is not an object: {line:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(line.get("correct"), Some(Json::Bool(true))));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object: {line:?}");
        };
        let names: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, metric)| (name.clone(), as_str(metric.get("unit")).to_string()))
            .collect();
        assert_eq!(names, declared_metrics(section), "{section}");
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{} {name} = {value:?}",
                workload.name()
            );
        }
    }
    for name in END_TO_END.iter().map(|s| s.name) {
        assert!(
            plain.metrics.get(name).is_some_and(|v| v > 0.0),
            "{name} is 0"
        );
    }

    for &name in DETERMINISTIC {
        let (a, b) = (traced.metrics.get(name), again.metrics.get(name));
        let (a, b) = if a.is_some() {
            (a, b)
        } else {
            (
                plain.metrics.get(name),
                run(workload, &smoke(1, false)).metrics.get(name),
            )
        };
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{} {name}",
            workload.name()
        );
    }
}

#[test]
fn pointcast_smoke() {
    check_workload(Workload::Pointcast);
}

#[test]
fn broadcast_smoke() {
    check_workload(Workload::Broadcast);
}

#[test]
fn device_update_smoke() {
    check_workload(Workload::DeviceUpdate);
}

#[test]
fn generation_smoke() {
    check_workload(Workload::Generation);
}

#[test]
fn mesh_smoke() {
    check_workload(Workload::Mesh);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 2], n=4)
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
}

#[test]
fn arguments_are_checked() {
    let args = |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let ok = args(&[
        "--workload",
        "mesh",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (ok.workload, ok.cfg.seed, ok.cfg.trace),
        (Workload::Mesh, 7, true)
    );
    assert_eq!(ok.cfg.seconds, 3.0);
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--seed", "1"]).is_err());
    assert!(args(&["--workload", "mesh", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "mesh", "--bogus"]).is_err());
}
