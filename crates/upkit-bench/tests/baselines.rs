//! The committed smoke baselines hold only what the code computes.
//!
//! CI compares every smoke output with its baseline byte for byte: each
//! bin's JSON with `baselines/BENCH_<x>_smoke.json` and its stdout with
//! `baselines/stdout/<bin>.txt`. A leaf or a line that reads a clock or
//! the host (a wall time, a speedup, a rate, the core count or a thread
//! count derived from it) would make those gates flaky, so none may come
//! back. Host time is perfbench's to measure.

use std::path::Path;

use upkit_bench::Json;

/// Key fragments that name a clock reading or a host fact.
const HOST_KEYS: [&str; 6] = [
    "wall",
    "speedup",
    "per_sec",
    "_ms",
    "cores",
    "worker_threads",
];

/// Appends the dotted path of every key under `json` that names a clock
/// reading or a host fact.
fn host_keys(json: &Json, path: &str, found: &mut Vec<String>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let path = format!("{path}.{key}");
                if HOST_KEYS.iter().any(|host| key.contains(host)) {
                    found.push(path.clone());
                }
                host_keys(value, &path, found);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                host_keys(item, &format!("{path}.{i}"), found);
            }
        }
        _ => {}
    }
}

#[test]
fn committed_baselines_hold_no_host_facts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut files = 0;
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("baselines directory") {
        let entry = entry.expect("baselines entry");
        if entry.path().is_dir() {
            // `stdout/`, checked by `committed_stdout_pins_hold_no_host_facts`.
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(entry.path()).expect("readable baseline");
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        host_keys(&json, &name, &mut found);
        files += 1;
    }
    assert_eq!(files, 6, "one baseline per CI smoke gate");
    assert!(
        found.is_empty(),
        "committed baselines name clock readings or host facts: {found:?}"
    );
}

#[test]
fn committed_stdout_pins_hold_no_host_facts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/stdout");
    let mut pins = 0;
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("stdout pin directory") {
        let entry = entry.expect("stdout pin entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(entry.path()).expect("readable stdout pin");
        for (number, line) in text.lines().enumerate() {
            if HOST_KEYS.iter().any(|host| line.contains(host)) {
                found.push(format!("{name}:{}", number + 1));
            }
        }
        pins += 1;
    }
    assert_eq!(pins, 6, "one stdout pin per CI smoke run");
    assert!(
        found.is_empty(),
        "committed stdout pins name clock readings or host facts: {found:?}"
    );
}
