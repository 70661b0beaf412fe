//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`)
//! and what one run of a workload hands back.

use std::collections::BTreeMap;

use crate::measure::fastest;

/// A metric's name and unit.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Printed by every untraced run (`--trace 0`). An "item" is a device on
/// the fleet workloads, an update on `device_update`, and a request on
/// `generation`; an "op" is one campaign, one cycle of three updates, or
/// one release's 128 requests. Per-update and per-request latencies,
/// tails included, are per-layer metrics (`core.session_ms_p50`,
/// `core.boot_ms_p99`, `core.prepare_hit_us`, `core.prepare_cold_ms`).
pub const END_TO_END: &[Spec] = &[
    spec("items_per_s", "1/s"),
    spec("op_ms_min", "ms"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
    spec("wire_kb_per_item", "kB"),
];

/// Printed by every traced run (`--trace 1`). Unit costs come from
/// replaying each layer's public function on the workload's own inputs;
/// counts from the library's counters; `_share`s divide replayed cost
/// times counted calls by the process CPU of the traced section.
pub const PER_LAYER: &[Spec] = &[
    spec("crypto.p256_verify_us", "us"),
    spec("crypto.p256_sign_us", "us"),
    spec("crypto.sha256_mbps", "MB/s"),
    spec("crypto.verifies_per_item", "count"),
    spec("crypto.share", "ratio"),
    spec("manifest.verify_us", "us"),
    spec("compress.lzss_decode_mbps", "MB/s"),
    spec("compress.lzss_encode_ms", "ms"),
    spec("compress.share", "ratio"),
    spec("delta.patch_mbps", "MB/s"),
    spec("delta.diff_ms", "ms"),
    spec("delta.suffix_ms", "ms"),
    spec("delta.share", "ratio"),
    spec("flash.write_mbps", "MB/s"),
    spec("flash.bytes_written_per_item", "B"),
    spec("flash.sectors_erased_per_item", "count"),
    spec("flash.share", "ratio"),
    spec("core.session_ms_p50", "ms"),
    spec("core.boot_ms_p50", "ms"),
    spec("core.boot_ms_p99", "ms"),
    spec("core.prepare_hit_us", "us"),
    spec("core.prepare_cold_ms", "ms"),
    spec("core.patch_cache_hit_ratio", "ratio"),
    spec("core.share", "ratio"),
    spec("net.frames_per_item", "count"),
    spec("net.retries_per_item", "count"),
    spec("net.proxy_hit_ratio", "ratio"),
    spec("net.evictions_per_item", "count"),
    spec("net.single_flight_joins_per_item", "count"),
    spec("net.events_per_s", "1/s"),
    spec("net.upstream_kb_per_item", "kB"),
    spec("net.makespan_s", "virtual_s"),
    spec("sim.rounds", "count"),
    spec("sim.verify_memo_hit_ratio", "ratio"),
    spec("sim.cpu_util", "ratio"),
    spec("sim.fig8a_push_s", "virtual_s"),
    spec("sim.fig8a_pull_s", "virtual_s"),
    spec("unattributed_share", "ratio"),
];

/// Metric values by name. Names outside the catalogue are a bug.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Sets every per-layer metric not yet set to zero: counts and ratios
    /// of layers this workload does not exercise.
    pub fn zero_unset_layers(&mut self) {
        for spec in PER_LAYER {
            self.0.entry(spec.name).or_insert(0.0);
        }
    }
}

/// Output checks: each failed one is recorded with its reason.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// What the timed ops of a workload measured. An op is a campaign, a
/// cycle of three updates, or a release's 128 requests.
#[derive(Debug, Default)]
pub struct Timed {
    /// Items completed (devices updated, updates booted, requests served).
    pub items: u64,
    /// Items that failed: unconverged or held devices, devices that gave
    /// up, updates that did not boot v2, requests answered with nothing.
    pub failed: u64,
    /// Wall seconds inside timed ops.
    pub wall_s: f64,
    /// Items completed and wall seconds of every op.
    pub ops: Vec<(u64, f64)>,
    /// Duration of every set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Bytes sent toward devices (or served, on `generation`).
    pub wire_bytes: u64,
}

impl Timed {
    pub fn push_op(&mut self, items: u64, failed: u64, secs: f64) {
        self.items += items;
        self.failed += failed;
        self.wall_s += secs;
        self.ops.push((items, secs));
    }

    pub fn merge(&mut self, other: Timed) {
        self.items += other.items;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.ops.extend(other.ops);
        self.setup_s.extend(other.setup_s);
        self.wire_bytes += other.wire_bytes;
    }

    /// Wall milliseconds of every op.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|&(_, secs)| secs * 1e3).collect()
    }

    pub fn end_to_end(&self, metrics: &mut Metrics) {
        let items = self.items.max(1) as f64;
        // The run's fastest op and fastest set-up. A shared host runs this
        // process at full speed for a while, then up to 1.6× slower, in
        // phases of seconds to minutes, and the share of a run spent in
        // each phase differs from run to run. A median or a low percentile
        // moves with that share. The fastest sample needs only one quiet
        // stretch as long as itself, and ops and set-ups last milliseconds
        // to tens of them, so every run has dozens to thousands.
        let best_rate = self
            .ops
            .iter()
            .map(|&(n, secs)| n as f64 / secs)
            .fold(0.0, f64::max);
        metrics.set("items_per_s", best_rate);
        metrics.set("op_ms_min", fastest(&self.op_ms()));
        metrics.set("setup_s", fastest(&self.setup_s));
        metrics.set("wire_kb_per_item", self.wire_bytes as f64 / items / 1000.0);
    }
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub timed: Timed,
    pub checks: Checks,
    /// Worker threads the workload used.
    pub threads: usize,
}
