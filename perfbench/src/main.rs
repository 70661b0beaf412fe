//! One benchmark for the whole UpKit update chain.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pointcast|broadcast|device_update|generation|mesh> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat N]
//! ```
//!
//! Each process runs one workload, prints every metric with its unit and
//! a host block, checks the outputs, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones (see
//! `metrics.rs` and `README.md`). A failed output check makes the exit
//! code 1. `--repeat N` runs the workload in N child processes with seeds
//! `seed`, `seed + 1`, … and prints the median and quartiles of every
//! metric.

mod device;
mod fleet;
mod layers;
mod measure;
mod metrics;
mod server;

use std::process::ExitCode;

use metrics::{Outcome, Spec, END_TO_END, PER_LAYER};
use upkit_bench::Json;

/// Worker threads every multi-threaded workload uses.
pub const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pointcast,
    Broadcast,
    DeviceUpdate,
    Generation,
    Mesh,
}

impl Workload {
    pub const ALL: [Self; 5] = [
        Self::Pointcast,
        Self::Broadcast,
        Self::DeviceUpdate,
        Self::Generation,
        Self::Mesh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::Pointcast => "pointcast",
            Self::Broadcast => "broadcast",
            Self::DeviceUpdate => "device_update",
            Self::Generation => "generation",
            Self::Mesh => "mesh",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one process runs its workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Wall seconds the timed loop runs for.
    pub seconds: f64,
    /// Per-layer run: counters, spans and replays instead of end-to-end.
    pub trace: bool,
    /// About 1/50 of the normal sizes.
    pub smoke: bool,
}

impl RunConfig {
    /// Seconds each replayed unit cost is measured for.
    pub fn replay_budget_s(&self) -> f64 {
        if self.smoke {
            0.002
        } else {
            0.15
        }
    }

    /// A/B updates replayed for session and boot spans on workloads that
    /// do not run the agent themselves.
    pub fn replay_updates(&self) -> usize {
        if self.smoke {
            3
        } else {
            40
        }
    }
}

/// SplitMix64 of `a` and `b`: derives every sub-seed from the run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    let mut outcome = match workload {
        Workload::Pointcast | Workload::Broadcast | Workload::Mesh => fleet::run(workload, cfg),
        Workload::DeviceUpdate => device::run(cfg),
        Workload::Generation => server::run(cfg),
    };
    if cfg.trace {
        outcome.metrics.zero_unset_layers();
    } else {
        outcome.metrics.set("peak_rss_mb", measure::peak_rss_mb());
    }
    outcome
}

/// The metrics this mode reports.
pub fn specs(trace: bool) -> &'static [Spec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The final JSON line.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = specs(trace)
        .iter()
        .map(|spec| {
            let value = outcome
                .metrics
                .get(spec.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(spec.name),
                number(value),
                quote(spec.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.0.is_empty(),
        outcome.timed.items + outcome.timed.failed,
        outcome.timed.failed,
        metrics.join(", ")
    )
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    Json::Str(s.to_string()).render().trim_end().to_string()
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn host_line(workload: Workload, cfg: &RunConfig, outcome: &Outcome, cpu_s: f64) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let op_ms = outcome.timed.op_ms();
    format!(
        "host {{\"workload\": {}, \"cores\": {}, \"threads\": {}, \"profile\": {}, \"cpu\": {}, \
         \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"timed_wall_s\": {}, \"process_cpu_s\": {}, \
         \"peak_rss_mb\": {}, \"ops\": {}, \"op_ms_p10\": {}, \"op_ms_p50\": {}, \
         \"op_ms_p90\": {}, \"setups\": {}, \"setup_s_p50\": {}}}",
        quote(workload.name()),
        measure::cores(),
        outcome.threads,
        quote(profile),
        quote(&measure::cpu_model()),
        cfg.seed,
        cfg.trace,
        cfg.smoke,
        number(outcome.timed.wall_s),
        number(cpu_s),
        number(measure::peak_rss_mb()),
        outcome.timed.ops.len(),
        number(measure::percentile(&op_ms, 10.0)),
        number(measure::percentile(&op_ms, 50.0)),
        number(measure::percentile(&op_ms, 90.0)),
        outcome.timed.setup_s.len(),
        number(measure::median(&outcome.timed.setup_s)),
    )
}

const USAGE: &str =
    "usage: benchmark --workload <pointcast|broadcast|device_update|generation|mesh> \
                     [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke] [--repeat N]";

struct Args {
    workload: Workload,
    cfg: RunConfig,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 24.0,
        trace: false,
        smoke: false,
    };
    let mut repeat = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => cfg.trace = true,
            "--smoke" => cfg.smoke = true,
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat needs at least 1".into());
                }
                repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        cfg,
        repeat,
    })
}

/// Caps glibc's malloc arenas at one per worker thread plus the main
/// thread's. By default the threads every campaign spawns afresh get new
/// arenas, up to eight per core, so peak RSS would grow with the number of
/// campaigns a run fits in, that is with the host's speed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt only sets an allocator parameter, and no other
    // thread exists yet.
    unsafe {
        mallopt(M_ARENA_MAX, THREADS as i32 + 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() -> ExitCode {
    cap_malloc_arenas();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(count) = args.repeat {
        return repeat(&args, count);
    }

    let (cfg, workload) = (&args.cfg, args.workload);
    let cpu_start = measure::process_cpu_s();
    let outcome = run(workload, cfg);
    let cpu_s = measure::process_cpu_s() - cpu_start;
    for spec in specs(cfg.trace) {
        let value = outcome.metrics.get(spec.name).unwrap_or(f64::NAN);
        println!("{:<36} {:>16.6} {}", spec.name, value, spec.unit);
    }
    println!("{}", host_line(workload, cfg, &outcome, cpu_s));
    for failure in &outcome.checks.0 {
        eprintln!("check failed: {failure}");
    }
    println!("{}", result_line(&outcome, cfg.trace));
    if outcome.checks.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: N child processes (one workload each, so peak RSS stays
/// per run) with seeds `seed`, `seed + 1`, …; prints the median,
/// quartiles and spread (IQR ÷ median) of every metric.
fn repeat(args: &Args, count: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = &args.cfg;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); specs(cfg.trace).len()];
    for i in 0..count as u64 {
        let mut child = std::process::Command::new(&exe);
        child.args([
            "--workload",
            args.workload.name(),
            "--seed",
            &(cfg.seed + i).to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
            "--trace",
            if cfg.trace { "1" } else { "0" },
        ]);
        if cfg.smoke {
            child.arg("--smoke");
        }
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("cannot run the benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().map(Json::parse);
        let Some(Ok(result)) = result.filter(|_| output.status.success()) else {
            eprintln!(
                "run {i} failed ({}):\n{stdout}{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
            return ExitCode::FAILURE;
        };
        for (spec, column) in specs(cfg.trace).iter().zip(&mut values) {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            column.push(value.unwrap_or(f64::NAN));
        }
    }
    println!(
        "{} x{count}, seeds {}..{}",
        args.workload.name(),
        cfg.seed,
        cfg.seed + count as u64 - 1
    );
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (spec, column) in specs(cfg.trace).iter().zip(&values) {
        let (q1, med, q3) = quartiles(column);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        println!(
            "{:<36} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>7.2}% {}",
            spec.name,
            spread * 100.0,
            spec.unit
        );
    }
    ExitCode::SUCCESS
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as i64;
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: i64| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        let (lo, hi) = (sorted[j as usize - 1], sorted[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests;
