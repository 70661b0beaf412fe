//! `device_update`: two clients, each updating real device worlds — agent,
//! streaming pipeline, flash layout and bootloader — one at a time. Each
//! cycle builds three worlds (set-up, timed apart) and updates each with
//! `run_push_once` followed by `reboot`; the op is the cycle's three
//! updates, one of each kind:
//!
//! * A/B, a 100 kB full image booted in place;
//! * static swap with a recovery slot, 40 kB, swapped at boot;
//! * three components staged and committed through the journal.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use upkit_core::image::FIRMWARE_OFFSET;
use upkit_flash::SimFlash;
use upkit_manifest::{Version, SIGNED_MANIFEST_LEN};
use upkit_net::SessionOutcome;
use upkit_sim::{
    run_scenario, update_world, world_geometry, Approach, ScenarioConfig, UpdateWorld, WorldConfig,
    WorldMode,
};

use crate::layers::{Attribution, Inputs, UnitCosts};
use crate::measure::{self, median, percentile, timed};
use crate::metrics::{Checks, Outcome, Timed};
use crate::{mix, RunConfig, THREADS};

const AB_FIRMWARE: usize = 100_000;
const MODES: [&str; 3] = ["ab", "static_swap", "multi3"];

/// Smallest slot (whole 4 KiB sectors) holding a header plus the
/// OS-version change of a `firmware_size` image, which grows by 1.5 kB.
fn slot_for(firmware_size: usize) -> u32 {
    (firmware_size as u32 + 1536 + FIRMWARE_OFFSET).div_ceil(4096) * 4096
}

fn ab_world(seed: u64, firmware_size: usize) -> WorldConfig {
    WorldConfig {
        seed,
        firmware_size,
        slot_size: slot_for(firmware_size),
        mode: WorldMode::Ab,
    }
}

fn cycle_worlds(seed: u64) -> [WorldConfig; 3] {
    [
        ab_world(seed, AB_FIRMWARE),
        WorldConfig::static_swap(seed, true),
        WorldConfig::multi(seed, 3),
    ]
}

fn build(config: &WorldConfig) -> UpdateWorld {
    update_world(config, Box::new(SimFlash::new(world_geometry(config))))
}

/// What one update did, timed and counted.
struct Update {
    session_s: f64,
    boot_s: f64,
    outcome: SessionOutcome,
    booted: Option<Version>,
    bytes_written: u64,
    sectors_erased: u64,
    verifies: u64,
    wire_bytes: u64,
    firmware_bytes: u64,
}

fn run_update(world: &mut UpdateWorld, nonce: u32) -> Update {
    let (session_s, outcome) = timed(|| world.run_push_once(nonce));
    let (boot_s, booted) = timed(|| world.reboot());
    let stats = world.layout.total_stats();
    let counters = world.layout.tracer().counters().snapshot();
    let (wire_bytes, firmware_bytes) = match &world.multi {
        Some(multi) => {
            let images: usize = multi.images.iter().map(|i| i.firmware.len()).sum();
            let wire = multi.record.wire_len() + multi.images.len() * SIGNED_MANIFEST_LEN + images;
            (wire as u64, images as u64)
        }
        None => (
            counters.pipeline_bytes_in + SIGNED_MANIFEST_LEN as u64,
            world.firmware_v2.len() as u64,
        ),
    };
    Update {
        session_s,
        boot_s,
        outcome,
        booted,
        bytes_written: stats.bytes_written,
        sectors_erased: stats.sectors_erased,
        verifies: counters.sig_verifications,
        wire_bytes,
        firmware_bytes,
    }
}

/// Everything a run of update cycles recorded.
#[derive(Default)]
struct Cycles {
    timed: Timed,
    session_ms: Vec<f64>,
    boot_ms: Vec<f64>,
    bytes_written: u64,
    sectors_erased: u64,
    verifies: u64,
    sha_bytes: u64,
}

impl Cycles {
    fn merge(&mut self, other: Self) {
        self.timed.merge(other.timed);
        self.session_ms.extend(other.session_ms);
        self.boot_ms.extend(other.boot_ms);
        self.bytes_written += other.bytes_written;
        self.sectors_erased += other.sectors_erased;
        self.verifies += other.verifies;
        self.sha_bytes += other.sha_bytes;
    }
}

/// Runs update cycles on two clients for `cfg.seconds` and returns them
/// with the process CPU ÷ (wall × clients). The clients claim cycles from
/// one counter, and every update is checked. The host slows one core at a
/// time for seconds on end; with a client per core, most cycles still run
/// at full speed.
fn run_cycles(cfg: &RunConfig, checks: &mut Checks) -> (Cycles, f64) {
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let cpu_start = measure::process_cpu_s();
    let (wall_s, clients) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| scope.spawn(|| client(cfg, &next, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("update client"))
                .collect::<Vec<_>>()
        })
    });
    let cpu_util = (measure::process_cpu_s() - cpu_start) / (wall_s * THREADS as f64).max(1e-9);
    let mut out = Cycles::default();
    for (cycles, client_checks) in clients {
        out.merge(cycles);
        checks.0.extend(client_checks.0);
    }
    (out, cpu_util)
}

/// One client: claims cycles until the deadline has passed and the run
/// holds at least two cycles.
fn client(cfg: &RunConfig, next: &AtomicUsize, deadline: Instant) -> (Cycles, Checks) {
    let mut out = Cycles::default();
    let mut checks = Checks::default();
    loop {
        let cycle = next.fetch_add(1, Ordering::Relaxed);
        if cycle >= 2 && Instant::now() >= deadline {
            return (out, checks);
        }
        let (build_s, worlds) =
            timed(|| cycle_worlds(mix(cfg.seed, cycle as u64)).map(|c| build(&c)));
        out.timed.setup_s.push(build_s);
        let (mut items, mut failed, mut update_s) = (0u64, 0u64, 0.0);
        for (mode, mut world) in worlds.into_iter().enumerate() {
            let update = run_update(&mut world, cycle as u32 + 1);
            check_update(&mut world, &update, mode, cycle, &mut checks);
            let ok = update.booted == Some(Version(2));
            items += u64::from(ok);
            failed += u64::from(!ok);
            update_s += update.session_s + update.boot_s;
            out.timed.wire_bytes += update.wire_bytes;
            out.session_ms.push(update.session_s * 1e3);
            out.boot_ms.push(update.boot_s * 1e3);
            out.bytes_written += update.bytes_written;
            out.sectors_erased += update.sectors_erased;
            out.verifies += update.verifies;
            // The agent hashes the image as it streams, the bootloader
            // again before it boots it.
            out.sha_bytes += 2 * update.firmware_bytes;
        }
        out.timed.push_op(items, failed, update_s);
    }
}

/// The update completed and booted v2; a multi-component world holds v2
/// in every component and no mixed set.
fn check_update(
    world: &mut UpdateWorld,
    update: &Update,
    mode: usize,
    cycle: usize,
    checks: &mut Checks,
) {
    let ok =
        matches!(update.outcome, SessionOutcome::Complete) && update.booted == Some(Version(2));
    checks.check(ok, || {
        format!(
            "{} update (cycle {cycle}) ended {:?} and booted {:?}",
            MODES[mode], update.outcome, update.booted
        )
    });
    if world.multi.is_some() {
        let versions = world.component_versions();
        let all_v2 = versions.iter().all(|v| *v == Some(Version(2)));
        let mixed = world.component_set_mixed();
        checks.check(all_v2 && !mixed, || {
            format!("multi update (cycle {cycle}) left components at {versions:?}")
        });
    }
}

/// Session and boot spans of `count` A/B updates of a `firmware_size`
/// image: the agent and bootloader costs for workloads that do not run
/// them themselves.
pub fn replay_ab_updates(seed: u64, firmware_size: usize, count: usize) -> (Vec<f64>, Vec<f64>) {
    let mut sessions = Vec::with_capacity(count);
    let mut boots = Vec::with_capacity(count);
    for i in 0..count {
        let mut world = build(&ab_world(mix(seed, i as u64), firmware_size));
        let update = run_update(&mut world, 1);
        assert_eq!(update.booted, Some(Version(2)), "replayed update boots v2");
        sessions.push(update.session_s * 1e3);
        boots.push(update.boot_s * 1e3);
    }
    (sessions, boots)
}

/// The paper's Fig. 8a scenario: total virtual seconds of one update.
fn fig8a(approach: Approach, seed: u64, checks: &mut Checks) -> f64 {
    let result = run_scenario(&ScenarioConfig {
        seed,
        ..ScenarioConfig::fig8a(approach)
    });
    let ok = matches!(result.outcome, SessionOutcome::Complete)
        && result.running_version == Some(Version(2));
    checks.check(ok, || {
        format!(
            "fig8a {approach:?} ended {:?} running {:?}",
            result.outcome, result.running_version
        )
    });
    result.phases.total_micros() as f64 / 1e6
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        threads: THREADS,
        ..Outcome::default()
    };
    let push_s = fig8a(Approach::Push, cfg.seed, &mut out.checks);
    let pull_s = fig8a(Approach::Pull, cfg.seed, &mut out.checks);
    let (cycles, cpu_util) = run_cycles(cfg, &mut out.checks);
    if !cfg.trace {
        out.timed = cycles.timed;
        out.timed.end_to_end(&mut out.metrics);
        return out;
    }

    let m = &mut out.metrics;
    let items = cycles.timed.items.max(1) as f64;
    // The A/B world of cycle 0: keys and firmware both from its seed.
    let seed = mix(cfg.seed, 0);
    let units = UnitCosts::measure(
        &Inputs::generated(seed, seed, AB_FIRMWARE),
        cfg.replay_budget_s(),
        THREADS,
    );
    units.emit(m);
    m.set("crypto.verifies_per_item", cycles.verifies as f64 / items);
    m.set(
        "flash.bytes_written_per_item",
        cycles.bytes_written as f64 / items,
    );
    m.set(
        "flash.sectors_erased_per_item",
        cycles.sectors_erased as f64 / items,
    );
    m.set("core.session_ms_p50", median(&cycles.session_ms));
    m.set("core.boot_ms_p50", median(&cycles.boot_ms));
    m.set("core.boot_ms_p99", percentile(&cycles.boot_ms, 99.0));
    m.set("sim.cpu_util", cpu_util);
    m.set("sim.fig8a_push_s", push_s);
    m.set("sim.fig8a_pull_s", pull_s);
    // Shares of the timed update spans (each runs on one thread, so its
    // wall is its CPU): the untimed world builds stay out of the
    // denominator.
    Attribution {
        crypto_us: cycles.verifies as f64 * units.verify_us + units.sha_us(cycles.sha_bytes as f64),
        flash_us: cycles.bytes_written as f64 / units.flash_write_mbps,
        ..Attribution::default()
    }
    .emit(cycles.timed.wall_s, m);
    out.timed = cycles.timed;
    out
}
