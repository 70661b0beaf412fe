//! The three fleet workloads. Each op is one whole campaign over lite
//! devices, repeated with the run's seed until the time is up:
//!
//! * `pointcast` — `run_rollout_sharded` with per-device manifests: every
//!   update pays one server signature and two device P-256 verifies;
//! * `broadcast` — `run_campaign`'s five-stage plan with one shared
//!   manifest, so verification is memoized and decoding, patching and
//!   hashing dominate;
//! * `mesh` — `run_dissemination` through caching gateways over a lossy
//!   two-hop mesh, two campaigns competing for a cache smaller than both.

use upkit_net::{LinkProfile, RetryPolicy};
use upkit_sim::{
    run_campaign_traced, run_dissemination_traced, run_rollout_sharded_traced, CampaignConfig,
    DeviceModel, FleetConfig, ManifestMode, ShardedFleetConfig, TopologyConfig,
};
use upkit_trace::{CountersSnapshot, Tracer};

use crate::device::replay_ab_updates;
use crate::layers::{Attribution, Inputs, UnitCosts};
use crate::measure::{self, median, percentile, repeat_for, timed};
use crate::metrics::{Checks, Outcome, Timed};
use crate::{mix, RunConfig, Workload, THREADS};

const FIRMWARE: usize = 20_000;

/// Size of the v1 → v2 response the rollout seed is normalized to: the
/// median over seeds for a 20 kB image. The firmware generator rewrites a
/// random ~20% of blocks, so the patch, and with it the wire, decode and
/// patch cost, varies by ±30% from seed to seed.
const TARGET_WIRE: u64 = 6_700;

/// The rollout seed and its inputs: the first seed derived from `seed`
/// whose response is within 1% of [`TARGET_WIRE`], so that runs with
/// different seeds do equal work. The mesh serves full images, whose
/// cost does not depend on the seed, and uses `seed` itself.
fn campaign_inputs(workload: Workload, seed: u64) -> (u64, Inputs) {
    if workload == Workload::Mesh {
        return (seed, Inputs::fleet(seed, FIRMWARE));
    }
    (0..)
        .map(|k| mix(seed, k))
        .map(|candidate| (candidate, Inputs::fleet(candidate, FIRMWARE)))
        .find(|(_, inputs)| inputs.prepared.wire_bytes.abs_diff(TARGET_WIRE) * 100 <= TARGET_WIRE)
        .expect("an unbounded search over seeds")
}

/// Campaign size: devices for the rollouts, gateways × devices per
/// gateway for the mesh.
#[derive(Clone, Copy)]
enum Size {
    /// A one-device campaign: the fixed cost every campaign pays (keys,
    /// images, publishing, the one cold diff) and nothing else.
    Setup,
    Run {
        smoke: bool,
    },
}

/// Campaigns are small, 25 to 60 ms each, so that a run holds hundreds of
/// them (see `Timed::end_to_end`).
fn devices(workload: Workload, size: Size) -> (u32, u32) {
    let full = match workload {
        Workload::Pointcast => (1, 100),
        Workload::Broadcast => (1, 200),
        _ => (2, 48),
    };
    match size {
        Size::Setup => (1, 1),
        Size::Run { smoke: false } => full,
        Size::Run { smoke: true } => (full.0.min(2), (full.1 / 50).max(16)),
    }
}

fn rollout_config(seed: u64, devices: u32) -> ShardedFleetConfig {
    ShardedFleetConfig {
        fleet: fleet_config(seed, devices),
        shards: 32,
        threads: THREADS,
        device_model: DeviceModel::Lite,
        verify_signatures: true,
        manifest_mode: ManifestMode::PerDevice,
    }
}

fn campaign_config(seed: u64, devices: u32) -> CampaignConfig {
    CampaignConfig {
        fleet: fleet_config(seed, devices),
        shards: 64,
        threads: THREADS,
        stage_rounds: 4,
        ..CampaignConfig::default()
    }
}

fn fleet_config(seed: u64, devices: u32) -> FleetConfig {
    FleetConfig {
        devices,
        poll_fraction: 0.25,
        firmware_size: FIRMWARE,
        differential: true,
        seed,
    }
}

/// Sessions keep the default poll attempts and the link's default retry
/// policy, except that a frame may be sent eleven times instead of seven.
/// Re-polls of a session that timed out replay its loss stream shifted by
/// one frame, so with seven a device that once loses seven frames in a row
/// (2 × 5% loss per frame) times out on every poll and gives up: one device
/// of 3,072 on about one seed in twelve. Retransmissions beyond the sixth
/// are that rare, so the traffic measured is the default policy's.
fn mesh_config(seed: u64, (gateways, per_gateway): (u32, u32)) -> TopologyConfig {
    TopologyConfig {
        gateways,
        devices_per_gateway: per_gateway,
        mesh_hops: 2,
        backhaul_hops: 1,
        loss_rate: 0.05,
        campaigns: 2,
        firmware_size: FIRMWARE,
        differential: false,
        // 64 blocks of 512 B hold one campaign's 43-block image but not
        // both, and devices wake over ten minutes: the gateways hit, miss,
        // evict, and join in-flight fetches.
        cache_blocks: 64,
        block_size: 512,
        duty: None,
        retry: RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::for_link(&LinkProfile::ieee802154_6lowpan())
        },
        poll_window_micros: 600_000_000,
        verify_signatures: true,
        threads: THREADS,
        seed,
        ..TopologyConfig::default()
    }
}

/// One campaign's result, reduced to what the benchmark reports.
#[derive(Default)]
struct Campaign {
    devices: u64,
    failed: u64,
    wire_bytes: u64,
    rounds: u64,
    events: u64,
    makespan_micros: u64,
    upstream_bytes: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// The whole report, to compare campaigns that must be identical.
    fingerprint: String,
}

/// Runs one campaign through the `_traced` entry point. The plain entry
/// points call it with a counters-only tracer, as the benchmark does, so
/// its counters can be checked.
fn campaign(
    workload: Workload,
    seed: u64,
    size: Size,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Campaign {
    let (gateways, per_gateway) = devices(workload, size);
    let count = gateways * per_gateway;
    match workload {
        Workload::Pointcast => {
            let report = run_rollout_sharded_traced(&rollout_config(seed, count), tracer);
            let updated = report.rounds.last().map_or(0, |r| r.updated);
            checks.check(updated == count, || {
                format!("the rollout updated {updated} of {count} devices")
            });
            Campaign {
                devices: count.into(),
                failed: (count - updated).into(),
                wire_bytes: report.total_wire_bytes,
                rounds: report.rounds.len() as u64,
                fingerprint: format!("{report:?}"),
                ..Campaign::default()
            }
        }
        Workload::Broadcast => {
            let report = run_campaign_traced(&campaign_config(seed, count), tracer);
            checks.check(report.updated == count && report.held == 0, || {
                format!(
                    "the campaign updated {} of {count} devices and held {}",
                    report.updated, report.held
                )
            });
            checks.check(report.halted.is_none(), || {
                format!("campaign halted: {:?}", report.halted)
            });
            checks.check(report.rolled_back == 0, || {
                format!("{} devices rolled back", report.rolled_back)
            });
            Campaign {
                devices: count.into(),
                failed: u64::from(count - report.updated) + u64::from(report.held),
                wire_bytes: report.total_wire_bytes,
                rounds: report.rounds.len() as u64,
                fingerprint: format!("{report:?}"),
                ..Campaign::default()
            }
        }
        _ => {
            let report =
                run_dissemination_traced(&mesh_config(seed, (gateways, per_gateway)), tracer);
            checks.check(report.image_mismatches == 0, || {
                format!("{} installed images differ", report.image_mismatches)
            });
            checks.check(
                report.image_matches == u64::from(report.completed)
                    && report.completed + report.gave_up == count,
                || {
                    format!(
                        "{} devices: {} completed, {} gave up, {} images match",
                        count, report.completed, report.gave_up, report.image_matches
                    )
                },
            );
            Campaign {
                devices: count.into(),
                // Devices that gave up are expected losses: counted as
                // failed, not a broken check.
                failed: report.gave_up.into(),
                wire_bytes: report.downstream_wire_bytes,
                events: report.events,
                makespan_micros: report.makespan_micros,
                upstream_bytes: report.upstream_bytes,
                cache_hits: report.cache_hits,
                cache_misses: report.cache_misses,
                fingerprint: format!("{report:?}"),
                ..Campaign::default()
            }
        }
    }
}

/// The campaigns of a run, with their counters summed.
#[derive(Default)]
struct Campaigns {
    timed: Timed,
    counters: CountersSnapshot,
    /// Process CPU seconds the campaigns took.
    cpu_s: f64,
    first: Campaign,
    campaigns: u64,
}

/// Runs campaigns back to back for `cfg.seconds`, each after a one-device
/// set-up campaign, so that set-ups and campaigns see the same host.
/// Every campaign must reproduce the first one's report.
fn run_campaigns(workload: Workload, cfg: &RunConfig, seed: u64, checks: &mut Checks) -> Campaigns {
    let mut out = Campaigns::default();
    let size = Size::Run { smoke: cfg.smoke };
    repeat_for(cfg.seconds, 2, |rep| {
        let (setup_s, _) = timed(|| {
            campaign(
                workload,
                seed,
                Size::Setup,
                &Tracer::disabled(),
                &mut Checks::default(),
            )
        });
        out.timed.setup_s.push(setup_s);

        let tracer = Tracer::disabled();
        let cpu_start = measure::process_cpu_s();
        let (wall_s, result) = timed(|| campaign(workload, seed, size, &tracer, checks));
        out.cpu_s += measure::process_cpu_s() - cpu_start;
        let counters = tracer.counters().snapshot();
        checks.check(counters.forgeries_accepted == 0, || {
            format!("{} forgeries accepted", counters.forgeries_accepted)
        });
        let sum = &mut out.counters;
        sum.frames_sent += counters.frames_sent;
        sum.retries += counters.retries;
        sum.sig_verifications += counters.sig_verifications;
        sum.sig_verify_memo_hits += counters.sig_verify_memo_hits;
        sum.proxy_evictions += counters.proxy_evictions;
        sum.single_flight_joins += counters.single_flight_joins;

        out.timed
            .push_op(result.devices - result.failed, result.failed, wall_s);
        out.timed.wire_bytes += result.wire_bytes;
        out.campaigns += 1;
        if rep == 0 {
            out.first = result;
        } else {
            checks.check(result.fingerprint == out.first.fingerprint, || {
                format!("campaign {rep} differs from campaign 0")
            });
        }
    });
    out
}

pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        threads: THREADS,
        ..Outcome::default()
    };
    let (seed, inputs) = campaign_inputs(workload, cfg.seed);
    let run = run_campaigns(workload, cfg, seed, &mut out.checks);
    check_wire(workload, &run, &inputs, &mut out.checks);
    if !cfg.trace {
        out.timed = run.timed;
        out.timed.end_to_end(&mut out.metrics);
        return out;
    }

    let units = UnitCosts::measure(&inputs, cfg.replay_budget_s(), THREADS);
    let (sessions, boots) = replay_ab_updates(seed, FIRMWARE, cfg.replay_updates());
    let c = &run.counters;
    let first = &run.first;
    let devices = first.devices.max(1) as f64;
    let campaigns = run.campaigns as f64;
    let wall_s = run.timed.wall_s.max(1e-9);
    let m = &mut out.metrics;
    units.emit(m);
    m.set("core.session_ms_p50", median(&sessions));
    m.set("core.boot_ms_p50", median(&boots));
    m.set("core.boot_ms_p99", percentile(&boots, 99.0));
    let per_item = |count: u64| count as f64 / campaigns / devices;
    m.set("crypto.verifies_per_item", per_item(c.sig_verifications));
    let checked = (c.sig_verify_memo_hits + c.sig_verifications).max(1) as f64;
    m.set(
        "sim.verify_memo_hit_ratio",
        c.sig_verify_memo_hits as f64 / checked,
    );
    m.set("sim.rounds", first.rounds as f64);
    m.set("sim.cpu_util", run.cpu_s / (wall_s * THREADS as f64));
    m.set("net.frames_per_item", per_item(c.frames_sent));
    m.set("net.retries_per_item", per_item(c.retries));
    let served = (first.cache_hits + first.cache_misses).max(1) as f64;
    m.set("net.proxy_hit_ratio", first.cache_hits as f64 / served);
    m.set("net.evictions_per_item", per_item(c.proxy_evictions));
    m.set(
        "net.single_flight_joins_per_item",
        per_item(c.single_flight_joins),
    );
    m.set("net.events_per_s", first.events as f64 * campaigns / wall_s);
    m.set(
        "net.upstream_kb_per_item",
        first.upstream_bytes as f64 / devices / 1000.0,
    );
    m.set("net.makespan_s", first.makespan_micros as f64 / 1e6);
    attribution(workload, &run, &units).emit(run.cpu_s, m);
    out.timed = run.timed;
    out
}

/// The rollouts served every updated device a response of exactly the
/// replayed response's size: the replay runs on the campaign's inputs.
fn check_wire(workload: Workload, run: &Campaigns, inputs: &Inputs, checks: &mut Checks) {
    if matches!(workload, Workload::Pointcast | Workload::Broadcast) {
        let updated = run.first.devices - run.first.failed;
        let expected = updated * inputs.prepared.wire_bytes;
        checks.check(run.first.wire_bytes == expected, || {
            format!(
                "{} wire bytes served, {expected} expected for {updated} devices",
                run.first.wire_bytes
            )
        });
    }
}

/// Replayed unit costs times the traced campaigns' call counts.
fn attribution(workload: Workload, run: &Campaigns, units: &UnitCosts) -> Attribution {
    let campaigns = run.campaigns as f64;
    let updated = (run.first.devices - run.first.failed) as f64 * campaigns;
    let image = units.image_len as f64;
    let digest_us = updated * units.sha_us(image);
    if workload == Workload::Mesh {
        // Mesh devices do not count their verifications: each installed
        // device checked its full-image manifest once.
        return Attribution {
            crypto_us: updated * units.manifest_verify_us + digest_us,
            ..Attribution::default()
        };
    }
    // Each verify_with_keys checks two signatures. Pointcast signs and
    // prepares every response; broadcast signs once per campaign.
    let verify_us = run.counters.sig_verifications as f64 / 2.0 * units.manifest_verify_us;
    let (signs, prepare_us) = if workload == Workload::Pointcast {
        (updated, updated * units.prepare_core_us())
    } else {
        (campaigns, 0.0)
    };
    Attribution {
        crypto_us: verify_us + digest_us + signs * units.sign_us,
        compress_us: updated * units.patch_len as f64 / units.decode_mbps
            + campaigns * units.cold_compress_us(),
        delta_us: updated * image / units.patch_mbps + campaigns * units.cold_delta_us(),
        flash_us: 0.0,
        core_us: prepare_us,
    }
}
