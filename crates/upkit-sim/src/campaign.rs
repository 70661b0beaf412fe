//! Staged campaign orchestration over a sharded lite-device fleet.
//!
//! Fleet-scale update systems do not flip a release on for everyone at
//! once: they move it through **channels** (dogfood → beta → prod), open
//! each channel **fractionally** (10% → 50% → 100% of the population),
//! target cohorts by OS profile and installed version, and watch fleet
//! health while the stage is open — halting and rolling back the moment
//! boot failures, accepted forgeries, or retry storms regress. This module
//! reproduces that discipline (the Omaha/Fuchsia model) on top of the
//! sharded rollout engine in [`crate::fleet`], with the same contract:
//! **the outcome is a pure function of the configuration**, never of the
//! thread count or scheduling.
//!
//! # Determinism under parallelism
//!
//! Health decisions are global (they read the whole fleet's counters), but
//! a stop-the-world barrier per round is exactly the scaling bug this
//! engine exists to avoid. Instead, shards advance in **lock-step windows
//! of `K + 1` rounds**, where `K` is [`HealthPolicy::decision_latency`]:
//! the decision for round `r` — which stage is open, whether the campaign
//! halts — is a pure function of every shard's round summaries for rounds
//! `≤ r − K − 1`, so every decision inside a window reads only summaries
//! from before that window. The coordinator decides a whole window up
//! front, each shard runs it as one worker-pool task without waiting on
//! anyone, and the summaries are folded after the window's join. The cost
//! is one join every `K + 1` rounds; the halt round is decided by virtual
//! time alone, so scheduling cannot move it. The first `K + 1` rounds use
//! the initial stage unconditionally, modelling the real-world lag between
//! a metric regressing and the rollout system reacting.
//!
//! Per-shard, per-round trace deltas are merged after the last window in
//! (round, shard-index) order exactly as in [`crate::fleet`], so reports,
//! counters, and merged traces are byte-identical at any thread count —
//! proven by `tests/campaign_determinism.rs`.

use std::sync::Mutex;

use rand::rngs::StdRng;
use upkit_delta::pool::parallel_map;
use upkit_manifest::Version;
use upkit_trace::{Counters, CountersSnapshot, Event, TraceRecord, Tracer};

use crate::device::PollOutcome;
use crate::fleet::{
    per_round, poll_sample, shard_plan, FleetConfig, FleetEnv, ManifestMode, ShardCtx,
};
use crate::lite::{LiteDevice, LiteEnv, UpgradeWorld};

/// Release channel a device is enrolled in. Ordered by how early the
/// channel sees a release: dogfood first, prod last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Channel {
    /// Internal fleet: first to receive every release.
    Dogfood,
    /// Opt-in early adopters.
    Beta,
    /// The general population.
    Prod,
}

/// Which part of the fleet a campaign targets, orthogonally to channels
/// and stage fractions.
#[derive(Clone, Copy, Debug)]
pub struct CohortFilter {
    /// Restrict to one OS profile (devices carry a profile in `0..3`);
    /// `None` targets every profile.
    pub os_profile: Option<u8>,
    /// Only devices running at least this version are targeted (`0` for
    /// everyone). Lets a campaign skip devices too old to patch from.
    pub min_version: Version,
}

impl Default for CohortFilter {
    fn default() -> Self {
        Self {
            os_profile: None,
            min_version: Version(0),
        }
    }
}

/// One step of the staged rollout: which channels are enrolled and how
/// much of the frontier channel is open.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    /// Channels up to and including this one participate. Channels
    /// *before* it are fully enrolled (they passed their own stages).
    pub max_channel: Channel,
    /// Fraction of the frontier channel that is open, in basis points
    /// (10_000 = 100%). Devices are assigned a stable percentile at
    /// provisioning, so fractions are cumulative: widening a stage never
    /// un-enrolls a device.
    pub fraction_bps: u32,
}

/// Fleet-health limits that halt the campaign when exceeded.
///
/// All limits are on *cumulative* fleet-wide counters since campaign
/// start, evaluated on the virtual clock of lock-step windows.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Maximum tolerated post-install boot failures.
    pub max_boot_failures: u64,
    /// Maximum tolerated accepted forgeries — keep at 0; any accepted
    /// forgery is a signing-path compromise, not a rollout problem.
    pub max_forgeries: u64,
    /// Maximum tolerated update retries (a retry storm means devices are
    /// re-downloading: failed boots, flaky links, or a poisoned payload).
    pub max_retries: u64,
    /// Decision latency `K` in rounds: the decision for round `r` sees
    /// counters through round `r − K − 1`. Shards run in windows of
    /// `K + 1` rounds between joins; the halt round moves with `K` but
    /// never with the thread count.
    pub decision_latency: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            max_boot_failures: 25,
            max_forgeries: 0,
            max_retries: 100,
            decision_latency: 2,
        }
    }
}

/// Deterministic fault injection: which devices fail to boot the new
/// image (bad flash sector, incompatible peripheral revision, …).
#[derive(Clone, Copy, Debug)]
pub struct FaultModel {
    /// Basis points of the fleet whose post-install boot fails. A faulty
    /// device reverts to the old image and retries on later polls.
    pub boot_failure_bps: u32,
    /// After this many failed boots a device gives up and is held out of
    /// the campaign (it would page a human in production).
    pub max_attempts: u32,
}

impl Default for FaultModel {
    fn default() -> Self {
        Self {
            boot_failure_bps: 0,
            max_attempts: 3,
        }
    }
}

/// Parameters of a staged campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Device count, poll fraction, firmware size, seed (the `devices`
    /// and RNG contract matches [`crate::fleet::ShardedFleetConfig`]).
    pub fleet: FleetConfig,
    /// Independent shards (each with its own RNG stream).
    pub shards: u32,
    /// Worker threads; any value produces identical results.
    pub threads: usize,
    /// Channel split in basis points: `[dogfood, beta]`, the remainder is
    /// prod. Devices are assigned deterministically by device ID.
    pub channel_split_bps: [u32; 2],
    /// Cohort targeting.
    pub cohort: CohortFilter,
    /// The staged-rollout plan, in order.
    pub stages: Vec<Stage>,
    /// Rounds each stage stays open before the next stage begins.
    pub stage_rounds: u64,
    /// Health limits that halt the campaign.
    pub health: HealthPolicy,
    /// Fault injection.
    pub faults: FaultModel,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            shards: 4,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            // 2% dogfood, 18% beta, 80% prod.
            channel_split_bps: [200, 1800],
            cohort: CohortFilter::default(),
            stages: vec![
                Stage {
                    max_channel: Channel::Dogfood,
                    fraction_bps: 10_000,
                },
                Stage {
                    max_channel: Channel::Beta,
                    fraction_bps: 10_000,
                },
                Stage {
                    max_channel: Channel::Prod,
                    fraction_bps: 1_000,
                },
                Stage {
                    max_channel: Channel::Prod,
                    fraction_bps: 5_000,
                },
                Stage {
                    max_channel: Channel::Prod,
                    fraction_bps: 10_000,
                },
            ],
            stage_rounds: 4,
            health: HealthPolicy::default(),
            faults: FaultModel::default(),
        }
    }
}

/// Per-round campaign snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignRoundStats {
    /// 1-based virtual round.
    pub round: u64,
    /// Stage index open during this round.
    pub stage: u32,
    /// The open fraction of the frontier channel during this round.
    pub fraction_bps: u32,
    /// Devices running the new version after this round (fleet-wide).
    pub updated: u32,
    /// Wire bytes served this round.
    pub wire_bytes: u64,
}

/// Why and when a campaign halted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignHalt {
    /// Virtual round at which the halt decision took effect.
    pub round: u64,
    /// `"boot_failures"`, `"forgeries"`, or `"retry_storm"`.
    pub reason: &'static str,
}

/// Result of a campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-round adoption, in virtual-clock order.
    pub rounds: Vec<CampaignRoundStats>,
    /// Set when fleet health halted the campaign.
    pub halted: Option<CampaignHalt>,
    /// Devices running the new version at the end (after any rollback).
    pub updated: u32,
    /// Devices reverted to the old version by the halt rollback.
    pub rolled_back: u32,
    /// Devices held out after exhausting their boot attempts.
    pub held: u32,
    /// Total bytes the server pushed over the campaign.
    pub total_wire_bytes: u64,
}

/// SplitMix64 finalizer: a stable, well-mixed hash for deterministic
/// device→cohort assignment (channel, OS profile, percentile, faults each
/// use a distinct salt so the assignments are independent).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn bucket_bps(seed: u64, salt: u64, device_id: u32) -> u32 {
    (mix(seed ^ salt ^ u64::from(device_id)) % 10_000) as u32
}

/// One fleet device plus its campaign-relevant attributes, all assigned
/// deterministically from the fleet seed and the device ID.
struct CampaignDevice {
    lite: LiteDevice,
    channel: Channel,
    os_profile: u8,
    /// Stable rollout percentile within the channel, in basis points.
    percentile_bps: u32,
    /// Whether this device's post-install boot fails (fault injection).
    faulty: bool,
    /// Failed boot attempts so far.
    attempts: u32,
    /// Gave up after [`FaultModel::max_attempts`] failed boots.
    held: bool,
}

impl CampaignDevice {
    fn provision(seed: u64, device_id: u32, config: &CampaignConfig) -> Self {
        let channel_bucket = bucket_bps(seed, 0xC4A7_7E11, device_id);
        let channel = if channel_bucket < config.channel_split_bps[0] {
            Channel::Dogfood
        } else if channel_bucket < config.channel_split_bps[0] + config.channel_split_bps[1] {
            Channel::Beta
        } else {
            Channel::Prod
        };
        Self {
            lite: LiteDevice::new(device_id, config.fleet.differential),
            channel,
            os_profile: (mix(seed ^ 0x05_F11E ^ u64::from(device_id)) % 3) as u8,
            percentile_bps: bucket_bps(seed, 0xF4AC_7104, device_id),
            faulty: bucket_bps(seed, 0x000F_A017_B005, device_id) < config.faults.boot_failure_bps,
            attempts: 0,
            held: false,
        }
    }

    fn in_cohort(&self, cohort: &CohortFilter) -> bool {
        cohort.os_profile.is_none_or(|p| p == self.os_profile)
            && self.lite.installed >= cohort.min_version
    }

    /// Whether `stage` enrolls this device: earlier channels are fully
    /// enrolled, the frontier channel fractionally by stable percentile.
    fn enrolled(&self, stage: &Stage, cohort: &CohortFilter) -> bool {
        self.in_cohort(cohort)
            && (self.channel < stage.max_channel
                || (self.channel == stage.max_channel && self.percentile_bps < stage.fraction_bps))
    }
}

/// What the coordinator tells a shard to do in a given round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// Run the round with this stage open.
    Serve { stage: u32 },
    /// Health halted the campaign: roll back and stop.
    Halted,
    /// Every targeted device converged under the final stage: stop.
    Done,
}

/// What one shard reports after finishing a round — the only cross-shard
/// communication in the engine. Health fields are per-round deltas.
#[derive(Clone, Copy, Debug)]
struct ShardSummary {
    /// All final-stage-targeted devices in the shard are updated or held.
    complete: bool,
    boots_failed: u64,
    retries: u64,
    forgeries: u64,
}

/// The virtual-clock coordinator. `decide(r)` is a pure function of the
/// configuration and the shard summaries for rounds `≤ r − K − 1`; rounds
/// are decided strictly in order, one fold per round, so the same
/// decisions come out whatever order shards ran in.
struct Coordinator {
    latency: u64,
    stage_rounds: u64,
    stage_count: u32,
    health: HealthPolicy,
    /// `summaries[shard][r - 1]`, appended after each window's join.
    summaries: Vec<Vec<ShardSummary>>,
    boots_failed: u64,
    retries: u64,
    forgeries: u64,
    /// Set once a halt or done decision is made; later rounds repeat it.
    terminal: Option<Decision>,
    halt: Option<CampaignHalt>,
}

impl Coordinator {
    fn new(config: &CampaignConfig, shard_count: usize) -> Self {
        assert!(config.stage_rounds > 0, "stage_rounds must be positive");
        assert!(!config.stages.is_empty(), "a campaign needs stages");
        Self {
            latency: config.health.decision_latency,
            stage_rounds: config.stage_rounds,
            stage_count: config.stages.len() as u32,
            health: config.health,
            summaries: vec![Vec::new(); shard_count],
            boots_failed: 0,
            retries: 0,
            forgeries: 0,
            terminal: None,
            halt: None,
        }
    }

    /// Stage open during `round` on the unhalted schedule.
    fn stage_for(&self, round: u64) -> u32 {
        (((round - 1) / self.stage_rounds) as u32).min(self.stage_count - 1)
    }

    /// Appends one window's summaries, given per shard in shard order.
    fn publish(&mut self, window: Vec<Vec<ShardSummary>>) {
        for (all, new) in self.summaries.iter_mut().zip(window) {
            all.extend(new);
        }
    }

    /// The decision for 1-based `round`. Must be called once per round,
    /// in round order, after the summaries of round `round − K − 1` were
    /// published.
    fn decide(&mut self, round: u64) -> Decision {
        if let Some(terminal) = self.terminal {
            return terminal;
        }
        if round <= self.latency + 1 {
            // The reaction window: decisions with no visible counters yet
            // run the schedule's initial stage.
            return Decision::Serve {
                stage: self.stage_for(round),
            };
        }
        // Fold exactly round `visible`: rounds are decided in order, so
        // each decision advances the folded frontier by one.
        let visible = round - self.latency - 1;
        let mut complete = true;
        for shard in &self.summaries {
            let summary = shard[(visible - 1) as usize];
            complete &= summary.complete;
            self.boots_failed += summary.boots_failed;
            self.retries += summary.retries;
            self.forgeries += summary.forgeries;
        }

        let reason = if self.forgeries > self.health.max_forgeries {
            Some("forgeries")
        } else if self.boots_failed > self.health.max_boot_failures {
            Some("boot_failures")
        } else if self.retries > self.health.max_retries {
            Some("retry_storm")
        } else {
            None
        };
        if let Some(reason) = reason {
            self.halt = Some(CampaignHalt { round, reason });
            self.terminal = Some(Decision::Halted);
        } else if complete && self.stage_for(visible) == self.stage_count - 1 {
            self.terminal = Some(Decision::Done);
        }
        self.terminal.unwrap_or(Decision::Serve {
            stage: self.stage_for(round),
        })
    }
}

/// Per-shard, per-round output, merged deterministically after the join.
struct RoundDelta {
    updated: u32,
    wire_bytes: u64,
    counters: CountersSnapshot,
    records: Vec<TraceRecord>,
}

struct CampaignShard {
    rng: StdRng,
    devices: Vec<CampaignDevice>,
    per_round: usize,
    ctx: ShardCtx,
    history: Vec<RoundDelta>,
    /// Trace delta of the halt rollback pass, if one ran.
    rollback: Option<(CountersSnapshot, Vec<TraceRecord>)>,
    /// Devices the halt rollback reverted.
    rolled_back: u32,
}

impl CampaignShard {
    /// All devices this shard must converge under the final stage are
    /// updated or held out.
    fn complete(&self, final_stage: &Stage, cohort: &CohortFilter) -> bool {
        self.devices
            .iter()
            .all(|d| d.held || d.lite.installed >= Version(2) || !d.enrolled(final_stage, cohort))
    }

    /// Runs one lock-step window: a round per `Serve` decision, then the
    /// halt rollback or a plain stop at a terminal decision. Returns the
    /// summary of every round served.
    fn run_window(
        &mut self,
        env: &FleetEnv<'_>,
        config: &CampaignConfig,
        decisions: &[Decision],
    ) -> Vec<ShardSummary> {
        let mut summaries = Vec::with_capacity(decisions.len());
        for decision in decisions {
            match *decision {
                Decision::Serve { stage } => summaries.push(self.run_round(env, config, stage)),
                Decision::Halted => self.roll_back(),
                Decision::Done => {}
            }
        }
        summaries
    }

    /// One polling round at `stage`. The sampling loop consumes the
    /// shard RNG identically whatever the stage, so stage boundaries
    /// (which are virtual-clock decisions) never perturb the stream.
    fn run_round(
        &mut self,
        env: &FleetEnv<'_>,
        config: &CampaignConfig,
        stage_index: u32,
    ) -> ShardSummary {
        let stage = &config.stages[stage_index as usize];
        let mut wire_bytes = 0u64;
        for index in poll_sample(&mut self.rng, self.devices.len(), self.per_round) {
            let device = &mut self.devices[index];
            if device.held || !device.enrolled(stage, &config.cohort) {
                continue;
            }
            let pending = device.lite.installed < Version(2);
            if pending && device.attempts > 0 {
                // A re-download after a failed boot: retry pressure the
                // health policy watches for.
                Counters::add(&self.ctx.tracer.counters().retries, 1);
            }
            let device_id = u64::from(device.lite.device_id);
            match self.ctx.poll(env, &mut device.lite) {
                PollOutcome::Updated { wire_bytes: b, .. } => {
                    wire_bytes += b;
                    if device.faulty {
                        // Post-install boot failure: the bootloader falls
                        // back to the old slot, so the device reverts and
                        // will retry — until it exhausts its attempts.
                        device.lite.installed = Version(1);
                        device.attempts += 1;
                        Counters::add(&self.ctx.tracer.counters().boots_failed, 1);
                        if device.attempts >= config.faults.max_attempts {
                            device.held = true;
                        }
                        self.ctx.tracer.emit(|| Event::DeviceComplete {
                            device: device_id,
                            outcome: "boot_failed",
                        });
                    } else {
                        self.ctx.tracer.emit(|| Event::DeviceComplete {
                            device: device_id,
                            outcome: "complete",
                        });
                    }
                }
                PollOutcome::AlreadyCurrent => {}
                PollOutcome::Rejected => {
                    assert!(
                        device.lite.installed >= Version(2),
                        "pending device rejected an honest update"
                    );
                }
            }
        }
        Counters::add(&self.ctx.tracer.counters().link_bytes_to_device, wire_bytes);
        let updated = self
            .devices
            .iter()
            .filter(|d| d.lite.installed >= Version(2))
            .count() as u32;
        let (counters, records) = self.ctx.tracer.drain();
        let summary = ShardSummary {
            complete: self.complete(config.stages.last().expect("stages"), &config.cohort),
            boots_failed: counters.boots_failed,
            retries: counters.retries,
            forgeries: counters.forgeries_accepted,
        };
        self.history.push(RoundDelta {
            updated,
            wire_bytes,
            counters,
            records,
        });
        summary
    }

    /// Halt recovery: revert every device the campaign updated (the
    /// production analogue is serving the previous release back through
    /// the same update path).
    fn roll_back(&mut self) {
        for device in &mut self.devices {
            if device.lite.installed >= Version(2) {
                device.lite.installed = Version(1);
                self.rolled_back += 1;
                Counters::add(&self.ctx.tracer.counters().devices_rolled_back, 1);
            }
        }
        self.rollback = Some(self.ctx.tracer.drain());
    }
}

/// Runs a staged campaign. See [`run_campaign_traced`].
///
/// # Panics
///
/// Panics if the campaign fails to converge within a generous multiple of
/// the expected rounds (an engine bug, not an unlucky seed).
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    run_campaign_traced(config, &Tracer::disabled())
}

/// Runs a staged campaign with observability: per-round
/// [`Event::RolloutRound`] and [`Event::CampaignStage`] records, device
/// completions/boot failures, and — on a health halt —
/// [`Event::CampaignHalted`] plus the rollback counters, all merged
/// deterministically whatever `threads` is.
#[must_use]
pub fn run_campaign_traced(config: &CampaignConfig, tracer: &Tracer) -> CampaignReport {
    let fleet = &config.fleet;
    let world = UpgradeWorld::build(fleet.seed, fleet.firmware_size);

    let device_count = fleet.devices as usize;
    let slots: Vec<Mutex<CampaignShard>> = shard_plan(fleet.seed, device_count, config.shards)
        .into_iter()
        .map(|(range, rng)| {
            let devices: Vec<CampaignDevice> = range
                .map(|i| CampaignDevice::provision(fleet.seed, 0x1000 + i as u32, config))
                .collect();
            Mutex::new(CampaignShard {
                rng,
                per_round: per_round(devices.len(), fleet.poll_fraction),
                devices,
                ctx: ShardCtx::new(tracer),
                history: Vec::new(),
                rollback: None,
                rolled_back: 0,
            })
        })
        .collect();

    let env = FleetEnv {
        server: &world.server,
        lite: LiteEnv::new(&world, false),
        verify_signatures: true,
        manifest_mode: ManifestMode::Campaign,
    };
    let mut coordinator = Coordinator::new(config, slots.len());
    let max_rounds = (device_count / slots[0].lock().expect("slot").per_round.max(1) + 2) * 10
        + (config.stage_rounds as usize) * config.stages.len()
        + (config.health.decision_latency as usize + 2)
        + (config.faults.max_attempts as usize + 1) * 10;

    // Lock-step windows of K + 1 rounds: decide the window, run every
    // shard through it as one pool task, then publish its summaries. A
    // terminal decision ends its window and the campaign.
    let window = config.health.decision_latency + 1;
    let mut round = 1u64;
    while coordinator.terminal.is_none() {
        let mut decisions = Vec::new();
        let end = round + window;
        while round < end && coordinator.terminal.is_none() {
            assert!(
                round as usize <= max_rounds,
                "campaign failed to converge after {max_rounds} rounds"
            );
            decisions.push(coordinator.decide(round));
            round += 1;
        }
        let summaries = parallel_map(&slots, config.threads, |_, slot| {
            let mut shard = slot.lock().expect("shard lock");
            shard.run_window(&env, config, &decisions)
        });
        coordinator.publish(summaries);
    }

    let shards: Vec<CampaignShard> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("shard lock"))
        .collect();
    let halted = coordinator.halt;

    // Deterministic merge: every shard ran the same number of rounds (the
    // decisions are global), absorbed in (round, shard-index) order.
    let total_rounds = shards.iter().map(|s| s.history.len()).max().unwrap_or(0);
    debug_assert!(shards.iter().all(|s| s.history.len() == total_rounds));
    let mut rounds = Vec::with_capacity(total_rounds);
    let mut total_wire_bytes = 0u64;
    let mut previous_stage = None;
    for round_index in 0..total_rounds {
        let round = round_index as u64 + 1;
        let stage = coordinator.stage_for(round);
        if previous_stage != Some(stage) {
            previous_stage = Some(stage);
            let fraction = u64::from(config.stages[stage as usize].fraction_bps);
            tracer.emit(|| Event::CampaignStage {
                stage: u64::from(stage),
                fraction_bps: fraction,
                round,
            });
        }
        let mut updated = 0u32;
        let mut wire_bytes = 0u64;
        for shard in &shards {
            let delta = &shard.history[round_index];
            updated += delta.updated;
            wire_bytes += delta.wire_bytes;
            tracer.absorb(&delta.counters, &delta.records);
        }
        total_wire_bytes += wire_bytes;
        tracer.emit(|| Event::RolloutRound {
            round,
            completed: u64::from(updated),
        });
        rounds.push(CampaignRoundStats {
            round,
            stage,
            fraction_bps: config.stages[stage as usize].fraction_bps,
            updated,
            wire_bytes,
        });
    }
    if let Some(halt) = halted {
        Counters::add(&tracer.counters().campaign_halts, 1);
        tracer.emit(|| Event::CampaignHalted {
            round: halt.round,
            reason: halt.reason,
        });
        for shard in &shards {
            if let Some((counters, records)) = &shard.rollback {
                tracer.absorb(counters, records);
            }
        }
    }

    let updated = shards
        .iter()
        .flat_map(|s| &s.devices)
        .filter(|d| d.lite.installed >= Version(2))
        .count() as u32;
    let held = shards
        .iter()
        .flat_map(|s| &s.devices)
        .filter(|d| d.held)
        .count() as u32;
    CampaignReport {
        rounds,
        halted,
        updated,
        rolled_back: shards.iter().map(|s| s.rolled_back).sum(),
        held,
        total_wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            fleet: FleetConfig {
                devices: 60,
                poll_fraction: 0.5,
                firmware_size: 6_000,
                differential: true,
                seed: 801,
            },
            shards: 4,
            threads: 2,
            stage_rounds: 3,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn healthy_campaign_converges_and_walks_all_stages() {
        let config = small_config();
        let report = run_campaign(&config);
        assert!(report.halted.is_none());
        assert_eq!(report.held, 0);
        assert_eq!(report.rolled_back, 0);
        assert_eq!(report.updated, config.fleet.devices);
        // The staged plan must actually gate adoption: while only
        // dogfood is open, prod devices stay on v1.
        let first_round = &report.rounds[0];
        assert!(
            u64::from(first_round.updated) < u64::from(config.fleet.devices),
            "stage 0 must not update the whole fleet"
        );
        let last_stage = report.rounds.last().unwrap().stage;
        assert_eq!(last_stage, config.stages.len() as u32 - 1);
    }

    #[test]
    fn adoption_is_monotone_per_round() {
        let report = run_campaign(&small_config());
        for pair in report.rounds.windows(2) {
            assert!(pair[1].updated >= pair[0].updated, "adoption regressed");
        }
    }

    #[test]
    fn cohort_filter_excludes_other_profiles() {
        let mut config = small_config();
        config.cohort.os_profile = Some(1);
        let report = run_campaign(&config);
        assert!(report.halted.is_none());
        // Only profile-1 devices update; the rest are out of cohort.
        assert!(report.updated > 0);
        assert!(report.updated < config.fleet.devices);
        let full = run_campaign(&small_config());
        assert!(report.total_wire_bytes < full.total_wire_bytes);
    }

    #[test]
    fn boot_failures_halt_and_roll_back() {
        let mut config = small_config();
        // Every fourth device fails to boot the new image, and the fleet
        // tolerates almost none of that.
        config.faults.boot_failure_bps = 2_500;
        config.health.max_boot_failures = 2;
        let report = run_campaign(&config);
        let halt = report.halted.expect("campaign must halt");
        assert_eq!(halt.reason, "boot_failures");
        assert_eq!(report.updated, 0, "halt must roll the fleet back");
        assert!(report.rolled_back > 0);
        // The halt reacts after the decision window, not instantly.
        assert!(halt.round > config.health.decision_latency);
    }

    #[test]
    fn retry_storms_halt_when_boot_failures_are_tolerated() {
        let mut config = small_config();
        config.faults.boot_failure_bps = 2_500;
        config.faults.max_attempts = 50;
        config.health.max_boot_failures = u64::MAX;
        config.health.max_retries = 3;
        let report = run_campaign(&config);
        assert_eq!(report.halted.expect("must halt").reason, "retry_storm");
    }

    #[test]
    fn faulty_devices_are_held_after_exhausting_attempts() {
        let mut config = small_config();
        config.faults.boot_failure_bps = 1_000;
        // Tolerate the failures so the campaign runs to completion.
        config.health.max_boot_failures = u64::MAX;
        config.health.max_retries = u64::MAX;
        let report = run_campaign(&config);
        assert!(report.halted.is_none());
        assert!(report.held > 0, "the seeded faults must hold devices");
        assert_eq!(
            u64::from(report.updated) + u64::from(report.held),
            u64::from(config.fleet.devices)
        );
    }

    #[test]
    fn thread_count_does_not_change_campaign_results() {
        let mut config = small_config();
        config.faults.boot_failure_bps = 1_500;
        config.health.max_boot_failures = 4;
        let reference = run_campaign(&CampaignConfig {
            threads: 1,
            ..config.clone()
        });
        for threads in [2usize, 4, 8] {
            let report = run_campaign(&CampaignConfig {
                threads,
                ..config.clone()
            });
            assert_eq!(reference, report, "{threads} threads");
        }
    }

    #[test]
    fn decision_latency_delays_but_does_not_prevent_halts() {
        let mut config = small_config();
        config.faults.boot_failure_bps = 2_500;
        config.health.max_boot_failures = 2;
        config.health.decision_latency = 1;
        let early = run_campaign(&config).halted.expect("halts");
        config.health.decision_latency = 4;
        let late = run_campaign(&config).halted.expect("halts");
        assert!(late.round >= early.round, "a longer window reacts later");
    }
}
