//! Fleet rollout simulation: many devices adopting a release over polling
//! rounds.
//!
//! Models the deployment story of the paper's pull approach: every device
//! polls the update server on its own schedule, so a release propagates
//! through the fleet over several rounds. The experiment reports the
//! adoption curve and the total bytes served — where differential updates
//! shrink the server's egress by an order of magnitude.
//!
//! Two entry points:
//!
//! * [`run_rollout`] — the sequential simulator over full [`SimDevice`]s
//!   (flash + agent + bootloader each).
//! * [`run_rollout_sharded`] — the fleet split into shards, each with its
//!   own RNG stream derived from the fleet seed, executed across worker
//!   threads. Results depend only on the configuration, never on the
//!   thread count, and a single-shard run reproduces [`run_rollout`]
//!   byte for byte. With [`DeviceModel::Lite`] devices (protocol-faithful
//!   but without per-device flash), campaigns scale to 100k–1M devices.
//!
//! # Scaling
//!
//! Shards never share mutable state, so the sharded rollout is
//! embarrassingly parallel: each shard is one task of the workspace
//! worker pool ([`upkit_delta::pool::parallel_map`]), provisioned and run
//! **to completion** by whichever worker claims it — there is no
//! per-round stop-the-world barrier. Per-round statistics and per-round
//! trace buffers are recorded shard-locally and merged once, after the
//! join, in (round, shard-index) order, which keeps reports, counters, and
//! traces byte-identical at any thread count.
//!
//! The per-poll hot path is allocation- and crypto-lean:
//!
//! * wire bytes come from [`PreparedUpdate::wire_bytes`], precomputed at
//!   preparation time (a poll never serializes the full image — pinned by
//!   `tests/zero_serialization.rs`);
//! * under [`ManifestMode::Campaign`] the server signs one broadcast
//!   manifest per transition and each shard verifies it **once** through a
//!   memo keyed on the received manifest bytes (`lite::VerifyMemo`), so
//!   ECDSA cost scales with *distinct manifests × shards*, not with fleet
//!   size.
//!
//! Both entry points advance each polled device one *whole* update at a
//! time. For campaigns where transfers must overlap on a common virtual
//! timeline — realistic timing, loss, and retransmission — use the
//! event-driven scheduler in [`crate::events`]. For staged fractional
//! rollouts with channels, cohort targeting, and automatic health halts,
//! use [`crate::campaign`].

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use upkit_core::agent::AgentPhase;
use upkit_core::generation::{PreparedUpdate, UpdateServer};
use upkit_core::parallel::TaskTracer;
use upkit_delta::pool::parallel_map;
use upkit_manifest::Version;
use upkit_trace::{Counters, CountersSnapshot, Event, TraceRecord, Tracer};

use crate::device::{PollOutcome, SimDevice};
use crate::lite::{LiteDevice, LiteEnv, SignatureCheck, UpgradeWorld, VerifyMemo};

/// Parameters of a rollout campaign.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of devices.
    pub devices: u32,
    /// Fraction (0..=1) of the fleet that polls in each round.
    pub poll_fraction: f64,
    /// Firmware size in bytes.
    pub firmware_size: usize,
    /// Whether devices advertise differential support.
    pub differential: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            devices: 50,
            poll_fraction: 0.3,
            firmware_size: 20_000,
            differential: true,
            seed: 0xF1EE7,
        }
    }
}

/// Per-round adoption snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// Devices running the new version after this round.
    pub updated: u32,
    /// Wire bytes served this round.
    pub wire_bytes: u64,
}

/// Result of a rollout campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetReport {
    /// Adoption per round, until the fleet converged.
    pub rounds: Vec<RoundStats>,
    /// Total bytes the server pushed over the campaign.
    pub total_wire_bytes: u64,
}

impl FleetReport {
    /// Rounds until every device ran the new version.
    #[must_use]
    pub fn rounds_to_converge(&self) -> usize {
        self.rounds.len()
    }
}

/// Devices that poll per round: `poll_fraction` of `devices`, at least
/// one.
pub(crate) fn per_round(devices: usize, poll_fraction: f64) -> usize {
    ((devices as f64 * poll_fraction).ceil() as usize).max(1)
}

/// The devices (indices below `devices`) that poll this round, in poll
/// order: `per_round` draws from `rng` without replacement.
pub(crate) fn poll_sample(
    rng: &mut StdRng,
    devices: usize,
    per_round: usize,
) -> impl Iterator<Item = usize> + '_ {
    let mut indices: Vec<usize> = (0..devices).collect();
    (0..per_round.min(devices))
        .map(move |_| indices.swap_remove(rng.random_range(0..indices.len())))
}

/// Splits `devices` into at most `shards` contiguous index ranges (device
/// IDs stay `0x1000 +` the fleet-wide index), each with its own RNG
/// stream derived from the fleet seed and the shard index.
pub(crate) fn shard_plan(seed: u64, devices: usize, shards: u32) -> Vec<(Range<usize>, StdRng)> {
    let count = (shards.max(1) as usize).min(devices.max(1));
    let mut end = 0;
    (0..count)
        .map(|index| {
            let start = end;
            end += devices / count + usize::from(index < devices % count);
            let rng = StdRng::seed_from_u64(
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1)),
            );
            (start..end, rng)
        })
        .collect()
}

/// Runs a rollout of version 2 across a fleet provisioned at version 1.
///
/// # Panics
///
/// Panics if the campaign fails to converge within 10× the expected rounds
/// (would indicate an update-path bug, not an unlucky seed — polling is
/// sampled without replacement).
#[must_use]
pub fn run_rollout(config: &FleetConfig) -> FleetReport {
    run_rollout_traced(config, &Tracer::disabled())
}

/// [`run_rollout`] with observability: per-round [`Event::RolloutRound`]
/// records, per-device completions, and served-byte counters are routed
/// through `tracer`.
#[must_use]
pub fn run_rollout_traced(config: &FleetConfig, tracer: &Tracer) -> FleetReport {
    let UpgradeWorld {
        mut rng,
        vendor,
        server,
        v1,
    } = UpgradeWorld::build(config.seed, config.firmware_size);
    let mut devices: Vec<SimDevice> = (0..config.devices)
        .map(|i| {
            SimDevice::provision_with_options(
                0x1000 + i,
                &v1,
                &vendor,
                &server,
                config.differential,
            )
        })
        .collect();

    let per_round = per_round(devices.len(), config.poll_fraction);
    let mut rounds = Vec::new();
    let mut total_wire_bytes = 0u64;
    let max_rounds = (config.devices as usize / per_round + 2) * 10;

    while devices.iter().any(|d| d.installed_version() < Version(2)) {
        assert!(
            rounds.len() < max_rounds,
            "rollout failed to converge after {} rounds",
            rounds.len()
        );
        // Sample which devices poll this round (pending devices first, as
        // real fleets poll independently of update state; updated devices
        // polling is a cheap no-op we also exercise).
        let mut wire_bytes = 0u64;
        for index in poll_sample(&mut rng, devices.len(), per_round) {
            let device = &mut devices[index];
            match device.poll(&server).expect("healthy fleet") {
                PollOutcome::Updated { wire_bytes: b, .. } => {
                    wire_bytes += b;
                    let id = u64::from(device.device_id);
                    tracer.emit(|| Event::DeviceComplete {
                        device: id,
                        outcome: "complete",
                    });
                }
                PollOutcome::AlreadyCurrent => {}
                // Non-differential devices advertise version 0, so the
                // server re-offers the latest release to devices that are
                // already current; the agent early-rejects it as stale at
                // the manifest — exactly the paper's freshness check.
                PollOutcome::Rejected => {
                    assert!(
                        device.installed_version() >= Version(2),
                        "pending device rejected an honest update"
                    );
                }
            }
        }
        total_wire_bytes += wire_bytes;
        Counters::add(&tracer.counters().link_bytes_to_device, wire_bytes);
        let updated = devices
            .iter()
            .filter(|d| d.installed_version() >= Version(2))
            .count() as u32;
        let round = rounds.len() as u64 + 1;
        tracer.emit(|| Event::RolloutRound {
            round,
            completed: u64::from(updated),
        });
        rounds.push(RoundStats {
            updated,
            wire_bytes,
        });
    }

    FleetReport {
        rounds,
        total_wire_bytes,
    }
}

/// Which device implementation a sharded rollout simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceModel {
    /// Full [`SimDevice`]s: per-device flash, agent FSM, and bootloader.
    /// Highest fidelity, ≥64 KiB of simulated flash per device.
    Faithful,
    /// Protocol-faithful lightweight devices: same token sequence, and
    /// the agent's own verifier and pipeline decoder, but no per-device
    /// flash or boot simulation — a few dozen bytes per device, enabling
    /// 100k–1M-device campaigns.
    Lite,
}

/// How the update server signs what lite devices receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ManifestMode {
    /// The paper's point-to-point design: every response is signed over
    /// the requesting device's token (ID + nonce), granting per-request
    /// freshness. Every manifest is distinct, so every device must run
    /// its own ECDSA verifications — one server signature and two device
    /// verifies **per poll**.
    PerDevice,
    /// Omaha-style campaign propagation: the server signs one broadcast
    /// manifest per version transition (token fields zero) and serves the
    /// identical response to every device on that base. Each shard then
    /// verifies each distinct manifest exactly once through a memo keyed
    /// on the received manifest bytes; downgrade protection is preserved by
    /// the manifest version-monotonicity check every device performs
    /// before trusting anything else. Wire sizes are unchanged (the
    /// manifest is fixed-size), so reports are byte-identical to
    /// [`ManifestMode::PerDevice`] — only the crypto count scales
    /// differently.
    ///
    /// [`DeviceModel::Faithful`] devices always run the full per-token
    /// pull session; this mode governs lite devices.
    Campaign,
}

/// Parameters of a sharded rollout campaign.
#[derive(Clone, Copy, Debug)]
pub struct ShardedFleetConfig {
    /// The campaign itself.
    pub fleet: FleetConfig,
    /// Number of independent shards the fleet is split into. Results
    /// depend on this value (each shard has its own RNG stream), but not
    /// on how shards are scheduled onto threads.
    pub shards: u32,
    /// Worker threads to spread the shards over. Any value produces
    /// identical results; only wall-clock time changes.
    pub threads: usize,
    /// Device implementation to simulate.
    pub device_model: DeviceModel,
    /// Whether lite devices check both manifest signatures on every
    /// update (full devices always do). Keep `true` for fidelity; `false`
    /// isolates server-side cost in benchmarks.
    pub verify_signatures: bool,
    /// Per-token or broadcast manifest signing for lite devices.
    pub manifest_mode: ManifestMode,
}

impl Default for ShardedFleetConfig {
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            shards: 4,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            device_model: DeviceModel::Faithful,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        }
    }
}

/// Everything a polling device reads, shared by all shards and threads.
pub(crate) struct FleetEnv<'a> {
    pub(crate) server: &'a UpdateServer,
    pub(crate) lite: LiteEnv,
    pub(crate) verify_signatures: bool,
    pub(crate) manifest_mode: ManifestMode,
}

/// Shard-local polling context: the verification memo plus a cache of the
/// server's broadcast campaign responses keyed by the advertised version,
/// so a lite poll in campaign mode touches no server-side locks at all
/// after the first request per (shard, version).
pub(crate) struct ShardCtx {
    memo: VerifyMemo,
    responses: HashMap<u16, Option<Arc<PreparedUpdate>>>,
    /// Shard-local tracer, drained once per round and merged into the
    /// campaign tracer in (round, shard-index) order, so the merged trace
    /// is independent of how shards were scheduled onto threads.
    pub(crate) tracer: TaskTracer,
}

impl ShardCtx {
    pub(crate) fn new(parent: &Tracer) -> Self {
        Self {
            memo: VerifyMemo::default(),
            responses: HashMap::new(),
            tracer: TaskTracer::new(parent),
        }
    }

    /// One lite poll: token → server → the device's manifest and payload
    /// steps. Mirrors `SimDevice::poll` outcomes exactly for an honest
    /// server in the v1→v2 campaign.
    pub(crate) fn poll(&mut self, env: &FleetEnv<'_>, device: &mut LiteDevice) -> PollOutcome {
        let token = device.next_token();
        match env.manifest_mode {
            ManifestMode::PerDevice => match env.server.prepare_update(&token) {
                Some(prepared) => self.deliver(env, device, &prepared),
                None => PollOutcome::AlreadyCurrent,
            },
            // The broadcast response for the advertised version, fetched
            // once per shard and shared thereafter.
            ManifestMode::Campaign => match self
                .responses
                .entry(token.current_version.0)
                .or_insert_with(|| env.server.prepare_campaign_update(token.current_version))
                .clone()
            {
                Some(prepared) => self.deliver(env, device, &prepared),
                None => PollOutcome::AlreadyCurrent,
            },
        }
    }

    /// Feeds one served update to `device` as a whole session: the
    /// received manifest, then the payload. A fleet device keeps nothing
    /// of the session afterwards.
    fn deliver(
        &mut self,
        env: &FleetEnv<'_>,
        device: &mut LiteDevice,
        prepared: &PreparedUpdate,
    ) -> PollOutcome {
        let mut signatures = match (env.verify_signatures, env.manifest_mode) {
            (false, _) => SignatureCheck::Skip,
            // Per-token manifests are distinct per request — a memo could
            // never hit, so verify directly.
            (true, ManifestMode::PerDevice) => SignatureCheck::Counted,
            (true, ManifestMode::Campaign) => SignatureCheck::Memo(&mut self.memo),
        };
        let counters = self.tracer.counters();
        let manifest = prepared.image.signed_manifest.to_bytes();
        let outcome = device
            .deliver(&env.lite, &mut signatures, counters, &manifest)
            .and_then(|_| {
                device.deliver(
                    &env.lite,
                    &mut signatures,
                    counters,
                    &prepared.image.payload,
                )
            });
        device.reset_transfer();
        match outcome {
            Ok(AgentPhase::Complete) => PollOutcome::Updated {
                to: device.installed,
                // Precomputed at preparation time — a poll never
                // serializes the full image just to count wire bytes.
                wire_bytes: prepared.wire_bytes,
            },
            _ => PollOutcome::Rejected,
        }
    }
}

/// One device of a sharded fleet.
enum FleetDevice {
    Faithful(Box<SimDevice>),
    Lite(LiteDevice),
}

impl FleetDevice {
    fn installed_version(&self) -> Version {
        match self {
            Self::Faithful(device) => device.installed_version(),
            Self::Lite(device) => device.installed,
        }
    }

    fn poll(&mut self, env: &FleetEnv<'_>, ctx: &mut ShardCtx) -> PollOutcome {
        match self {
            Self::Faithful(device) => device.poll(env.server).expect("healthy fleet"),
            Self::Lite(device) => ctx.poll(env, device),
        }
    }
}

/// An independent slice of the fleet with its own RNG stream.
struct Shard {
    rng: StdRng,
    devices: Vec<FleetDevice>,
    per_round: usize,
    ctx: ShardCtx,
}

/// Everything one shard produced: its per-round statistics and, per
/// round, the trace delta (counter snapshot + buffered records) to merge
/// in deterministic (round, shard-index) order after the parallel join.
struct ShardHistory {
    device_count: u32,
    rounds: Vec<RoundStats>,
    trace: Vec<(CountersSnapshot, Vec<TraceRecord>)>,
}

impl Shard {
    fn converged(&self) -> bool {
        self.devices
            .iter()
            .all(|d| d.installed_version() >= Version(2))
    }

    /// One polling round over this shard — the same sampling-without-
    /// replacement loop as the sequential simulator, restricted to the
    /// shard's devices and driven by the shard's own RNG.
    fn run_round(&mut self, env: &FleetEnv<'_>) -> RoundStats {
        let mut wire_bytes = 0u64;
        for index in poll_sample(&mut self.rng, self.devices.len(), self.per_round) {
            let device = &mut self.devices[index];
            let device_id = u64::from(match device {
                FleetDevice::Faithful(d) => d.device_id,
                FleetDevice::Lite(d) => d.device_id,
            });
            match device.poll(env, &mut self.ctx) {
                PollOutcome::Updated { wire_bytes: b, .. } => {
                    wire_bytes += b;
                    self.ctx.tracer.emit(|| Event::DeviceComplete {
                        device: device_id,
                        outcome: "complete",
                    });
                }
                PollOutcome::AlreadyCurrent => {}
                PollOutcome::Rejected => {
                    assert!(
                        device.installed_version() >= Version(2),
                        "pending device rejected an honest update"
                    );
                }
            }
        }
        Counters::add(&self.ctx.tracer.counters().link_bytes_to_device, wire_bytes);
        RoundStats {
            updated: self
                .devices
                .iter()
                .filter(|d| d.installed_version() >= Version(2))
                .count() as u32,
            wire_bytes,
        }
    }

    /// Runs this shard's rounds until every device converged, recording
    /// per-round statistics and trace deltas. Rounds past a shard's own
    /// convergence are pure no-ops in the observable output (polls of
    /// current devices serve no bytes and emit nothing), so a shard can
    /// stop at its own convergence without changing the merged report.
    fn run_to_convergence(mut self, env: &FleetEnv<'_>) -> ShardHistory {
        let max_rounds = (self.devices.len() / self.per_round + 2) * 10;
        let mut rounds = Vec::new();
        let mut trace = Vec::new();
        while !self.converged() {
            assert!(
                rounds.len() < max_rounds,
                "shard failed to converge after {} rounds",
                rounds.len()
            );
            rounds.push(self.run_round(env));
            trace.push(self.ctx.tracer.drain());
        }
        ShardHistory {
            device_count: self.devices.len() as u32,
            rounds,
            trace,
        }
    }
}

/// Runs a v1→v2 rollout split into shards executed across threads.
///
/// Determinism: each shard's RNG stream is fixed by `(seed, shard index)`
/// alone, shards never share mutable state, and per-round statistics are
/// aggregated by order-independent sums — so the report is a pure function
/// of the configuration, whatever `threads` is. A single-shard run draws
/// from the same stream as [`run_rollout`] and reproduces its report
/// exactly (covered by tests).
///
/// # Panics
///
/// Panics if the campaign fails to converge within 10× the expected
/// rounds, like [`run_rollout`].
#[must_use]
pub fn run_rollout_sharded(config: &ShardedFleetConfig) -> FleetReport {
    run_rollout_sharded_traced(config, &Tracer::disabled())
}

/// [`run_rollout_sharded`] with observability. Every shard charges a
/// shard-local [`TaskTracer`] and drains it once per round; after the parallel join the buffers are merged into `tracer` in
/// (round, shard-index) order, so the merged trace (and the counter
/// totals) are identical whatever `threads` is.
#[must_use]
pub fn run_rollout_sharded_traced(config: &ShardedFleetConfig, tracer: &Tracer) -> FleetReport {
    let fleet = &config.fleet;
    let world = UpgradeWorld::build(fleet.seed, fleet.firmware_size);
    let env = FleetEnv {
        server: &world.server,
        lite: LiteEnv::new(&world, config.manifest_mode == ManifestMode::PerDevice),
        verify_signatures: config.verify_signatures,
        manifest_mode: config.manifest_mode,
    };

    // A single shard *is* the sequential fleet, so it continues the master
    // stream (key generation already consumed from it) and reproduces
    // `run_rollout` exactly; multiple shards get independent streams.
    let mut plan = shard_plan(fleet.seed, fleet.devices as usize, config.shards);
    if let [(_, rng)] = plan.as_mut_slice() {
        *rng = world.rng;
    }

    // One pool task per shard: provision it, then run it to convergence —
    // no per-round barrier. Provisioning draws no randomness and shards
    // share no mutable state, so any claim order produces the same
    // per-shard histories, returned in shard-index order.
    let histories = parallel_map(&plan, config.threads, |_, (range, rng)| {
        let devices: Vec<FleetDevice> = range
            .clone()
            .map(|i| {
                let device_id = 0x1000 + i as u32;
                match config.device_model {
                    DeviceModel::Faithful => {
                        FleetDevice::Faithful(Box::new(SimDevice::provision_with_options(
                            device_id,
                            &world.v1,
                            &world.vendor,
                            &world.server,
                            fleet.differential,
                        )))
                    }
                    DeviceModel::Lite => {
                        FleetDevice::Lite(LiteDevice::new(device_id, fleet.differential))
                    }
                }
            })
            .collect();
        Shard {
            rng: rng.clone(),
            per_round: per_round(devices.len(), fleet.poll_fraction),
            devices,
            ctx: ShardCtx::new(tracer),
        }
        .run_to_convergence(&env)
    });

    // Deterministic merge: rounds in order, shards in index order within
    // each round — the same sequence the old per-round barrier produced,
    // now paid once instead of every round. Shards that converged early
    // contribute their full device count and no traffic to later rounds,
    // exactly what polling already-current devices produces.
    let total_rounds = histories.iter().map(|h| h.rounds.len()).max().unwrap_or(0);
    let mut rounds = Vec::with_capacity(total_rounds);
    let mut total_wire_bytes = 0u64;
    for round_index in 0..total_rounds {
        let mut updated = 0u32;
        let mut wire_bytes = 0u64;
        for history in &histories {
            match history.rounds.get(round_index) {
                Some(stats) => {
                    updated += stats.updated;
                    wire_bytes += stats.wire_bytes;
                }
                None => updated += history.device_count,
            }
            if let Some((counters, records)) = history.trace.get(round_index) {
                tracer.absorb(counters, records);
            }
        }
        total_wire_bytes += wire_bytes;
        let round = round_index as u64 + 1;
        tracer.emit(|| Event::RolloutRound {
            round,
            completed: u64::from(updated),
        });
        rounds.push(RoundStats {
            updated,
            wire_bytes,
        });
    }

    FleetReport {
        rounds,
        total_wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upkit_trace::MemorySink;

    #[test]
    fn rollout_converges_and_adoption_is_monotone() {
        let report = run_rollout(&FleetConfig {
            devices: 20,
            poll_fraction: 0.4,
            firmware_size: 8_000,
            differential: true,
            seed: 700,
        });
        assert!(!report.rounds.is_empty());
        let final_round = report.rounds.last().unwrap();
        assert_eq!(final_round.updated, 20);
        for pair in report.rounds.windows(2) {
            assert!(pair[1].updated >= pair[0].updated, "adoption regressed");
        }
    }

    #[test]
    fn differential_rollout_serves_far_fewer_bytes() {
        let base = FleetConfig {
            devices: 15,
            poll_fraction: 0.5,
            firmware_size: 20_000,
            differential: true,
            seed: 701,
        };
        let diff = run_rollout(&base);
        let full = run_rollout(&FleetConfig {
            differential: false,
            ..base
        });
        assert!(
            diff.total_wire_bytes * 2 < full.total_wire_bytes,
            "diff {} vs full {}",
            diff.total_wire_bytes,
            full.total_wire_bytes
        );
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let config = FleetConfig {
            devices: 10,
            ..FleetConfig::default()
        };
        let a = run_rollout(&config);
        let b = run_rollout(&config);
        assert_eq!(a.total_wire_bytes, b.total_wire_bytes);
        assert_eq!(a.rounds_to_converge(), b.rounds_to_converge());
    }

    #[test]
    fn single_shard_reproduces_sequential_rollout_exactly() {
        let fleet = FleetConfig {
            devices: 12,
            poll_fraction: 0.4,
            firmware_size: 6_000,
            differential: true,
            seed: 702,
        };
        let sequential = run_rollout(&fleet);
        let sharded = run_rollout_sharded(&ShardedFleetConfig {
            fleet,
            shards: 1,
            threads: 1,
            device_model: DeviceModel::Faithful,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        });
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn thread_count_does_not_change_sharded_results() {
        let base = ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 18,
                poll_fraction: 0.5,
                firmware_size: 5_000,
                differential: true,
                seed: 703,
            },
            shards: 3,
            threads: 1,
            device_model: DeviceModel::Lite,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        };
        let reference = run_rollout_sharded(&base);
        for threads in [2usize, 3, 8] {
            let report = run_rollout_sharded(&ShardedFleetConfig { threads, ..base });
            assert_eq!(reference, report, "{threads} threads");
        }
    }

    #[test]
    fn lite_devices_match_faithful_devices() {
        // Same shards, same RNG streams: only the device implementation
        // differs, and the reports must still agree — the lite model
        // follows the identical token/verify/patch protocol.
        let base = ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 10,
                poll_fraction: 0.5,
                firmware_size: 6_000,
                differential: true,
                seed: 704,
            },
            shards: 2,
            threads: 2,
            device_model: DeviceModel::Faithful,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        };
        let faithful = run_rollout_sharded(&base);
        let lite = run_rollout_sharded(&ShardedFleetConfig {
            device_model: DeviceModel::Lite,
            ..base
        });
        assert_eq!(faithful, lite);
    }

    #[test]
    fn campaign_mode_report_is_byte_identical_to_per_device_mode() {
        // The broadcast manifest is fixed-size like the per-token one, so
        // switching modes changes crypto counts but not a single byte of
        // the report: same rounds, same adoption, same wire bytes.
        let base = ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 40,
                poll_fraction: 0.4,
                firmware_size: 8_000,
                differential: true,
                seed: 707,
            },
            shards: 4,
            threads: 2,
            device_model: DeviceModel::Lite,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        };
        let per_device = run_rollout_sharded(&base);
        let campaign = run_rollout_sharded(&ShardedFleetConfig {
            manifest_mode: ManifestMode::Campaign,
            ..base
        });
        assert_eq!(per_device, campaign);
    }

    #[test]
    fn campaign_mode_verifies_once_per_shard_not_per_device() {
        // 48 devices, 4 shards, one v1→v2 transition: per-device mode
        // runs 2 ECDSA verifications per updated device; campaign mode
        // collapses them to 2 per (shard, distinct manifest) and the
        // memo absorbs the rest. The report must not change at all.
        let base = ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 48,
                poll_fraction: 0.5,
                firmware_size: 6_000,
                differential: true,
                seed: 708,
            },
            shards: 4,
            threads: 2,
            device_model: DeviceModel::Lite,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        };
        let per_device_tracer = Tracer::disabled();
        let per_device = run_rollout_sharded_traced(&base, &per_device_tracer);
        let campaign_tracer = Tracer::disabled();
        let campaign = run_rollout_sharded_traced(
            &ShardedFleetConfig {
                manifest_mode: ManifestMode::Campaign,
                ..base
            },
            &campaign_tracer,
        );
        assert_eq!(per_device, campaign);

        let per_device_counters = per_device_tracer.counters().snapshot();
        let campaign_counters = campaign_tracer.counters().snapshot();
        // Per-device: every one of the 48 updates verified both signatures.
        assert_eq!(per_device_counters.sig_verifications, 2 * 48);
        assert_eq!(per_device_counters.sig_verify_memo_hits, 0);
        // Campaign: one distinct broadcast manifest, verified once per
        // shard — the count scales with shards × manifests, not devices.
        assert_eq!(campaign_counters.sig_verifications, 2 * 4);
        assert_eq!(
            campaign_counters.sig_verify_memo_hits,
            2 * 48 - campaign_counters.sig_verifications
        );
    }

    #[test]
    fn trace_is_identical_across_thread_counts() {
        // Shard buffers are merged in (round, shard-index) order after
        // the parallel join, so the merged record sequence — timestamps,
        // seq numbers, and event payloads — must be byte-identical
        // whatever the thread count, and so must the counter totals.
        let base = ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 24,
                poll_fraction: 0.5,
                firmware_size: 4_000,
                differential: true,
                seed: 706,
            },
            shards: 4,
            threads: 1,
            device_model: DeviceModel::Lite,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        };
        let mut reference: Option<(Vec<upkit_trace::TraceRecord>, _)> = None;
        for threads in [1usize, 2, 8] {
            let sink = Arc::new(MemorySink::new());
            let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
            let report =
                run_rollout_sharded_traced(&ShardedFleetConfig { threads, ..base }, &tracer);
            assert_eq!(report.rounds.last().unwrap().updated, 24);
            let records = sink.drain();
            assert!(!records.is_empty(), "trace must capture the campaign");
            let counters = tracer.counters().snapshot();
            assert_eq!(counters.link_bytes_to_device, report.total_wire_bytes);
            match &reference {
                None => reference = Some((records, counters)),
                Some((ref_records, ref_counters)) => {
                    assert_eq!(ref_records, &records, "{threads} threads changed the trace");
                    assert_eq!(
                        ref_counters, &counters,
                        "{threads} threads changed the counters"
                    );
                }
            }
        }
    }

    #[test]
    fn lite_non_differential_fleet_converges() {
        let report = run_rollout_sharded(&ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 30,
                poll_fraction: 0.3,
                firmware_size: 4_000,
                differential: false,
                seed: 705,
            },
            shards: 4,
            threads: 2,
            device_model: DeviceModel::Lite,
            verify_signatures: true,
            manifest_mode: ManifestMode::PerDevice,
        });
        assert_eq!(report.rounds.last().unwrap().updated, 30);
        for pair in report.rounds.windows(2) {
            assert!(pair[1].updated >= pair[0].updated, "adoption regressed");
        }
    }

    #[test]
    fn campaign_mode_non_differential_fleet_converges() {
        // Non-differential devices advertise version 0 and receive the
        // broadcast full-image response; once current, the stale re-offer
        // is rejected at the freshness check before any crypto runs.
        let report = run_rollout_sharded(&ShardedFleetConfig {
            fleet: FleetConfig {
                devices: 30,
                poll_fraction: 0.3,
                firmware_size: 4_000,
                differential: false,
                seed: 709,
            },
            shards: 4,
            threads: 2,
            device_model: DeviceModel::Lite,
            verify_signatures: true,
            manifest_mode: ManifestMode::Campaign,
        });
        assert_eq!(report.rounds.last().unwrap().updated, 30);
    }
}
