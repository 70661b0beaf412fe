//! Multi-hop dissemination: caching gateway proxies, lossy mesh
//! topologies, duty-cycled devices, and concurrent campaigns.
//!
//! The event rollout ([`crate::events`]) runs every device's pull
//! [`Session`](upkit_net::Session) straight against the update
//! server: one upstream transfer per device. Real deployments put a
//! gateway between the constrained mesh and the Internet, and the whole
//! point of a gateway is that it only has to fetch each update **once**.
//! This module models that on the same session scheduler, with a stream
//! source that serves each device through its gateway's proxy:
//!
//! * **Topology.** A two-tier tree/mesh: each gateway serves
//!   `devices_per_gateway` devices over an 802.15.4 access radio relayed
//!   across `mesh_hops` store-and-forward hops (latency scales with the
//!   hop count, and per-hop Bernoulli loss compounds to
//!   `1 - (1-p)^hops`). Each gateway reaches the update server over a
//!   `backhaul_hops`-hop WiFi/Internet backhaul.
//! * **Caching.** Every gateway is a [`CachingProxy`]: a bounded,
//!   LRU-evicted block cache keyed by `(origin digest, block index)`. A
//!   cache hit serves downstream without touching the backhaul; a miss
//!   single-flights the upstream fetch so overlapping downstream sessions
//!   share one transfer; `cache_blocks = 0` disables caching entirely and
//!   degenerates to per-device unicast (the baseline the benches compare
//!   against).
//! * **Campaigns.** `campaigns` independent v1→v2 rollouts run
//!   concurrently; devices are assigned round-robin. The campaigns'
//!   origins are distinct, so they compete for both cache capacity and
//!   the shared backhaul (the proxy serializes upstream fetches on one
//!   `busy_until` horizon).
//! * **Duty cycling.** An optional [`DutyCycle`] defers device wake
//!   events that land in a sleep window; a device that naps mid-session
//!   resumes exactly where it left off (the session state machine is
//!   resumable by construction) and only its wall-clock completion time
//!   moves.
//!
//! Every installed image is compared byte for byte with what a direct
//! single-hop fetch installs: one poll of a lone device on a loss-free
//! link with no proxy, run on the same scheduler.
//!
//! **Determinism guarantee.** The final [`DisseminationReport`] — and,
//! under a tracing collector, the counter totals and the trace byte
//! stream — is a pure function of the [`TopologyConfig`], independent of
//! worker thread count. Each gateway is one shard with its own scheduler
//! run, proxy, and tracer; shards share no mutable state, and
//! [`upkit_core::parallel::map_traced`] merges the per-shard traces in
//! gateway-index order after the join. The proof test runs at 1, 2, and
//! 8 threads and compares reports, counters, and trace bytes for
//! equality.

use upkit_core::parallel::map_traced;
use upkit_manifest::{DeviceToken, Version};
use upkit_net::{
    CachedOrigin, CachingProxy, LinkProfile, LossyLink, RetryPolicy, StreamResolution,
};
use upkit_trace::Tracer;

use crate::events::{broadcast_stream, run_sessions, Schedule, StreamSource};
use crate::lite::{LiteDevice, LiteEnv, UpgradeWorld};

/// A device sleep schedule: wake events that land inside a sleep window
/// are deferred to the next awake instant. Sessions are resumable, so a
/// device that sleeps mid-transfer picks up exactly where it left off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DutyCycle {
    /// Awake for `awake_micros`, asleep for `asleep_micros`, repeating.
    /// Each device gets a deterministic per-device phase offset so the
    /// fleet doesn't wake in lockstep. `awake_micros = 0` is treated as
    /// always-awake (a device that never wakes could never converge).
    Periodic {
        /// Length of the awake window in virtual microseconds.
        awake_micros: u64,
        /// Length of the asleep window in virtual microseconds.
        asleep_micros: u64,
    },
    /// One single nap: asleep for `duration_micros` starting at
    /// `at_micros`. The duty-cycle test suite slides this across every
    /// event boundary of a reference run to prove any mid-session sleep
    /// point converges.
    Nap {
        /// Virtual time the nap starts.
        at_micros: u64,
        /// Nap length in virtual microseconds.
        duration_micros: u64,
    },
}

impl DutyCycle {
    /// The earliest awake instant at or after `t` for a device with
    /// phase offset `phase` (periodic schedules only; naps ignore it).
    #[must_use]
    pub fn defer(&self, phase: u64, t: u64) -> u64 {
        match *self {
            DutyCycle::Periodic {
                awake_micros,
                asleep_micros,
            } => {
                let period = awake_micros.saturating_add(asleep_micros);
                if awake_micros == 0 || asleep_micros == 0 || period == 0 {
                    return t;
                }
                let pos = (t.wrapping_add(phase)) % period;
                if pos < awake_micros {
                    t
                } else {
                    t + (period - pos)
                }
            }
            DutyCycle::Nap {
                at_micros,
                duration_micros,
            } => {
                let end = at_micros.saturating_add(duration_micros);
                if t >= at_micros && t < end {
                    end
                } else {
                    t
                }
            }
        }
    }
}

/// Parameters of a multi-hop dissemination run.
#[derive(Clone, Copy, Debug)]
pub struct TopologyConfig {
    /// Number of gateways (each is one deterministic shard).
    pub gateways: u32,
    /// Devices behind each gateway.
    pub devices_per_gateway: u32,
    /// Store-and-forward hops between a device and its gateway
    /// (1 = direct tree leaf; more = mesh depth).
    pub mesh_hops: u32,
    /// Hops on each gateway's backhaul to the update server.
    pub backhaul_hops: u32,
    /// Per-hop Bernoulli loss probability on the access mesh; compounds
    /// across `mesh_hops`.
    pub loss_rate: f64,
    /// Concurrent independent v1→v2 campaigns (devices assigned
    /// round-robin). Must be at least 1.
    pub campaigns: u32,
    /// Firmware size in bytes (per campaign).
    pub firmware_size: usize,
    /// Whether devices advertise differential support.
    pub differential: bool,
    /// Gateway cache capacity in blocks; 0 disables caching (per-device
    /// unicast baseline).
    pub cache_blocks: usize,
    /// Cache block size in bytes.
    pub block_size: usize,
    /// Optional device sleep schedule.
    pub duty: Option<DutyCycle>,
    /// Retransmission policy for every downstream session.
    pub retry: RetryPolicy,
    /// Devices start their first poll uniformly inside this window.
    pub poll_window_micros: u64,
    /// Delay before a failed session's next poll.
    pub retry_poll_delay_micros: u64,
    /// Total poll attempts before a device gives up.
    pub max_poll_attempts: u32,
    /// Whether devices verify manifest signatures.
    pub verify_signatures: bool,
    /// Worker threads (shards are work-stolen; the report is identical
    /// at any thread count).
    pub threads: usize,
    /// Seed for world generation, poll spread, loss, and duty phases.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            gateways: 1,
            devices_per_gateway: 8,
            mesh_hops: 1,
            backhaul_hops: 1,
            loss_rate: 0.0,
            campaigns: 1,
            firmware_size: 4_000,
            differential: false,
            cache_blocks: 64,
            block_size: 512,
            duty: None,
            retry: RetryPolicy::for_link(&LinkProfile::ieee802154_6lowpan()),
            poll_window_micros: 100_000,
            retry_poll_delay_micros: 5_000_000,
            max_poll_attempts: 8,
            verify_signatures: true,
            threads: 1,
            seed: 0xD15E,
        }
    }
}

/// Per-gateway shard results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Gateway index.
    pub gateway: u32,
    /// Devices that finished their update behind this gateway.
    pub completed: u32,
    /// Devices that exhausted their poll attempts.
    pub gave_up: u32,
    /// Completed installs across this gateway's devices (one per device
    /// unless something re-installed — the duty tests pin this).
    pub installs: u64,
    /// Installed images byte-identical to the direct single-hop fetch.
    pub image_matches: u64,
    /// Installed images differing from the direct single-hop fetch
    /// (must stay 0: integrity holds through any proxy).
    pub image_mismatches: u64,
    /// Payload bytes moved on the access mesh (both directions).
    pub downstream_wire_bytes: u64,
    /// Bytes this gateway pulled over its backhaul.
    pub upstream_bytes: u64,
    /// Upstream block fetches this gateway issued.
    pub upstream_fetches: u64,
    /// Blocks served straight from the gateway cache.
    pub cache_hits: u64,
    /// Blocks fetched upstream before serving.
    pub cache_misses: u64,
    /// Blocks that joined an in-flight upstream fetch.
    pub single_flight_joins: u64,
    /// Cache blocks evicted under capacity pressure.
    pub evictions: u64,
    /// Sleep deferrals applied to this gateway's devices.
    pub slept: u64,
    /// Virtual time the last session behind this gateway ended.
    pub makespan_micros: u64,
}

/// Aggregate outcome of a dissemination run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DisseminationReport {
    /// Devices that finished their update.
    pub completed: u32,
    /// Devices that exhausted their poll attempts.
    pub gave_up: u32,
    /// Total completed installs (no device installs twice per version).
    pub installs: u64,
    /// Installed images byte-identical to the direct single-hop fetch.
    pub image_matches: u64,
    /// Installed images differing from it (must stay 0).
    pub image_mismatches: u64,
    /// Total link events stepped.
    pub events: u64,
    /// Total bytes pulled over all gateway backhauls — the headline
    /// number caching exists to shrink.
    pub upstream_bytes: u64,
    /// Total upstream block fetches.
    pub upstream_fetches: u64,
    /// Total cache hits across gateways.
    pub cache_hits: u64,
    /// Total cache misses across gateways.
    pub cache_misses: u64,
    /// Total single-flight joins across gateways.
    pub single_flight_joins: u64,
    /// Total cache evictions across gateways.
    pub evictions: u64,
    /// Total payload bytes on the access meshes (both directions).
    pub downstream_wire_bytes: u64,
    /// Total sleep deferrals.
    pub slept: u64,
    /// Virtual time the last session anywhere ended.
    pub makespan_micros: u64,
    /// Per-gateway breakdown, in gateway order.
    pub per_gateway: Vec<GatewayStats>,
}

/// One campaign's shared, read-only world: the origin stream every
/// gateway caches, what devices check it against, and the reference
/// image a direct (proxy-free, loss-free, single-hop) fetch installs.
struct Campaign {
    origin: CachedOrigin,
    lite: LiteEnv,
    /// What a direct single-hop fetch of this campaign installs —
    /// obtained by actually running one, not assumed.
    expected_image: Vec<u8>,
}

/// Serves each device its campaign's stream (campaign chosen by
/// fleet-wide device index) through the gateway's caching proxy, or
/// directly (no proxy) for the single-hop reference fetch the
/// dissemination results are compared against.
struct GatewaySource<'a> {
    campaigns: &'a [Campaign],
    proxy: Option<&'a mut CachingProxy>,
}

/// The campaign of fleet-wide device `index` (assigned round-robin).
fn campaign_of(campaigns: &[Campaign], index: usize) -> &Campaign {
    &campaigns[index % campaigns.len()]
}

impl StreamSource for GatewaySource<'_> {
    fn lite(&self, index: usize) -> &LiteEnv {
        &campaign_of(self.campaigns, index).lite
    }

    fn resolve(
        &mut self,
        index: usize,
        device: &LiteDevice,
        _: &DeviceToken,
        now: u64,
    ) -> StreamResolution {
        if device.installed >= Version(2) {
            return StreamResolution::NoUpdate;
        }
        let origin = &campaign_of(self.campaigns, index).origin;
        match self.proxy.as_deref_mut() {
            Some(proxy) => proxy.resolve(origin, now),
            None => StreamResolution::Stream(origin.direct_stream()),
        }
    }
}

impl TopologyConfig {
    /// The session schedule of the devices from fleet-wide index
    /// `first_index` on, over `link`.
    fn schedule(&self, link: LossyLink, first_index: usize) -> Schedule {
        Schedule {
            link,
            retry: self.retry,
            first_index,
            poll_window_micros: self.poll_window_micros,
            retry_poll_delay_micros: self.retry_poll_delay_micros,
            max_poll_attempts: self.max_poll_attempts,
            verify_signatures: self.verify_signatures,
            duty: self.duty,
            reverse_tie_break: false,
        }
    }
}

/// Builds the campaigns' shared worlds: publish v1/v2, prepare the
/// canonical campaign stream, and run one direct single-hop reference
/// fetch to capture the ground-truth installed image.
fn build_campaigns(config: &TopologyConfig) -> Vec<Campaign> {
    let count = config.campaigns.max(1);
    (0..count)
        .map(|c| {
            let seed = config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(c)));
            let world = UpgradeWorld::build(seed, config.firmware_size);
            let mut campaign = Campaign {
                origin: CachedOrigin::new(&broadcast_stream(&world, config.differential)),
                lite: LiteEnv::new(&world, false),
                expected_image: Vec::new(),
            };
            campaign.expected_image = direct_reference_fetch(config, &campaign);
            campaign
        })
        .collect()
}

/// Runs the direct single-hop reference fetch: one poll of a lone device
/// on a loss-free access link, no proxy in the path. Returns the image it
/// installs — the byte-exact target every proxied device must match.
fn direct_reference_fetch(config: &TopologyConfig, campaign: &Campaign) -> Vec<u8> {
    let lossless = LossyLink::bernoulli(LinkProfile::ieee802154_6lowpan(), 0.0, config.seed);
    let schedule = Schedule {
        max_poll_attempts: 1,
        duty: None,
        ..config.schedule(lossless, 0)
    };
    let mut device = [LiteDevice::new(0x0FFF, config.differential)];
    let mut source = GatewaySource {
        campaigns: std::slice::from_ref(campaign),
        proxy: None,
    };
    run_sessions(&schedule, &mut device, &mut source, &Tracer::disabled());
    device[0]
        .installed_image()
        .expect("the loss-free direct reference fetch installs an image")
        .to_vec()
}

/// Runs one gateway's shard: its caching proxy and its devices on the
/// session scheduler. Pure function of `(config, campaigns, gateway)` —
/// shards share no mutable state. `tracer` is the shard's own
/// ([`map_traced`] keeps one per gateway), so the counters the proxy
/// charged to it are the gateway's cache and upstream totals.
fn run_gateway_shard(
    config: &TopologyConfig,
    campaigns: &[Campaign],
    gateway: u32,
    tracer: &Tracer,
) -> (GatewayStats, u64) {
    let backhaul = LinkProfile::wifi_backhaul().multi_hop(config.backhaul_hops);
    let mut proxy = CachingProxy::new(
        u64::from(gateway),
        config.block_size,
        config.cache_blocks,
        backhaul,
    );
    proxy.set_tracer(tracer.clone());

    let access = LinkProfile::ieee802154_6lowpan().multi_hop(config.mesh_hops);
    // Per-hop loss compounds across the mesh: a transfer survives only if
    // every hop delivers it.
    let mut survive = 1.0f64;
    for _ in 0..config.mesh_hops.max(1) {
        survive *= 1.0 - config.loss_rate;
    }
    let lossy = LossyLink::bernoulli(access, 1.0 - survive, config.seed);

    let dpg = config.devices_per_gateway as usize;
    let first = gateway as usize * dpg;
    let mut devices: Vec<LiteDevice> = (first..first + dpg)
        .map(|i| LiteDevice::new(0x1000 + i as u32, config.differential))
        .collect();
    let run = run_sessions(
        &config.schedule(lossy, first),
        &mut devices,
        &mut GatewaySource {
            campaigns,
            proxy: Some(&mut proxy),
        },
        tracer,
    );

    let counters = tracer.counters().snapshot();
    let mut stats = GatewayStats {
        gateway,
        downstream_wire_bytes: run.wire_bytes,
        upstream_bytes: counters.upstream_bytes,
        upstream_fetches: counters.upstream_fetches,
        cache_hits: counters.proxy_cache_hits,
        cache_misses: counters.proxy_cache_misses,
        single_flight_joins: counters.single_flight_joins,
        evictions: counters.proxy_evictions,
        makespan_micros: run.makespan_micros,
        ..GatewayStats::default()
    };
    for (i, (device, outcome)) in devices.iter().zip(&run.outcomes).enumerate() {
        stats.completed += u32::from(outcome.completed_at.is_some());
        stats.gave_up += u32::from(outcome.gave_up);
        stats.installs += u64::from(device.installs);
        stats.slept += outcome.slept;
        if let Some(image) = device.installed_image() {
            if image == campaign_of(campaigns, first + i).expected_image {
                stats.image_matches += 1;
            } else {
                stats.image_mismatches += 1;
            }
        }
    }
    (stats, run.events)
}

/// Runs a dissemination campaign without tracing.
#[must_use]
pub fn run_dissemination(config: &TopologyConfig) -> DisseminationReport {
    run_dissemination_traced(config, &Tracer::disabled())
}

/// Runs a dissemination campaign, streaming per-shard traces into
/// `tracer` merged in gateway-index order: byte-identical output at any
/// worker thread count.
pub fn run_dissemination_traced(config: &TopologyConfig, tracer: &Tracer) -> DisseminationReport {
    let campaigns = build_campaigns(config);
    let gateways: Vec<u32> = (0..config.gateways.max(1)).collect();
    let shards = map_traced(
        &gateways,
        config.threads,
        tracer,
        |_, &gateway, shard_tracer| run_gateway_shard(config, &campaigns, gateway, shard_tracer),
    );

    // The report is summed in gateway-index order, like the trace.
    let mut report = DisseminationReport::default();
    for (stats, events) in shards {
        report.completed += stats.completed;
        report.gave_up += stats.gave_up;
        report.installs += stats.installs;
        report.image_matches += stats.image_matches;
        report.image_mismatches += stats.image_mismatches;
        report.events += events;
        report.upstream_bytes += stats.upstream_bytes;
        report.upstream_fetches += stats.upstream_fetches;
        report.cache_hits += stats.cache_hits;
        report.cache_misses += stats.cache_misses;
        report.single_flight_joins += stats.single_flight_joins;
        report.evictions += stats.evictions;
        report.downstream_wire_bytes += stats.downstream_wire_bytes;
        report.slept += stats.slept;
        report.makespan_micros = report.makespan_micros.max(stats.makespan_micros);
        report.per_gateway.push(stats);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TopologyConfig {
        TopologyConfig {
            firmware_size: 1_200,
            block_size: 256,
            ..TopologyConfig::default()
        }
    }

    #[test]
    fn zero_loss_tree_converges_and_caches() {
        let config = small();
        let report = run_dissemination(&config);
        assert_eq!(report.completed, 8);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.installs, 8);
        assert_eq!(report.image_matches, 8);
        assert_eq!(report.image_mismatches, 0);
        // The cache holds the whole origin: exactly one upstream fetch
        // per distinct block, every other serve is a hit.
        let blocks = report.upstream_fetches;
        assert!(blocks > 0);
        assert_eq!(report.cache_misses, report.upstream_fetches);
        assert!(report.cache_hits + report.single_flight_joins >= 7 * blocks);
        assert_eq!(report.evictions, 0);
    }

    #[test]
    fn caching_beats_unicast_on_upstream_bytes() {
        let cached = run_dissemination(&small());
        let unicast = run_dissemination(&TopologyConfig {
            cache_blocks: 0,
            ..small()
        });
        assert_eq!(unicast.completed, 8);
        assert!(
            cached.upstream_bytes * 3 < unicast.upstream_bytes,
            "cached {} vs unicast {}",
            cached.upstream_bytes,
            unicast.upstream_bytes
        );
        // Caching changes the backhaul, not the devices: both runs move
        // the same bytes on the access mesh and install the same images.
        assert_eq!(cached.downstream_wire_bytes, unicast.downstream_wire_bytes);
        assert_eq!(unicast.image_mismatches, 0);
    }

    #[test]
    fn overlapping_campaigns_share_the_cache_and_converge() {
        let config = TopologyConfig {
            campaigns: 3,
            devices_per_gateway: 9,
            ..small()
        };
        let report = run_dissemination(&config);
        assert_eq!(report.completed, 9);
        assert_eq!(report.image_matches, 9);
        assert_eq!(report.image_mismatches, 0);
        // Three distinct origins were fetched once each.
        let single = run_dissemination(&small());
        assert_eq!(report.upstream_fetches, 3 * single.upstream_fetches);
    }

    #[test]
    fn lossy_mesh_still_installs_the_exact_image() {
        let config = TopologyConfig {
            mesh_hops: 3,
            loss_rate: 0.05,
            max_poll_attempts: 32,
            ..small()
        };
        let report = run_dissemination(&config);
        assert_eq!(report.completed, 8, "gave_up={}", report.gave_up);
        assert_eq!(report.image_matches, 8);
        assert_eq!(report.image_mismatches, 0);
    }

    #[test]
    fn duty_cycled_devices_sleep_but_still_converge() {
        let awake = TopologyConfig { ..small() };
        let dozing = TopologyConfig {
            duty: Some(DutyCycle::Periodic {
                awake_micros: 400_000,
                asleep_micros: 200_000,
            }),
            ..small()
        };
        let a = run_dissemination(&awake);
        let d = run_dissemination(&dozing);
        assert_eq!(d.completed, 8);
        assert_eq!(d.installs, 8, "sleeping must not duplicate installs");
        assert_eq!(d.image_mismatches, 0);
        assert!(d.slept > 0, "the schedule must actually defer something");
        // Sleeping costs wall-clock time, never radio bytes.
        assert_eq!(d.downstream_wire_bytes, a.downstream_wire_bytes);
        assert!(d.makespan_micros > a.makespan_micros);
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let config = TopologyConfig {
            gateways: 4,
            devices_per_gateway: 4,
            loss_rate: 0.08,
            max_poll_attempts: 24,
            ..small()
        };
        let one = run_dissemination(&TopologyConfig {
            threads: 1,
            ..config
        });
        let two = run_dissemination(&TopologyConfig {
            threads: 2,
            ..config
        });
        let eight = run_dissemination(&TopologyConfig {
            threads: 8,
            ..config
        });
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn bounded_cache_evicts_and_still_converges() {
        let config = TopologyConfig {
            campaigns: 2,
            devices_per_gateway: 8,
            cache_blocks: 3,
            ..small()
        };
        let report = run_dissemination(&config);
        assert_eq!(report.completed, 8);
        assert_eq!(report.image_mismatches, 0);
        assert!(report.evictions > 0, "two origins must not fit in 3 blocks");
        // Thrashing refetches: more upstream fetches than distinct blocks.
        let distinct = run_dissemination(&TopologyConfig {
            campaigns: 2,
            devices_per_gateway: 8,
            ..small()
        })
        .upstream_fetches;
        assert!(report.upstream_fetches > distinct);
    }
}
