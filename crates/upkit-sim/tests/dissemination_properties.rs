//! Property and determinism proofs for the multi-hop dissemination
//! layer (`upkit_sim::topology`).
//!
//! * For **any** seeded topology, loss pattern, and cache size, every
//!   device that completes installs an image byte-identical to the
//!   direct single-hop fetch — the caching proxy can change *when*
//!   bytes arrive, never *what* gets installed.
//! * With a cache large enough to hold the catalog, a gateway fetches
//!   each distinct block upstream at most once, no matter how many
//!   devices it serves.
//! * The report's cache and upstream totals equal the counters the
//!   caching proxies charged to the run's tracer.
//! * A device that sleeps at every possible event boundary mid-session
//!   still converges, with the same wire traffic and exactly one
//!   install.
//! * Reports, counters, and trace bytes are identical at 1, 2, and 8
//!   worker threads.

use std::sync::Arc;

use proptest::prelude::*;
use upkit_sim::{run_dissemination, run_dissemination_traced, DutyCycle, TopologyConfig};
use upkit_trace::{MemorySink, Tracer};

/// A small, fast base configuration the properties perturb.
fn base_config() -> TopologyConfig {
    TopologyConfig {
        firmware_size: 900,
        block_size: 256,
        max_poll_attempts: 64,
        ..TopologyConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Image integrity is topology-independent: whatever the fan-out,
    /// mesh depth, loss rate, campaign count, or cache size (including
    /// caches too small to avoid thrashing), every device converges on
    /// the byte-exact image a direct single-hop fetch installs.
    #[test]
    fn any_topology_installs_the_exact_direct_fetch_image(
        gateways in 1u32..3,
        devices_per_gateway in 1u32..7,
        mesh_hops in 1u32..3,
        loss_bps in 0u32..1200,
        campaigns in 1u32..3,
        cache_blocks in 0usize..16,
        differential in any::<bool>(),
        seed in any::<u32>(),
    ) {
        let config = TopologyConfig {
            gateways,
            devices_per_gateway,
            mesh_hops,
            loss_rate: f64::from(loss_bps) / 10_000.0,
            campaigns,
            cache_blocks,
            differential,
            seed: u64::from(seed),
            ..base_config()
        };
        let report = run_dissemination(&config);
        let devices = gateways * devices_per_gateway;
        prop_assert_eq!(report.completed, devices, "gave_up={}", report.gave_up);
        prop_assert_eq!(report.gave_up, 0);
        prop_assert_eq!(report.image_mismatches, 0);
        prop_assert_eq!(report.image_matches, u64::from(devices));
        // Exactly one install per device: retries and cache churn never
        // double-apply an update.
        prop_assert_eq!(report.installs, u64::from(devices));
    }

    /// With the whole catalog cached, upstream fetches are bounded by
    /// the number of distinct blocks: adding devices adds cache hits,
    /// never upstream traffic.
    #[test]
    fn warm_cache_fetches_each_distinct_block_at_most_once(
        gateways in 1u32..3,
        extra_devices in 1u32..6,
        campaigns in 1u32..3,
        loss_bps in 0u32..800,
        seed in any::<u32>(),
    ) {
        let wide = TopologyConfig {
            gateways,
            // Every campaign has at least one device behind every
            // gateway (round-robin assignment over contiguous indices).
            devices_per_gateway: campaigns + extra_devices,
            campaigns,
            loss_rate: f64::from(loss_bps) / 10_000.0,
            cache_blocks: 1_024,
            seed: u64::from(seed),
            ..base_config()
        };
        // Reference: one device per campaign behind each gateway pulls
        // every distinct block exactly once.
        let narrow = TopologyConfig {
            devices_per_gateway: campaigns,
            ..wide
        };
        let wide_report = run_dissemination(&wide);
        let narrow_report = run_dissemination(&narrow);
        prop_assert_eq!(wide_report.completed, gateways * (campaigns + extra_devices));
        prop_assert_eq!(wide_report.evictions, 0);
        // Fetches == distinct blocks in both runs, so more devices must
        // not move the number.
        prop_assert_eq!(wide_report.upstream_fetches, narrow_report.upstream_fetches);
        prop_assert_eq!(wide_report.upstream_bytes, narrow_report.upstream_bytes);
        prop_assert_eq!(wide_report.cache_misses, wide_report.upstream_fetches);
    }

    /// The report's cache and upstream totals are the gateways' own
    /// ledger: each equals the counter the caching proxies charged to the
    /// run's tracer.
    #[test]
    fn report_totals_are_the_proxy_counters(
        gateways in 1u32..3,
        devices_per_gateway in 1u32..7,
        loss_bps in 0u32..1200,
        campaigns in 1u32..3,
        cache_blocks in 0usize..16,
        seed in any::<u32>(),
    ) {
        let config = TopologyConfig {
            gateways,
            devices_per_gateway,
            loss_rate: f64::from(loss_bps) / 10_000.0,
            campaigns,
            cache_blocks,
            seed: u64::from(seed),
            ..base_config()
        };
        let tracer = Tracer::disabled();
        let report = run_dissemination_traced(&config, &tracer);
        let counters = tracer.counters().snapshot();
        prop_assert_eq!(report.cache_hits, counters.proxy_cache_hits);
        prop_assert_eq!(report.cache_misses, counters.proxy_cache_misses);
        prop_assert_eq!(report.evictions, counters.proxy_evictions);
        prop_assert_eq!(report.upstream_fetches, counters.upstream_fetches);
        prop_assert_eq!(report.upstream_bytes, counters.upstream_bytes);
        prop_assert_eq!(report.single_flight_joins, counters.single_flight_joins);
    }
}

/// Satellite: a device that sleeps at *every possible* event boundary
/// mid-session still converges — same frames, same wire bytes, exactly
/// one install, bounded attempts — only its completion time moves.
#[test]
fn sleeping_at_every_event_boundary_still_converges() {
    let config = TopologyConfig {
        gateways: 1,
        devices_per_gateway: 1,
        ..base_config()
    };
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
    let reference = run_dissemination_traced(&config, &tracer);
    assert_eq!(reference.completed, 1);
    assert_eq!(reference.installs, 1);

    // Every distinct record timestamp is a scheduler wake boundary.
    let mut boundaries: Vec<u64> = sink.drain().iter().map(|r| r.ts_micros).collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    assert!(
        boundaries.len() >= 8,
        "expected a real session, got {} boundaries",
        boundaries.len()
    );

    for &at_micros in &boundaries {
        let napping = TopologyConfig {
            duty: Some(DutyCycle::Nap {
                at_micros,
                duration_micros: 750_000,
            }),
            ..config
        };
        let report = run_dissemination(&napping);
        assert_eq!(report.completed, 1, "nap at {at_micros}µs must converge");
        assert_eq!(report.gave_up, 0, "nap at {at_micros}µs");
        assert_eq!(
            report.installs, 1,
            "nap at {at_micros}µs must not duplicate the install"
        );
        assert_eq!(report.image_mismatches, 0, "nap at {at_micros}µs");
        // Zero loss: a sleep defers the next event, it never costs a
        // retransmission — the wire traffic is byte-for-byte that of
        // the always-awake run.
        assert_eq!(
            report.downstream_wire_bytes, reference.downstream_wire_bytes,
            "nap at {at_micros}µs changed wire traffic"
        );
        assert_eq!(
            report.events, reference.events,
            "nap at {at_micros}µs changed the event count"
        );
        assert!(report.makespan_micros >= reference.makespan_micros);
    }
}

/// Acceptance proof: dissemination reports, counter totals, and trace
/// bytes are identical at 1, 2, and 8 worker threads, on a config that
/// exercises loss, multi-campaign cache sharing, eviction pressure, and
/// duty cycling at once.
#[test]
fn dissemination_is_byte_identical_across_thread_counts() {
    let config = TopologyConfig {
        gateways: 6,
        devices_per_gateway: 5,
        mesh_hops: 2,
        loss_rate: 0.06,
        campaigns: 2,
        cache_blocks: 8,
        duty: Some(DutyCycle::Periodic {
            awake_micros: 500_000,
            asleep_micros: 250_000,
        }),
        max_poll_attempts: 48,
        ..base_config()
    };
    let mut reference: Option<(
        upkit_sim::DisseminationReport,
        upkit_trace::CountersSnapshot,
        String,
    )> = None;
    for threads in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_dissemination_traced(&TopologyConfig { threads, ..config }, &tracer);
        assert_eq!(report.completed, 30, "gave_up={}", report.gave_up);
        assert_eq!(report.image_mismatches, 0);
        let counters = tracer.counters().snapshot();
        let ndjson: String = sink
            .drain()
            .iter()
            .map(|r| r.to_ndjson())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!ndjson.is_empty());
        match &reference {
            None => reference = Some((report, counters, ndjson)),
            Some((ref_report, ref_counters, ref_ndjson)) => {
                assert_eq!(&report, ref_report, "report diverged at {threads} threads");
                assert_eq!(
                    &counters, ref_counters,
                    "counters diverged at {threads} threads"
                );
                assert_eq!(
                    &ndjson, ref_ndjson,
                    "trace bytes diverged at {threads} threads"
                );
            }
        }
    }
}
