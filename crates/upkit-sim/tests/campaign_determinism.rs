//! Campaign-level determinism proof: a staged rollout with a mid-stage
//! health halt produces byte-identical reports, counters, and merged
//! traces at 1, 2, and 8 threads, and the halt triggers at the same
//! virtual-clock round regardless of scheduling.
//!
//! This is the contract that makes the lock-step windows safe to
//! parallelise: health decisions live on the virtual clock (a pure
//! function of shard round summaries), never on wall-clock racing.

use std::sync::Arc;

use upkit_sim::campaign::{run_campaign_traced, CampaignConfig};
use upkit_sim::FleetConfig;
use upkit_trace::{MemorySink, Tracer};

fn halting_config() -> CampaignConfig {
    let mut config = CampaignConfig {
        fleet: FleetConfig {
            devices: 120,
            poll_fraction: 0.4,
            firmware_size: 6_000,
            differential: true,
            seed: 0xCA3_9A16,
        },
        shards: 6,
        threads: 1,
        stage_rounds: 3,
        ..CampaignConfig::default()
    };
    // A fifth of the fleet fails to boot the new image and the policy
    // tolerates almost none of it: the campaign must halt mid-stage.
    config.faults.boot_failure_bps = 2_000;
    config.health.max_boot_failures = 3;
    config
}

#[test]
fn halted_campaign_is_byte_identical_across_thread_counts() {
    let base = halting_config();
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_campaign_traced(
            &CampaignConfig {
                threads,
                ..base.clone()
            },
            &tracer,
        );
        let halt = report.halted.expect("the seeded faults must halt");
        assert_eq!(report.updated, 0, "halt must roll the fleet back");
        assert!(report.rolled_back > 0);

        let records = sink.drain();
        assert!(!records.is_empty(), "trace must capture the campaign");
        assert!(
            records.iter().any(|r| r.event.kind() == "campaign_stage"),
            "stage transitions must be traced"
        );
        assert!(
            records.iter().any(|r| r.event.kind() == "campaign_halted"),
            "the halt must be traced"
        );
        let counters = tracer.counters().snapshot();
        assert!(counters.boots_failed > 0);
        assert_eq!(counters.campaign_halts, 1);
        assert_eq!(counters.forgeries_accepted, 0);

        match &reference {
            None => reference = Some((halt, report, records, counters)),
            Some((ref_halt, ref_report, ref_records, ref_counters)) => {
                assert_eq!(
                    ref_halt.round, halt.round,
                    "{threads} threads moved the halt round"
                );
                assert_eq!(ref_halt.reason, halt.reason);
                assert_eq!(ref_report, &report, "{threads} threads changed the report");
                assert_eq!(
                    ref_records, &records,
                    "{threads} threads changed the merged trace"
                );
                assert_eq!(
                    ref_counters, &counters,
                    "{threads} threads changed the counters"
                );
            }
        }
    }
}

#[test]
fn healthy_campaign_is_byte_identical_across_thread_counts() {
    let mut base = halting_config();
    base.faults.boot_failure_bps = 0;
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_campaign_traced(
            &CampaignConfig {
                threads,
                ..base.clone()
            },
            &tracer,
        );
        assert!(report.halted.is_none());
        assert_eq!(report.updated, base.fleet.devices);
        let records = sink.drain();
        let counters = tracer.counters().snapshot();
        match &reference {
            None => reference = Some((report, records, counters)),
            Some((ref_report, ref_records, ref_counters)) => {
                assert_eq!(ref_report, &report, "{threads} threads changed the report");
                assert_eq!(ref_records, &records);
                assert_eq!(ref_counters, &counters);
            }
        }
    }
}
