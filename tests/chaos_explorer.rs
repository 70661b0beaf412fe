//! End-to-end tests of the crash-consistency explorer: full boundary
//! coverage, the never-brick invariant on the supported configurations,
//! violation detection + shrinking on the known-unsafe one, and
//! byte-identical results across explorer thread counts.

use std::sync::Arc;

use upkit::chaos::{
    explore, explore_traced, record_boundaries, run_case, shrink_violation, ChaosConfig, FaultClass,
};
use upkit::sim::{WorldConfig, WorldMode};
use upkit::trace::{MemorySink, Tracer};

/// Small scenario: 6 kB firmware in 12 KiB (3-sector) slots keeps every
/// case cheap while still spanning multiple sectors, which is what makes
/// mid-swap faults interesting.
fn scenario(mode: WorldMode) -> WorldConfig {
    WorldConfig {
        seed: 7,
        firmware_size: 6_000,
        slot_size: 4096 * 3,
        mode,
    }
}

#[test]
fn ab_scenario_covers_every_boundary_with_zero_violations() {
    let mut config = ChaosConfig::exhaustive(scenario(WorldMode::Ab));
    config.threads = 2;
    let report = explore(&config);

    assert!(report.recorded_ops > 0, "the recording found no boundaries");
    assert_eq!(
        report.explored.len(),
        report.recorded_ops,
        "exhaustive mode explores every recorded boundary"
    );
    assert_eq!(
        report.cases.len(),
        report.recorded_ops * FaultClass::ALL.len()
    );
    assert!(report.full_coverage());
    assert!(
        report.violations().is_empty(),
        "A/B never-brick violations: {:?}",
        report.violations()
    );
    // A/B recovery is pure re-verification: no case needs a second boot.
    assert_eq!(report.max_boots_to_recovery, 1);
    for case in &report.cases {
        assert!(
            matches!(case.version, Some(1) | Some(2)),
            "case {case:?} settled on an unexpected version"
        );
    }
}

#[test]
fn static_swap_with_recovery_survives_every_fault() {
    let config = ChaosConfig::exhaustive(scenario(WorldMode::StaticSwap { recovery: true }));
    let report = explore(&config);

    assert!(report.full_coverage());
    // The swap itself is recorded: boot-time ops are boundaries too.
    assert!(
        report.recorded_ops > scenario(WorldMode::Ab).slot_size as usize / 4096,
        "expected swap ops in the recording, got {}",
        report.recorded_ops
    );
    assert!(
        report.violations().is_empty(),
        "recovery-slot never-brick violations: {:?}",
        report.violations()
    );
    // Worst case observed: cut mid-swap, second cut mid-restore, then a
    // clean restore — still comfortably bounded.
    assert!(report.max_boots_to_recovery <= 4);
}

#[test]
fn explorer_finds_and_shrinks_the_bare_static_swap_hazard() {
    // Static swap WITHOUT a recovery slot is the configuration the
    // paper's recovery image exists to fix: a cut once the swap has
    // started leaves both slots half-written. The explorer must find
    // that hazard, shrink it to its smallest failing boundary, and emit
    // a working reproducer.
    let config = ChaosConfig::exhaustive(scenario(WorldMode::StaticSwap { recovery: false }));
    let report = explore(&config);

    assert!(report.full_coverage());
    let violations = report.violations();
    assert!(
        !violations.is_empty(),
        "the unsafe configuration should brick somewhere mid-swap"
    );
    // Every violation lies in the boot-time swap, after the session's
    // slot-B erase+write ops: the session phase alone never bricks.
    let session_ops = record_boundaries(&scenario(WorldMode::Ab))
        .iter()
        .filter(|op| !matches!(op, upkit::flash::FlashOp::Reboot))
        .count() as u64;
    for violation in &violations {
        assert!(
            violation.boundary >= session_ops,
            "violation before the swap started: {violation:?}"
        );
    }

    let shrunk = shrink_violation(&config, &report).expect("violations exist, so shrinking works");
    assert!(!shrunk.case.ok());
    assert_eq!(
        shrunk.case.boundary,
        report.minimal_violation().unwrap().boundary,
        "exhaustive exploration already visited every boundary, so the \
         minimal violation is already minimal"
    );
    assert!(shrunk.command.contains("--repro static"));
    assert!(shrunk.command.contains(shrunk.case.fault.label()));

    // The reproducer command's parameters replay to the same result.
    let replayed = run_case(
        &config.scenario,
        shrunk.case.boundary,
        shrunk.case.fault,
        &Tracer::disabled(),
    );
    assert_eq!(replayed, shrunk.case);
}

/// Multi-component scenario kept one sector per slot so the exhaustive
/// (boundary × fault) product stays cheap: staging, the journal commit,
/// and every replay copy are all still distinct boundaries. 2 kB modules
/// leave room for the base OS module's v2 growth (~1.5 kB insert).
fn multi_scenario(components: u8) -> WorldConfig {
    WorldConfig {
        seed: 7,
        firmware_size: 2_000,
        slot_size: 4096,
        mode: WorldMode::Multi { components },
    }
}

#[test]
fn three_component_scenario_covers_every_boundary_with_no_mixed_sets() {
    let mut config = ChaosConfig::exhaustive(multi_scenario(3));
    config.threads = 4;
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
    let report = explore_traced(&config, &tracer);

    assert!(report.full_coverage());
    assert_eq!(
        report.cases.len(),
        report.recorded_ops * FaultClass::ALL.len()
    );
    // The recording spans staging (3 × erase+manifest+firmware), the
    // journal erase + commit record, and the replay (3 × copy + marker,
    // plus the complete marker) — cuts *between* component swaps and
    // double cuts mid-replay are all in the universe.
    assert!(
        report.recorded_ops >= 20,
        "expected staging + journal + replay boundaries, got {}",
        report.recorded_ops
    );
    assert!(
        report.violations().is_empty(),
        "multi-component violations: {:?}",
        report.violations()
    );
    let counters = tracer.counters().snapshot();
    assert_eq!(counters.fault_violations, 0);
    assert_eq!(counters.mixed_set_violations, 0);
    assert_eq!(counters.faults_injected as usize, report.cases.len());
    // Journal replay work shows up in the ledger.
    assert!(counters.components_installed > 0);
    // Every case settles on the complete old set or the complete new set.
    for case in &report.cases {
        assert!(
            matches!(case.version, Some(1) | Some(2)),
            "case {case:?} settled on an unexpected version"
        );
    }
    assert!(report.max_boots_to_recovery <= 4);
}

#[test]
fn two_component_scenario_has_no_violations() {
    let mut config = ChaosConfig::exhaustive(multi_scenario(2));
    config.threads = 2;
    let report = explore(&config);
    assert!(report.full_coverage());
    assert!(
        report.violations().is_empty(),
        "2-component violations: {:?}",
        report.violations()
    );
}

#[test]
fn multi_component_exploration_is_byte_identical_across_thread_counts() {
    let base = ChaosConfig {
        scenario: multi_scenario(3),
        threads: 1,
        boundary_limit: Some(6),
    };

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = explore_traced(&ChaosConfig { threads, ..base }, &tracer);
        let observed = (
            report.explored.clone(),
            report.cases.clone(),
            tracer.counters().snapshot(),
            sink.drain(),
        );
        match &reference {
            None => reference = Some(observed),
            Some(expected) => {
                assert_eq!(expected, &observed, "results differ at {threads} threads");
            }
        }
    }
}

#[test]
fn exploration_is_byte_identical_across_thread_counts() {
    let base = ChaosConfig {
        scenario: scenario(WorldMode::StaticSwap { recovery: true }),
        threads: 1,
        boundary_limit: Some(5),
    };

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = explore_traced(&ChaosConfig { threads, ..base }, &tracer);
        let observed = (
            report.explored.clone(),
            report.cases.clone(),
            tracer.counters().snapshot(),
            sink.drain(),
        );
        match &reference {
            None => reference = Some(observed),
            Some(expected) => {
                assert_eq!(
                    expected.0, observed.0,
                    "explored boundaries differ at {threads} threads"
                );
                assert_eq!(
                    expected.1, observed.1,
                    "case results differ at {threads} threads"
                );
                assert_eq!(
                    expected.2, observed.2,
                    "counter totals differ at {threads} threads"
                );
                assert_eq!(
                    expected.3, observed.3,
                    "trace records differ at {threads} threads"
                );
            }
        }
    }
}
