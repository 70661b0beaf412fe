//! End-to-end tests of the adversarial-input explorer: all-surface
//! coverage with zero invariant violations, typed rejection of the
//! replay surface, counter ledgering, reproducer determinism, and
//! byte-identical results across explorer thread counts.

use std::sync::Arc;

use upkit::adversary::{
    explore, explore_traced, record_baseline, run_case, shrink_violation, universe,
    AdversaryConfig, MutationClass, COMPONENT_TABLE_TARGETED, DOWNGRADE_CASES,
};
use upkit::sim::{WorldConfig, WorldMode};
use upkit::trace::{Event, MemorySink, Tracer};

/// Small scenario: 6 kB firmware in 12 KiB (3-sector) slots keeps every
/// session case cheap while the decoder corpora stay large enough that
/// bit flips land in headers, control words, and signatures alike.
fn scenario() -> WorldConfig {
    WorldConfig {
        seed: 7,
        firmware_size: 6_000,
        slot_size: 4096 * 3,
        mode: WorldMode::Ab,
    }
}

#[test]
fn strided_exploration_covers_every_surface_with_zero_violations() {
    let config = AdversaryConfig {
        scenario: scenario(),
        threads: 2,
        case_limit: Some(24),
    };
    let report = explore(&config);

    assert!(report.full_coverage());
    for surface in MutationClass::ALL {
        assert!(
            report.explored.iter().any(|(s, _)| *s == surface),
            "surface {surface:?} was not explored"
        );
    }
    assert!(
        report.violations().is_empty(),
        "adversarial-input violations: {:?}",
        report.violations()
    );
    assert_eq!(report.panics(), 0);
    assert!(
        shrink_violation(&config, &record_baseline(&config.scenario), &report).is_none(),
        "nothing to shrink when every case held"
    );
}

#[test]
fn downgrade_replays_are_rejected_at_the_manifest() {
    // Both replay flavors — a stale-nonce package and a wrong-device
    // package, each once legitimately signed — must die at manifest
    // verification, before a single payload byte is accepted.
    let s = scenario();
    let baseline = record_baseline(&s);
    for index in 0..DOWNGRADE_CASES {
        let case = run_case(
            &s,
            &baseline,
            MutationClass::DowngradeReplay,
            index,
            &Tracer::disabled(),
        );
        assert!(case.ok(), "replay case {index}: {:?}", case.violation);
        assert!(!case.panicked);
        assert_eq!(case.outcome, "rejected_at_manifest");
    }
}

#[test]
fn rejections_are_ledgered_and_forgeries_stay_zero() {
    let config = AdversaryConfig {
        scenario: scenario(),
        threads: 2,
        case_limit: Some(12),
    };
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
    let report = explore_traced(&config, &tracer);

    assert!(report.violations().is_empty());
    let snapshot = tracer.counters().snapshot();
    assert!(
        snapshot.packages_rejected > 0,
        "frame mutations must surface as typed agent rejections"
    );
    assert_eq!(snapshot.forgeries_accepted, 0);

    // Every case leaves a paired injected/checked event in the trace.
    let records = sink.drain();
    let injected = records
        .iter()
        .filter(|r| matches!(r.event, Event::MutationInjected { .. }))
        .count();
    let checked = records
        .iter()
        .filter(|r| matches!(r.event, Event::MutationChecked { ok: true, .. }))
        .count();
    assert_eq!(injected, report.cases.len());
    assert_eq!(checked, report.cases.len());
}

#[test]
fn repro_commands_replay_to_identical_results() {
    // The reproducer contract: `(scenario, surface, index)` fully
    // determines a case, so replaying any explored case — decoder or
    // session surface — yields the same result structure.
    let s = scenario();
    let baseline = record_baseline(&s);
    for (surface, index) in [
        (MutationClass::Lzss, 9),
        (MutationClass::BlockDiff, 5),
        (MutationClass::FrameCorrupt, 3),
        (MutationClass::DowngradeReplay, 1),
    ] {
        let first = run_case(&s, &baseline, surface, index, &Tracer::disabled());
        let again = run_case(&s, &baseline, surface, index, &Tracer::disabled());
        assert_eq!(first, again, "{surface:?}/{index} is not deterministic");
        let command = upkit::adversary::repro_command(&s, surface, index);
        assert!(command.contains("--repro ab"));
        assert!(command.contains(surface.label()));
    }
}

#[test]
fn exploration_is_byte_identical_across_thread_counts() {
    let base = AdversaryConfig {
        scenario: scenario(),
        threads: 1,
        case_limit: Some(6),
    };

    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = explore_traced(&AdversaryConfig { threads, ..base }, &tracer);
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
                    "explored cases differ at {threads} threads"
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

#[test]
fn mutated_commit_records_never_pass_the_record_check() {
    // The component-table surface: a journaled multi-payload commit
    // record, mutated, fed through the exact decode + dual-signature
    // path the transactional bootloader runs before any component swap.
    // Bit flips in the signed region, the structural tail, and all four
    // targeted table attacks (count bomb, bad digest, duplicate slot,
    // truncation) must produce typed rejections — never a panic, never
    // an accepted forgery.
    let s = scenario();
    let baseline = record_baseline(&s);
    let total = universe(MutationClass::ComponentTable, &baseline);
    assert!(
        total > COMPONENT_TABLE_TARGETED,
        "the record corpus must be non-trivial, got {total}"
    );

    let tracer = Tracer::disabled();
    let targeted = (total - COMPONENT_TABLE_TARGETED)..total;
    let flips = [0, 57, total / 2];
    for index in targeted.chain(flips) {
        let case = run_case(&s, &baseline, MutationClass::ComponentTable, index, &tracer);
        assert!(case.ok(), "record mutation {index}: {:?}", case.violation);
        assert!(!case.panicked, "record mutation {index} panicked");
        assert_eq!(
            case.outcome, "typed_error",
            "record mutation {index} must be rejected with a typed error"
        );
    }
    assert_eq!(tracer.counters().snapshot().forgeries_accepted, 0);
}

#[test]
fn poisoned_cache_entries_are_rejected_by_every_downstream_device() {
    // The cache-poison surface: the gateway's upstream fetch was honest,
    // the corruption lives in the warm block cache — so forwarding-path
    // integrity checks never see it. Every downstream device must still
    // reject the served stream (never-accept), whichever block is
    // poisoned, and no forgery may ever be counted as accepted.
    let s = scenario();
    let baseline = record_baseline(&s);
    let total = universe(MutationClass::CachePoison, &baseline);
    assert!(
        total >= 8,
        "the 6 kB scenario must span several cache blocks, got {total}"
    );

    let tracer = Tracer::disabled();
    for index in [0, 1, total / 2, total - 2, total - 1] {
        let case = run_case(&s, &baseline, MutationClass::CachePoison, index, &tracer);
        assert!(
            case.ok(),
            "poisoned block {index} was accepted: {:?}",
            case.violation
        );
        assert!(!case.panicked, "poisoned block {index} panicked");
        assert!(
            case.outcome.starts_with("rejected"),
            "poisoned block {index} must die at verification, got {:?}",
            case.outcome
        );
    }
    assert_eq!(
        tracer.counters().snapshot().forgeries_accepted,
        0,
        "a poisoned cache must never produce an accepted forgery"
    );
}
