//! Crash-consistency model checker for UpKit update scenarios.
//!
//! The paper's central robustness claim is that a device applying an
//! update can lose power at *any* moment and still boot a valid image
//! afterwards ("never brick"). The power-loss scenarios in `upkit-sim`
//! spot-check that claim at hand-picked byte budgets; this crate proves
//! it exhaustively for a scenario:
//!
//! 1. **Record** — run the scenario once over an instrumented flash
//!    proxy ([`upkit_flash::FaultFlash`]) that logs every mutating
//!    flash operation: each write (byte range) and each sector erase,
//!    plus reboot markers. Every logged op is a *boundary* at which
//!    power could plausibly fail.
//! 2. **Explore** — re-execute the scenario once per `(boundary, fault)`
//!    pair, injecting one fault from the model below exactly at that
//!    op, then reboot in a loop until the bootloader's decision is
//!    stable (a fixed point).
//! 3. **Check** — assert the never-brick invariant after every case:
//!    the booted slot holds a *dual-signature-valid* image whose
//!    version is at least the pre-update version.
//!
//! # Fault model
//!
//! | Fault | At the boundary op... |
//! |---|---|
//! | [`FaultClass::CleanCut`] | power dies before the op writes anything |
//! | [`FaultClass::TornWrite`] | half the write's bytes land, then power dies |
//! | [`FaultClass::TornErase`] | half the sector reads erased, then power dies |
//! | [`FaultClass::BitFlip`] | op is cut AND a bit of its first byte reads back wrong |
//! | [`FaultClass::DoubleCut`] | clean cut, and a second cut on the first recovery write |
//!
//! Exploration fans out across threads through
//! [`upkit_core::parallel::map_traced`]: each case runs with a private
//! tracer, and results are merged in case-index order, so the report,
//! the counter totals, and the trace byte stream are identical for any
//! thread count.
//!
//! When a violation is found, [`shrink_violation`] reduces it to the
//! smallest failing boundary for that fault class and emits a one-line
//! reproducer command for the `chaos_explore` bench binary.

#![warn(missing_docs)]

use upkit_core::parallel::map_traced;
use upkit_flash::fault::{FaultFlash, FaultKind, FaultPlan, FlashOp};
use upkit_flash::SimFlash;
pub use upkit_sim::failure::{mode_from_label, mode_label};
use upkit_sim::failure::{update_world, world_geometry, WorldConfig};
use upkit_trace::{Event, Tracer};

/// The five fault classes injected at every explored boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Power dies exactly before the boundary op mutates anything.
    CleanCut,
    /// The boundary write lands half its bytes, then power dies.
    TornWrite,
    /// The boundary erase completes half the sector, then power dies.
    TornErase,
    /// The op is cut and the first byte of its range additionally reads
    /// back with a cleared bit (a weakly-programmed cell).
    BitFlip,
    /// A clean cut at the boundary, then a second cut on the very first
    /// mutating op of the recovery boot — power failing *during*
    /// recovery, the paper's hardest case.
    DoubleCut,
}

impl FaultClass {
    /// Every fault class, in canonical exploration order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::CleanCut,
        FaultClass::TornWrite,
        FaultClass::TornErase,
        FaultClass::BitFlip,
        FaultClass::DoubleCut,
    ];

    /// Stable label used in traces, reports, and reproducer commands.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::CleanCut => "clean_cut",
            FaultClass::TornWrite => "torn_write",
            FaultClass::TornErase => "torn_erase",
            FaultClass::BitFlip => "bit_flip",
            FaultClass::DoubleCut => "double_cut",
        }
    }

    /// Inverse of [`FaultClass::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.label() == label)
    }

    /// The flash-level fault plan realising this class at `boundary`.
    #[must_use]
    pub fn plan(self, boundary: u64) -> FaultPlan {
        let (kind, recovery_cut) = match self {
            FaultClass::CleanCut => (FaultKind::CleanCut, None),
            FaultClass::TornWrite => (FaultKind::TornWrite, None),
            FaultClass::TornErase => (FaultKind::TornErase, None),
            FaultClass::BitFlip => (FaultKind::BitFlip, None),
            // Second cut on the 0th mutating op after power returns.
            FaultClass::DoubleCut => (FaultKind::CleanCut, Some(0)),
        };
        FaultPlan {
            boundary,
            kind,
            recovery_cut,
        }
    }
}

/// Parameters of one exploration run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// The update scenario under test.
    pub scenario: WorldConfig,
    /// Worker threads for the case fan-out (results are identical for
    /// any value ≥ 1).
    pub threads: usize,
    /// Reboot budget per case before declaring non-convergence.
    pub max_boots: u32,
    /// Explore at most this many boundaries, evenly strided across the
    /// recording (`None` = every boundary).
    pub boundary_limit: Option<usize>,
}

impl ChaosConfig {
    /// Exhaustive single-scenario exploration with sensible defaults.
    #[must_use]
    pub fn exhaustive(scenario: WorldConfig) -> Self {
        Self {
            scenario,
            threads: 1,
            max_boots: 8,
            boundary_limit: None,
        }
    }
}

/// Outcome of one `(boundary, fault)` case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// Index of the faulted op in the recorded boundary log.
    pub boundary: u64,
    /// The injected fault class.
    pub fault: FaultClass,
    /// Whether the propagation session was interrupted by the fault.
    pub session_interrupted: bool,
    /// Boots the recovery loop needed to reach a fixed point (0 when it
    /// never did).
    pub boots: u32,
    /// Version running at the fixed point, if one was reached.
    pub version: Option<u16>,
    /// `None` when the never-brick invariant held; otherwise a
    /// description of how it failed.
    pub violation: Option<String>,
}

impl CaseResult {
    /// Whether the never-brick invariant held for this case.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Everything one exploration run learned.
#[derive(Debug)]
pub struct ChaosReport {
    /// The scenario that was explored.
    pub scenario: WorldConfig,
    /// Mutating flash ops recorded for the fault-free run (== the full
    /// boundary universe).
    pub recorded_ops: usize,
    /// The boundaries actually explored (all of them unless
    /// [`ChaosConfig::boundary_limit`] strided them).
    pub explored: Vec<u64>,
    /// One result per `(boundary, fault)` pair, in canonical order.
    pub cases: Vec<CaseResult>,
    /// The worst-case boot count any case needed to converge.
    pub max_boots_to_recovery: u32,
}

impl ChaosReport {
    /// The cases that violated the never-brick invariant.
    #[must_use]
    pub fn violations(&self) -> Vec<&CaseResult> {
        self.cases.iter().filter(|c| !c.ok()).collect()
    }

    /// The violation at the smallest `(boundary, fault)` pair, if any.
    #[must_use]
    pub fn minimal_violation(&self) -> Option<&CaseResult> {
        self.cases
            .iter()
            .filter(|c| !c.ok())
            .min_by_key(|c| (c.boundary, c.fault))
    }

    /// Whether every explored boundary was checked under every fault
    /// class — the coverage obligation: the case set must equal the
    /// full cross product, nothing skipped, nothing duplicated.
    #[must_use]
    pub fn full_coverage(&self) -> bool {
        use std::collections::HashSet;
        let expected: HashSet<(u64, FaultClass)> = self
            .explored
            .iter()
            .flat_map(|&b| FaultClass::ALL.into_iter().map(move |f| (b, f)))
            .collect();
        let actual: HashSet<(u64, FaultClass)> =
            self.cases.iter().map(|c| (c.boundary, c.fault)).collect();
        actual == expected && self.cases.len() == expected.len()
    }
}

/// Runs the scenario once, fault-free, over a recording proxy and
/// returns the full op log: every mutating flash op of the push session,
/// a [`FlashOp::Reboot`] marker, then every mutating op of the post-
/// update boot sequence (a static-swap scenario moves flash at boot, so
/// its boot ops are boundaries too).
#[must_use]
pub fn record_boundaries(scenario: &WorldConfig) -> Vec<FlashOp> {
    let (proxy, log) = FaultFlash::recording(Box::new(SimFlash::new(world_geometry(scenario))));
    let mut world = update_world(scenario, Box::new(proxy));
    let outcome = world.run_push_once(scenario.seed as u32 | 1);
    assert!(
        matches!(outcome, upkit_net::SessionOutcome::Complete),
        "the fault-free recording run must complete, got {outcome:?}"
    );
    log.lock().expect("op log poisoned").push(FlashOp::Reboot);
    world
        .reboot_to_fixed_point(8)
        .expect("the fault-free run must boot");
    let ops = log.lock().expect("op log poisoned").clone();
    ops
}

/// The boundary indices to explore: all of them, or `limit` evenly
/// strided across the recording (always including boundary 0).
#[must_use]
pub fn select_boundaries(total: usize, limit: Option<usize>) -> Vec<u64> {
    match limit {
        Some(limit) if limit < total => (0..limit).map(|i| (i * total / limit) as u64).collect(),
        _ => (0..total as u64).collect(),
    }
}

/// Re-runs the scenario with `fault` injected at `boundary`, reboots to
/// a fixed point, and checks the never-brick invariant. Flash, boot, and
/// fault counters are charged to `tracer`, which also receives
/// `fault_injected` / `fault_checked` events.
pub fn run_case(
    scenario: &WorldConfig,
    boundary: u64,
    fault: FaultClass,
    max_boots: u32,
    tracer: &Tracer,
) -> CaseResult {
    // Build the proxy idle and only arm the plan once the world is
    // provisioned: `update_world` resets the boundary epoch after
    // installing v1, so `boundary` indexes update-time ops exactly as
    // [`record_boundaries`] numbered them.
    let (proxy, handle) = FaultFlash::injectable(Box::new(SimFlash::new(world_geometry(scenario))));
    let mut world = update_world(scenario, Box::new(proxy));
    handle.inject(fault.plan(boundary));
    world.layout.set_tracer(tracer.clone());
    upkit_trace::Counters::add(&tracer.counters().faults_injected, 1);
    tracer.emit(|| Event::FaultInjected {
        boundary,
        fault: fault.label(),
    });

    let outcome = world.run_push_once(scenario.seed as u32 | 1);
    let session_interrupted = !matches!(outcome, upkit_net::SessionOutcome::Complete);

    let base = world.base_version;
    let (boots, version, violation) = match world.reboot_to_fixed_point(max_boots) {
        Ok(report) => {
            let booted = report.outcome.booted_slot;
            let version = report.outcome.version;
            let violation = if !world.slot_verifies(booted) {
                Some(format!(
                    "booted slot {booted:?} does not hold a dual-signature-valid image"
                ))
            } else if version < base {
                Some(format!(
                    "booted version {version} is older than the pre-update version {base}"
                ))
            } else if world.component_set_mixed() {
                // The never-mixed-set invariant (multi-component worlds
                // only; `component_set_mixed` is vacuously false
                // otherwise): a stable boot must run either the complete
                // old set or the complete new set.
                upkit_trace::Counters::add(&tracer.counters().mixed_set_violations, 1);
                Some(format!(
                    "mixed component set at the fixed point: {:?}",
                    world.component_versions()
                ))
            } else {
                None
            };
            (report.boots, Some(version.0), violation)
        }
        Err(err) => (0, None, Some(format!("device bricked: {err}"))),
    };

    if violation.is_some() {
        upkit_trace::Counters::add(&tracer.counters().fault_violations, 1);
    }
    tracer.emit(|| Event::FaultChecked {
        boundary,
        fault: fault.label(),
        boots: u64::from(boots),
        version: u64::from(version.unwrap_or(0)),
        ok: violation.is_none(),
    });

    CaseResult {
        boundary,
        fault,
        session_interrupted,
        boots,
        version,
        violation,
    }
}

/// [`explore_traced`] with tracing disabled.
#[must_use]
pub fn explore(config: &ChaosConfig) -> ChaosReport {
    explore_traced(config, &Tracer::disabled())
}

/// Records the scenario's boundaries, then explores every selected
/// `(boundary, fault)` case across `config.threads` workers.
///
/// Determinism: every case is a pure function of `(scenario, boundary,
/// fault)`; each worker charges a case-private tracer, and the private
/// buffers are merged into `tracer` in case-index order — so the report,
/// counter totals, and trace record sequence are byte-identical for any
/// thread count.
#[must_use]
pub fn explore_traced(config: &ChaosConfig, tracer: &Tracer) -> ChaosReport {
    let ops = record_boundaries(&config.scenario);
    let recorded_ops = ops
        .iter()
        .filter(|op| !matches!(op, FlashOp::Reboot))
        .count();
    let explored = select_boundaries(recorded_ops, config.boundary_limit);

    let cases: Vec<(u64, FaultClass)> = explored
        .iter()
        .flat_map(|&b| FaultClass::ALL.into_iter().map(move |f| (b, f)))
        .collect();

    let results = map_traced(
        &cases,
        config.threads,
        tracer,
        |_, &(boundary, fault), case| {
            run_case(&config.scenario, boundary, fault, config.max_boots, case)
        },
    );

    let max_boots_to_recovery = results.iter().map(|c| c.boots).max().unwrap_or(0);
    ChaosReport {
        scenario: config.scenario,
        recorded_ops,
        explored,
        cases: results,
        max_boots_to_recovery,
    }
}

/// A violation reduced to its smallest failing boundary, plus the
/// one-line command that reproduces it.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimal failing case.
    pub case: CaseResult,
    /// A `cargo run` command reproducing exactly this case.
    pub command: String,
}

/// The reproducer command for one `(scenario, fault, boundary)` case.
#[must_use]
pub fn repro_command(scenario: &WorldConfig, fault: FaultClass, boundary: u64) -> String {
    format!(
        "cargo run --release -p upkit-bench --bin chaos_explore -- --repro {} {} {} {} {} {}",
        mode_label(scenario.mode),
        scenario.seed,
        scenario.firmware_size,
        scenario.slot_size,
        fault.label(),
        boundary
    )
}

/// Shrinks the report's minimal violation to the smallest boundary that
/// still fails under the same fault class, re-running only boundaries
/// the (possibly strided) exploration skipped. Returns `None` when the
/// report has no violations.
#[must_use]
pub fn shrink_violation(config: &ChaosConfig, report: &ChaosReport) -> Option<Shrunk> {
    let worst = report.minimal_violation()?;
    let passed: std::collections::HashSet<u64> = report
        .cases
        .iter()
        .filter(|c| c.fault == worst.fault && c.ok())
        .map(|c| c.boundary)
        .collect();
    let tracer = Tracer::disabled();
    for boundary in 0..worst.boundary {
        if passed.contains(&boundary) {
            continue;
        }
        let case = run_case(
            &config.scenario,
            boundary,
            worst.fault,
            config.max_boots,
            &tracer,
        );
        if !case.ok() {
            let command = repro_command(&config.scenario, case.fault, case.boundary);
            return Some(Shrunk { case, command });
        }
    }
    let command = repro_command(&config.scenario, worst.fault, worst.boundary);
    Some(Shrunk {
        case: worst.clone(),
        command,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use upkit_sim::failure::WorldMode;

    #[test]
    fn labels_round_trip() {
        for fault in FaultClass::ALL {
            assert_eq!(FaultClass::from_label(fault.label()), Some(fault));
        }
        assert_eq!(FaultClass::from_label("meteor_strike"), None);
        for mode in [
            WorldMode::Ab,
            WorldMode::StaticSwap { recovery: false },
            WorldMode::StaticSwap { recovery: true },
            WorldMode::Multi { components: 2 },
            WorldMode::Multi { components: 3 },
            WorldMode::Multi { components: 8 },
        ] {
            assert_eq!(mode_from_label(mode_label(mode)), Some(mode));
        }
        assert_eq!(mode_from_label("multi-1"), None);
        assert_eq!(mode_from_label("multi-9"), None);
        assert_eq!(mode_from_label("multi-x"), None);
    }

    #[test]
    fn boundary_selection_is_total_or_evenly_strided() {
        assert_eq!(select_boundaries(4, None), vec![0, 1, 2, 3]);
        assert_eq!(select_boundaries(4, Some(10)), vec![0, 1, 2, 3]);
        let strided = select_boundaries(100, Some(4));
        assert_eq!(strided, vec![0, 25, 50, 75]);
    }

    #[test]
    fn double_cut_plan_arms_a_recovery_cut() {
        let plan = FaultClass::DoubleCut.plan(7);
        assert_eq!(plan.boundary, 7);
        assert_eq!(plan.kind, FaultKind::CleanCut);
        assert_eq!(plan.recovery_cut, Some(0));
        assert_eq!(FaultClass::TornErase.plan(3).recovery_cut, None);
    }
}
