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
//! Exploration runs on the harness in [`upkit_sim::explore`], which the
//! adversarial-input explorer shares: the never-brick check, the case
//! fan-out (each case charges a private tracer, merged in case order, so
//! the report, the counter totals, and the trace byte stream are identical
//! for any thread count), and the shrinker. When a violation is found,
//! [`shrink_violation`] reduces it to the smallest failing boundary for
//! that fault class and emits a one-line reproducer command for the
//! `chaos_explore` bench binary.

#![warn(missing_docs)]

use std::ops::Deref;

use upkit_flash::fault::{FaultFlash, FaultKind, FaultPlan, FlashOp};
use upkit_flash::SimFlash;
use upkit_sim::explore::{never_brick, Case, CaseClass, Exploration, Shrunk};
use upkit_sim::failure::{
    select_cases, update_world, world_geometry, WorldConfig, DEFAULT_MAX_BOOTS,
};
use upkit_trace::{Counters, Event, Tracer};

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

impl CaseClass for FaultClass {
    const EXPLORER: &'static str = "chaos_explore";
    const CASE_WORDS: &'static str = "<fault> <boundary>";
    const CLASSES: &'static [Self] = &Self::ALL;

    fn label(self) -> &'static str {
        FaultClass::label(self)
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

impl Case for CaseResult {
    type Class = FaultClass;

    fn key(&self) -> (FaultClass, u64) {
        (self.fault, self.boundary)
    }

    fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }
}

/// Everything one exploration run learned. Dereferences to the
/// [`Exploration`]: the scenario, the `(fault, boundary)` case list in
/// boundary-major order, and one result per case.
#[derive(Debug)]
pub struct ChaosReport {
    /// Mutating flash ops recorded for the fault-free run (== the full
    /// boundary universe).
    pub recorded_ops: usize,
    /// The boundaries actually explored (all of them unless
    /// [`ChaosConfig::boundary_limit`] strided them).
    pub explored: Vec<u64>,
    /// The worst-case boot count any case needed to converge.
    pub max_boots_to_recovery: u32,
    /// The explored cases and their results.
    pub exploration: Exploration<CaseResult>,
}

impl Deref for ChaosReport {
    type Target = Exploration<CaseResult>;

    fn deref(&self) -> &Exploration<CaseResult> {
        &self.exploration
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
        .reboot_to_fixed_point(DEFAULT_MAX_BOOTS)
        .expect("the fault-free run must boot");
    let ops = log.lock().expect("op log poisoned").clone();
    ops
}

/// Re-runs the scenario with `fault` injected at `boundary`, reboots to
/// a fixed point, and checks the never-brick invariant — plus, in a
/// multi-component world, the never-mixed-set invariant. Flash, boot, and
/// fault counters are charged to `tracer`, which also receives
/// `fault_injected` / `fault_checked` events.
pub fn run_case(
    scenario: &WorldConfig,
    boundary: u64,
    fault: FaultClass,
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
    Counters::add(&tracer.counters().faults_injected, 1);
    tracer.emit(|| Event::FaultInjected {
        boundary,
        fault: fault.label(),
    });

    let session_interrupted = !world.run_push_once(scenario.seed as u32 | 1).is_complete();
    let (boots, version, violation) = match never_brick(&mut world) {
        Ok((report, violation)) => {
            // The never-mixed-set invariant (multi-component worlds only;
            // `component_set_mixed` is vacuously false otherwise): a
            // stable boot must run either the complete old set or the
            // complete new set.
            let violation = violation.or_else(|| {
                world.component_set_mixed().then(|| {
                    Counters::add(&tracer.counters().mixed_set_violations, 1);
                    format!(
                        "mixed component set at the fixed point: {:?}",
                        world.component_versions()
                    )
                })
            });
            (report.boots, Some(report.outcome.version.0), violation)
        }
        Err(bricked) => (0, None, Some(bricked)),
    };

    if violation.is_some() {
        Counters::add(&tracer.counters().fault_violations, 1);
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
/// `(boundary, fault)` case across `config.threads` workers; the report,
/// counter totals, and trace record sequence are byte-identical for any
/// thread count (see [`Exploration::run`]).
#[must_use]
pub fn explore_traced(config: &ChaosConfig, tracer: &Tracer) -> ChaosReport {
    let ops = record_boundaries(&config.scenario);
    let recorded_ops = ops
        .iter()
        .filter(|op| !matches!(op, FlashOp::Reboot))
        .count();
    let explored = select_cases(recorded_ops as u64, config.boundary_limit);
    let cases = explored
        .iter()
        .flat_map(|&b| FaultClass::ALL.into_iter().map(move |f| (f, b)))
        .collect();
    let exploration = Exploration::run(
        config.scenario,
        cases,
        config.threads,
        tracer,
        |fault, boundary, case| run_case(&config.scenario, boundary, fault, case),
    );
    let max_boots_to_recovery = exploration.cases.iter().map(|c| c.boots).max().unwrap_or(0);
    ChaosReport {
        recorded_ops,
        explored,
        max_boots_to_recovery,
        exploration,
    }
}

/// Shrinks the report's minimal violation to the smallest boundary that
/// still fails under the same fault class (see [`Exploration::shrink`]).
/// Returns `None` when the report has no violations.
#[must_use]
pub fn shrink_violation(config: &ChaosConfig, report: &ChaosReport) -> Option<Shrunk<CaseResult>> {
    report.shrink(|fault, boundary, tracer| run_case(&config.scenario, boundary, fault, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for fault in FaultClass::ALL {
            assert_eq!(FaultClass::from_label(fault.label()), Some(fault));
        }
        assert_eq!(FaultClass::from_label("meteor_strike"), None);
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
