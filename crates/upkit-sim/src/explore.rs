//! The exploration harness the crash-consistency explorer (`upkit-chaos`)
//! and the adversarial-input explorer (`upkit-adversary`) share.
//!
//! Both explorers run one scenario ([`WorldConfig`]) once per case of a
//! `(class, index)` case list — a fault class at a flash-op boundary, or a
//! mutation surface at a mutation index — and both decide the same
//! post-reboot invariant. This module holds what they have in common:
//!
//! * [`never_brick`] — reboot an [`UpdateWorld`] to a fixed point and
//!   check that the booted slot is dual-signature-valid and not older than
//!   the pre-update version;
//! * [`Exploration`] — the case fan-out across worker threads (through
//!   [`map_traced`], so reports, counter totals and trace bytes are the same
//!   at any thread count), the violation queries, the coverage check and
//!   the shrinker;
//! * [`repro_command`], which names one case as a `--repro` command line
//!   of the explorer's bench binary.
//!
//! The case lists themselves come from
//! [`select_cases`](crate::failure::select_cases), and scenario modes are
//! named by [`mode_label`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;

use upkit_core::bootloader::FixedPointReport;
use upkit_core::parallel::map_traced;
use upkit_trace::Tracer;

use crate::failure::{mode_label, UpdateWorld, WorldConfig, DEFAULT_MAX_BOOTS};

/// Reboots `world` to a fixed point (within [`DEFAULT_MAX_BOOTS`]) and
/// checks the never-brick invariant: the booted slot holds a
/// dual-signature-valid image whose version is at least the pre-update
/// version. Returns the fixed-point report with the violation, if any, so
/// a caller can record what booted and add its own checks.
///
/// # Errors
///
/// The brick report, naming the boot failure, when the reboot loop
/// reaches no bootable fixed point.
pub fn never_brick(world: &mut UpdateWorld) -> Result<(FixedPointReport, Option<String>), String> {
    let base = world.base_version;
    let report = world
        .reboot_to_fixed_point(DEFAULT_MAX_BOOTS)
        .map_err(|err| format!("device bricked: {err}"))?;
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
    } else {
        None
    };
    Ok((report, violation))
}

/// A class of explored cases — a fault class or a mutation surface — and
/// how the explorer's bench binary names it on its command line.
pub trait CaseClass: Copy + Eq + Hash + Debug + Send + Sync + 'static {
    /// The bench binary whose `--repro` replays cases of this class.
    const EXPLORER: &'static str;
    /// The `--repro` usage words naming the class and the case index.
    const CASE_WORDS: &'static str;
    /// Every class, in exploration order.
    const CLASSES: &'static [Self];

    /// Stable label used in traces, reports, and reproducer commands.
    fn label(self) -> &'static str;

    /// Inverse of [`CaseClass::label`].
    fn from_label(label: &str) -> Option<Self> {
        Self::CLASSES
            .iter()
            .copied()
            .find(|class| class.label() == label)
    }
}

/// The result of one explored case.
pub trait Case: Clone + Send {
    /// The case's class.
    type Class: CaseClass;

    /// The case's `(class, index)`.
    fn key(&self) -> (Self::Class, u64);

    /// `None` when the case's invariant held; otherwise how it broke.
    fn violation(&self) -> Option<&str>;
}

/// The `--repro` command line replaying case `(class, index)` of
/// `scenario`.
#[must_use]
pub fn repro_command<K: CaseClass>(scenario: &WorldConfig, class: K, index: u64) -> String {
    format!(
        "cargo run --release -p upkit-bench --bin {} -- --repro {} {} {} {} {} {}",
        K::EXPLORER,
        mode_label(scenario.mode),
        scenario.seed,
        scenario.firmware_size,
        scenario.slot_size,
        class.label(),
        index
    )
}

/// A violation reduced to its smallest failing index, plus the one-line
/// command that reproduces it.
#[derive(Debug)]
pub struct Shrunk<C> {
    /// The minimal failing case.
    pub case: C,
    /// A `cargo run` command reproducing exactly this case.
    pub command: String,
}

/// What one exploration ran: the scenario, its case list, and one result
/// per case.
#[derive(Debug)]
pub struct Exploration<C: Case> {
    /// The scenario explored.
    pub scenario: WorldConfig,
    /// The `(class, index)` cases explored, in exploration order.
    pub explored: Vec<(C::Class, u64)>,
    /// One result per explored case, in the same order.
    pub cases: Vec<C>,
}

impl<C: Case> Exploration<C> {
    /// Runs `run` on every case of `explored` across `threads` workers.
    ///
    /// Determinism: each case charges a case-private tracer, and the
    /// private buffers are merged into `tracer` in case order, so for a
    /// `run` that is a pure function of its case the results, counter
    /// totals and trace record sequence are byte-identical for any thread
    /// count.
    pub fn run(
        scenario: WorldConfig,
        explored: Vec<(C::Class, u64)>,
        threads: usize,
        tracer: &Tracer,
        run: impl Fn(C::Class, u64, &Tracer) -> C + Sync,
    ) -> Self {
        let cases = map_traced(&explored, threads, tracer, |_, &(class, index), case| {
            run(class, index, case)
        });
        Self {
            scenario,
            explored,
            cases,
        }
    }

    /// The cases that violated the invariant.
    #[must_use]
    pub fn violations(&self) -> Vec<&C> {
        self.cases
            .iter()
            .filter(|c| c.violation().is_some())
            .collect()
    }

    /// The first violation in case order, if any.
    #[must_use]
    pub fn minimal_violation(&self) -> Option<&C> {
        self.cases.iter().find(|c| c.violation().is_some())
    }

    /// Whether the results cover the case list exactly — nothing
    /// skipped, nothing duplicated.
    #[must_use]
    pub fn full_coverage(&self) -> bool {
        let expected: HashSet<(C::Class, u64)> = self.explored.iter().copied().collect();
        let actual: HashSet<(C::Class, u64)> = self.cases.iter().map(Case::key).collect();
        actual == expected && self.cases.len() == expected.len()
    }

    /// Shrinks the minimal violation to the smallest index that still
    /// fails in the same class, re-running with `run` only the indices the
    /// (possibly strided) exploration did not see pass. Returns `None`
    /// when no case failed.
    pub fn shrink(&self, run: impl Fn(C::Class, u64, &Tracer) -> C) -> Option<Shrunk<C>> {
        let worst = self.minimal_violation()?;
        let (class, worst_index) = worst.key();
        let passed: HashSet<u64> = self
            .cases
            .iter()
            .filter(|c| c.violation().is_none())
            .map(Case::key)
            .filter(|&(c, _)| c == class)
            .map(|(_, index)| index)
            .collect();
        let tracer = Tracer::disabled();
        let case = (0..worst_index)
            .filter(|index| !passed.contains(index))
            .map(|index| run(class, index, &tracer))
            .find(|case| case.violation().is_some())
            .unwrap_or_else(|| worst.clone());
        let (class, index) = case.key();
        Some(Shrunk {
            command: repro_command(&self.scenario, class, index),
            case,
        })
    }
}
