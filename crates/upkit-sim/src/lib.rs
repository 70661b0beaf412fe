//! Discrete-event update simulator for the UpKit reproduction.
//!
//! The paper evaluates UpKit on real boards (nRF52840, CC2650, CC2538)
//! running real OSes; this crate substitutes calibrated simulation while
//! keeping every byte of the update path real — actual signatures, actual
//! compression/patching, actual flash semantics. Only *time* and *energy*
//! are modeled, from per-platform constants:
//!
//! * [`firmware`] — synthetic firmware with controllable bsdiff
//!   similarity (OS-version-change vs app-change deltas, Fig. 8b).
//! * [`platform`] — board profiles: CPU clock, flash timings (calibrated
//!   to Fig. 8a's loading costs), radio links, power draw.
//! * [`scenario`] — [`run_scenario`]: one full update, returning the
//!   propagation/verification/loading breakdown of Fig. 8 plus energy and
//!   byte accounting.
//! * [`failure`] — power-loss injection at arbitrary flash-write offsets;
//!   asserts the never-brick property the bootloader's re-verification
//!   provides.
//! * [`explore`] — the harness the crash and adversarial explorers share:
//!   one never-brick check, one case fan-out, one shrinker and the
//!   `--repro` command vocabulary.
//! * [`lifetime`] — flash-wear accounting over long update chains (A/B vs
//!   static endurance).
//! * [`device`] / [`fleet`] — [`SimDevice`], the one provisioned
//!   flash-backed device (agent and bootloader over one backend, one pair
//!   of trust anchors and one slot layout; poll → verify → reboot), and
//!   fleet-rollout campaigns built on it. The Fig. 8 scenarios, the wear
//!   chain, the failure worlds and the `loss_sweep` bench run on it too.
//!   Fleet-scale engines simulate the flash-free *lite device* instead:
//!   the agent's own verifier and pipeline decoder, writing into RAM.
//! * [`events`] — the virtual-clock session scheduler interleaving
//!   thousands of in-flight stepped sessions with loss and retransmission
//!   on one timeline; [`run_event_rollout`] runs it straight against the
//!   update server.
//! * [`topology`] — [`run_dissemination`]: the same scheduler behind
//!   caching gateway proxies on lossy multi-hop meshes, with duty-cycled
//!   devices and concurrent campaigns.
//! * [`campaign`] — [`run_campaign`]: staged fractional rollouts over
//!   channels with cohort targeting and automatic health halt + rollback,
//!   in lock-step windows of virtual-clock rounds.

#![warn(missing_docs)]

pub mod campaign;
pub mod device;
pub mod events;
pub mod explore;
pub mod failure;
pub mod firmware;
pub mod fleet;
pub mod lifetime;
mod lite;
pub mod platform;
pub mod scenario;
pub mod topology;

pub use campaign::{
    run_campaign, run_campaign_traced, CampaignConfig, CampaignHalt, CampaignReport,
    CampaignRoundStats, Channel, CohortFilter, FaultModel, HealthPolicy, Stage,
};
pub use device::{PollOutcome, SimDevice};
pub use events::{run_event_rollout, run_event_rollout_traced, EventFleetConfig, EventFleetReport};
pub use failure::{
    run_power_loss_at_event, run_power_loss_scenario, update_world, world_geometry, MultiUpdate,
    PowerLossReport, UpdateWorld, WorldConfig, WorldMode, DEFAULT_MAX_BOOTS,
};
pub use firmware::FirmwareGenerator;
pub use fleet::{
    run_rollout, run_rollout_sharded, run_rollout_sharded_traced, run_rollout_traced, DeviceModel,
    FleetConfig, FleetReport, ManifestMode, ShardedFleetConfig,
};
pub use lifetime::{run_lifetime, LifetimeReport};
pub use platform::{EnergyModel, PlatformProfile};
pub use scenario::{
    run_scenario, Approach, CryptoChoice, PhaseBreakdown, ScenarioConfig, ScenarioResult, SlotMode,
    UpdateKind,
};
pub use topology::{
    run_dissemination, run_dissemination_traced, DisseminationReport, DutyCycle, GatewayStats,
    TopologyConfig,
};

#[cfg(test)]
mod tests {
    use super::*;
    use upkit_net::{FrameTamper, SessionOutcome};

    #[test]
    fn fig8a_push_scenario_shape() {
        let result = run_scenario(&ScenarioConfig::fig8a(Approach::Push));
        assert!(matches!(result.outcome, SessionOutcome::Complete));
        let p = result.phases;
        let total = p.total_micros() as f64 / 1e6;
        // Paper: 61.5 s total; propagation dominates; verification ~1.8 %.
        assert!((50.0..75.0).contains(&total), "total {total:.1}s");
        assert!(p.propagation_micros > p.loading_micros);
        assert!(p.loading_micros > p.verification_micros);
        let verif_frac = p.verification_micros as f64 / p.total_micros() as f64;
        assert!(
            (0.002..0.05).contains(&verif_frac),
            "verification {verif_frac:.4}"
        );
    }

    #[test]
    fn fig8a_pull_takes_longer_than_push_due_to_loading() {
        let push = run_scenario(&ScenarioConfig::fig8a(Approach::Push));
        let pull = run_scenario(&ScenarioConfig::fig8a(Approach::Pull));
        assert!(matches!(pull.outcome, SessionOutcome::Complete));
        // The paper's key observation: pull's total exceeds push's because
        // the pull build is larger, so the loading swap moves more sectors —
        // even though pull's propagation is slightly faster.
        assert!(
            pull.phases.loading_micros > push.phases.loading_micros,
            "pull loading {} <= push loading {}",
            pull.phases.loading_micros,
            push.phases.loading_micros
        );
        assert!(
            pull.phases.total_micros() > push.phases.total_micros(),
            "pull {} <= push {}",
            pull.phases.total_micros(),
            push.phases.total_micros()
        );
    }

    #[test]
    fn differential_update_scenario_completes_and_saves_bytes() {
        let mut cfg = ScenarioConfig::fig8a(Approach::Pull);
        cfg.slot_mode = SlotMode::AB;
        let full = run_scenario(&cfg);
        cfg.update_kind = UpdateKind::DiffAppChange { bytes: 1000 };
        let diff = run_scenario(&cfg);
        assert!(matches!(diff.outcome, SessionOutcome::Complete));
        assert!(diff.payload_bytes * 4 < full.payload_bytes);
        assert_eq!(diff.running_version, Some(upkit_manifest::Version(2)));
    }

    #[test]
    fn ab_loading_is_much_cheaper_than_static() {
        let mut cfg = ScenarioConfig::fig8a(Approach::Push);
        let static_run = run_scenario(&cfg);
        cfg.slot_mode = SlotMode::AB;
        let ab_run = run_scenario(&cfg);
        // Fig. 8c: ~92 % loading reduction.
        let reduction =
            1.0 - ab_run.phases.loading_micros as f64 / static_run.phases.loading_micros as f64;
        assert!(
            (0.80..0.99).contains(&reduction),
            "reduction {reduction:.3}"
        );
    }

    #[test]
    fn hsm_scenario_completes() {
        let mut cfg = ScenarioConfig::fig8a(Approach::Push);
        cfg.crypto = CryptoChoice::Hsm;
        cfg.firmware_size = 30_000;
        let result = run_scenario(&cfg);
        assert!(matches!(result.outcome, SessionOutcome::Complete));
    }

    #[test]
    fn tampered_scenario_rejects_early_and_saves_energy() {
        let honest = run_scenario(&ScenarioConfig::fig8a(Approach::Push));
        let mut cfg = ScenarioConfig::fig8a(Approach::Push);
        cfg.tamper = FrameTamper::FlipBit { offset: 40 };
        let tampered = run_scenario(&cfg);
        assert!(matches!(
            tampered.outcome,
            SessionOutcome::RejectedAtManifest(_)
        ));
        // Early rejection: a small fraction of the bytes and energy.
        assert!(tampered.payload_bytes * 100 < honest.payload_bytes);
        assert!(tampered.energy_uj * 10.0 < honest.energy_uj);
        assert_eq!(tampered.running_version, Some(upkit_manifest::Version(1)));
    }

    #[test]
    fn cc2650_static_update_uses_external_staging_and_hsm() {
        // The paper's CC2650 deployment: internal flash too small for two
        // slots, so the staging slot lives on external SPI NOR, and the
        // ATECC508 holds the trust anchors.
        let cfg = ScenarioConfig {
            platform: PlatformProfile::cc2650(),
            approach: Approach::Pull,
            slot_mode: SlotMode::Static { swap: false },
            crypto: CryptoChoice::Hsm,
            firmware_size: 40_000,
            update_kind: UpdateKind::Full,
            tamper: FrameTamper::None,
            seed: 0xCC26,
        };
        let result = run_scenario(&cfg);
        assert!(
            matches!(result.outcome, SessionOutcome::Complete),
            "{:?}",
            result.outcome
        );
        assert_eq!(result.running_version, Some(upkit_manifest::Version(2)));
        // Loading copies the image from external staging to internal.
        assert!(matches!(
            result.boot.as_ref().map(|b| b.action),
            Some(upkit_core::bootloader::BootAction::CopiedAndBooted)
        ));
    }

    #[test]
    fn cc2538_platform_scenario_completes() {
        let cfg = ScenarioConfig {
            platform: PlatformProfile::cc2538(),
            approach: Approach::Pull,
            slot_mode: SlotMode::AB,
            crypto: CryptoChoice::TinyDtls,
            firmware_size: 30_000,
            update_kind: UpdateKind::DiffOsChange,
            tamper: FrameTamper::None,
            seed: 0x2538,
        };
        let result = run_scenario(&cfg);
        assert!(
            matches!(result.outcome, SessionOutcome::Complete),
            "{:?}",
            result.outcome
        );
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = run_scenario(&ScenarioConfig::fig8a(Approach::Push));
        let b = run_scenario(&ScenarioConfig::fig8a(Approach::Push));
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.payload_bytes, b.payload_bytes);
    }
}
