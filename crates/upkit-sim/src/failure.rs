//! Failure injection: power loss at arbitrary points of an update.
//!
//! The paper's verification design is motivated by exactly these cases:
//! "the IoT device may reboot in the middle of the propagation phase,
//! which would leave the new update image stored on the device
//! incomplete. Similarly, the device may lose power before the update
//! agent can verify the firmware." The bootloader's re-verification must
//! keep the device bootable regardless of where the cut lands — the
//! property these scenarios exercise.
//!
//! Two cut models are provided: [`run_power_loss_scenario`] cuts after a
//! flash-byte budget (the device dies mid-write), and
//! [`run_power_loss_at_event`] cuts on a session *event* boundary (the
//! device dies between link events — a lost connection, a crashed proxy),
//! which the stepped-session refactor makes expressible.
//!
//! The scenario world itself is public: [`update_world`] provisions the
//! crate's one [`SimDevice`] — the device behind the fleet, the Fig. 8
//! scenarios, the wear chain and the loss sweep too — running v1 (A/B,
//! static swap optionally with a recovery slot, or multi-component) over
//! *any* flash device, which is how the `upkit-chaos` explorer replays
//! one update scenario once per recorded flash-op boundary with a fault
//! proxy underneath.

use std::sync::Arc;

use upkit_core::agent::{UpdateAgent, UpdatePlan};
use upkit_core::bootloader::{BootConfig, BootMode, Bootloader, FixedPointError, FixedPointReport};
use upkit_core::components::{ComponentImage, ComponentSlots};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_crypto::ecdsa::SigningKey;
use upkit_flash::{
    configuration_multi, standard, FlashDevice, FlashGeometry, MemoryLayout, SimFlash, SlotId,
    SlotKind, SlotSpec,
};
use upkit_manifest::{
    ComponentEntry, ComponentTable, Manifest, MultiManifest, SignedMultiManifest, Version,
};
use upkit_net::{
    run_push_session, LinkProfile, LossyLink, PushEndpoints, PushSession, RetryPolicy,
    SessionEndpoints, SessionOutcome, SessionReport, Smartphone, Step, Transport,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::{install_signed, SimDevice};
use crate::firmware::FirmwareGenerator;
use crate::scenario::{slot_layout, SlotMode, APP_ID, DEVICE_ID, IDENTITY, LINK_OFFSET};

/// Outcome of a power-loss scenario.
#[derive(Debug)]
pub struct PowerLossReport {
    /// Whether the propagation session was interrupted by the cut.
    pub session_interrupted: bool,
    /// Version running after the post-cut reboot (`None` = bricked, which
    /// must never happen).
    pub booted_version: Option<Version>,
    /// Flash bytes written before the cut.
    pub bytes_written_before_cut: u64,
    /// Boot attempts the recovery loop needed to reach a stable image
    /// (0 when the device bricked).
    pub boots_to_recovery: u32,
}

const SLOT_SIZE: u32 = 4096 * 16;

/// Slot/bootloader shape of an [`update_world`] scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldMode {
    /// Configuration A: two bootable slots, newest valid image booted in
    /// place.
    Ab,
    /// Configuration B: one bootable slot plus a staging slot swapped at
    /// boot, optionally backed by a recovery slot (Fig. 6) provisioned
    /// with the signed v1 image on a second device.
    StaticSwap {
        /// Whether a recovery slot is provisioned.
        recovery: bool,
    },
    /// Multi-component device: `components` (bootable, staging) slot
    /// pairs plus a commit-journal slot, updated transactionally through
    /// [`Bootloader::stage_component_set`] and journal replay.
    Multi {
        /// Number of components (2..=[`upkit_manifest::MAX_COMPONENTS`]).
        components: u8,
    },
}

/// Stable label for a scenario mode, used in the chaos and adversary
/// explorers' reproducer commands.
#[must_use]
pub fn mode_label(mode: WorldMode) -> &'static str {
    match mode {
        WorldMode::Ab => "ab",
        WorldMode::StaticSwap { recovery: false } => "static",
        WorldMode::StaticSwap { recovery: true } => "static-recovery",
        WorldMode::Multi { components } => match components {
            2 => "multi-2",
            3 => "multi-3",
            4 => "multi-4",
            5 => "multi-5",
            6 => "multi-6",
            7 => "multi-7",
            8 => "multi-8",
            _ => "multi",
        },
    }
}

/// Inverse of [`mode_label`].
#[must_use]
pub fn mode_from_label(label: &str) -> Option<WorldMode> {
    if let Some(n) = label.strip_prefix("multi-") {
        let components: u8 = n.parse().ok()?;
        return (2..=8)
            .contains(&components)
            .then_some(WorldMode::Multi { components });
    }
    match label {
        "ab" => Some(WorldMode::Ab),
        "static" => Some(WorldMode::StaticSwap { recovery: false }),
        "static-recovery" => Some(WorldMode::StaticSwap { recovery: true }),
        _ => None,
    }
}

/// The case indices the chaos and adversary explorers run out of a
/// universe of `total` cases (flash-op boundaries, mutation cases): all
/// of them, or `limit` evenly strided (always including index 0).
#[must_use]
pub fn select_cases(total: u64, limit: Option<usize>) -> Vec<u64> {
    match limit {
        Some(limit) if (limit as u64) < total => (0..limit as u64)
            .map(|i| i * total / limit as u64)
            .collect(),
        _ => (0..total).collect(),
    }
}

/// Parameters of [`update_world`]: everything that determines the
/// scenario, so two worlds built from equal configs behave identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorldConfig {
    /// RNG seed fixing the signing keys and firmware bytes.
    pub seed: u64,
    /// Size of the base (v1) firmware image in bytes.
    pub firmware_size: usize,
    /// Slot size in bytes (a multiple of the 4 KiB sector size).
    pub slot_size: u32,
    /// Slot/bootloader shape.
    pub mode: WorldMode,
}

impl WorldConfig {
    /// The default A/B power-loss world: 40 kB firmware, 64 KiB slots —
    /// the configuration [`run_power_loss_scenario`] uses.
    #[must_use]
    pub fn ab(seed: u64) -> Self {
        Self {
            seed,
            firmware_size: 40_000,
            slot_size: SLOT_SIZE,
            mode: WorldMode::Ab,
        }
    }

    /// A static-swap world, optionally with a provisioned recovery slot.
    #[must_use]
    pub fn static_swap(seed: u64, recovery: bool) -> Self {
        Self {
            seed,
            firmware_size: 40_000,
            slot_size: SLOT_SIZE,
            mode: WorldMode::StaticSwap { recovery },
        }
    }

    /// A multi-component world: `components` slot pairs plus a journal,
    /// with `firmware_size` bytes per component module.
    #[must_use]
    pub fn multi(seed: u64, components: u8) -> Self {
        Self {
            seed,
            firmware_size: 20_000,
            slot_size: SLOT_SIZE,
            mode: WorldMode::Multi { components },
        }
    }
}

/// Sector size every scenario world uses.
const WORLD_SECTOR: u32 = 4096;

/// Geometry of the internal flash an [`update_world`] expects: two slots
/// (plus a journal sector per component pair in multi mode), zero timing
/// (the scenarios measure bytes, not time).
#[must_use]
pub fn world_geometry(config: &WorldConfig) -> FlashGeometry {
    let size = match config.mode {
        WorldMode::Ab | WorldMode::StaticSwap { .. } => config.slot_size * 2,
        WorldMode::Multi { components } => {
            config.slot_size * 2 * u32::from(components) + WORLD_SECTOR
        }
    };
    FlashGeometry::untimed(size, WORLD_SECTOR)
}

/// The prepared v2 release of a multi-component world: the signed commit
/// record plus the per-component images it promises, ready for
/// [`Bootloader::stage_component_set`].
#[derive(Clone)]
pub struct MultiUpdate {
    /// The dual-signed multi-payload manifest (the commit record).
    pub record: SignedMultiManifest,
    /// Per-component images, in the record's (dependency) order.
    pub images: Vec<ComponentImage>,
    /// The device's component slot pairs, in dependency order.
    pub components: Vec<ComponentSlots>,
    /// The commit-journal slot.
    pub journal: SlotId,
}

/// A complete push-update world: servers, a provisioned [`SimDevice`]
/// running v1 (taken apart into its layout, agent, plan and boot
/// configuration), and v2 published — everything short of running the
/// session.
pub struct UpdateWorld {
    /// The update server with v1 and v2 published.
    pub server: UpdateServer,
    /// The crypto backend shared by agent and bootloader.
    pub backend: Arc<TinyCryptBackend>,
    /// Trust anchors (vendor + server verifying keys).
    pub anchors: TrustAnchors,
    /// The device's memory layout, provisioned at v1.
    pub layout: MemoryLayout,
    /// The device's update agent.
    pub agent: UpdateAgent,
    /// The update plan the session runs with.
    pub plan: UpdatePlan,
    /// The bootloader configuration matching the layout's mode.
    pub boot_config: BootConfig,
    /// The version installed before the update (the never-brick floor).
    pub base_version: Version,
    /// The v2 firmware image the session propagates.
    pub firmware_v2: Vec<u8>,
    /// The prepared multi-component release (multi worlds only).
    pub multi: Option<MultiUpdate>,
}

/// Builds an [`UpdateWorld`] from `config` over the given internal
/// flash device (which must have [`world_geometry`]'s shape). Passing
/// the device in lets callers interpose proxies — the chaos explorer
/// wraps a `FaultFlash` here.
#[must_use]
pub fn update_world(config: &WorldConfig, internal: Box<dyn FlashDevice>) -> UpdateWorld {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    let backend = Arc::new(TinyCryptBackend);

    let generator = FirmwareGenerator::new(config.seed);
    let v1 = generator.base(config.firmware_size);
    let v2 = generator.os_version_change(&v1);

    let (mut layout, mode, recovery_slot) = match config.mode {
        WorldMode::Ab => {
            let (layout, mode) = slot_layout(SlotMode::AB, internal, None, config.slot_size);
            (layout, mode, None)
        }
        WorldMode::StaticSwap { recovery } => {
            let (mut layout, mode) = slot_layout(
                SlotMode::Static { swap: true },
                internal,
                None,
                config.slot_size,
            );
            let recovery_slot = recovery.then(|| {
                // The recovery image lives on its own (un-faulted) device:
                // a known-good copy kept out of the update's blast radius.
                let ext = layout.add_device(Box::new(SimFlash::new(FlashGeometry::untimed(
                    config.slot_size,
                    4096,
                ))));
                layout
                    .add_slot(SlotSpec {
                        id: standard::RECOVERY,
                        kind: SlotKind::NonBootable,
                        device: ext,
                        offset: 0,
                        size: config.slot_size,
                    })
                    .expect("valid layout");
                standard::RECOVERY
            });
            (layout, mode, recovery_slot)
        }
        WorldMode::Multi { components } => {
            let layout = configuration_multi(internal, components, config.slot_size, WORLD_SECTOR)
                .expect("valid layout");
            let mode = BootMode::MultiComponent {
                components: component_slots(components),
                journal: SlotId(components * 2),
            };
            (layout, mode, None)
        }
    };

    // Install v1 (signed), and prepare v2: per component in multi mode
    // (module 0 = base OS first — dependency order), otherwise in slot A
    // and in the recovery slot if present.
    let multi = if let WorldMode::Multi { components } = config.mode {
        let mut entries = Vec::new();
        let mut images = Vec::new();
        for c in 0..components {
            let module_v1 = generator.module(c, config.firmware_size);
            install_signed(
                &mut layout,
                SlotId(c * 2),
                &IDENTITY,
                &vendor,
                &server,
                &module_v1,
                Version(1),
            );
            let module_v2 = generator.module_version_change(c, &module_v1);
            let signed_manifest =
                IDENTITY.signed_manifest(&vendor, &server, &module_v2, Version(2));
            entries.push(ComponentEntry {
                component_id: 0x10 + u32::from(c),
                version: Version(2),
                size: module_v2.len() as u32,
                digest: signed_manifest.manifest.digest,
                slot: c * 2,
            });
            images.push(ComponentImage {
                signed_manifest,
                firmware: module_v2,
            });
        }
        let table = ComponentTable::new(entries).expect("valid component set");
        let total = u32::try_from(table.total_size()).expect("set fits u32");
        let manifest = Manifest {
            device_id: DEVICE_ID,
            nonce: 0,
            old_version: Version(1),
            version: Version(2),
            size: total,
            payload_size: total,
            digest: table.set_digest(),
            link_offset: LINK_OFFSET,
            app_id: APP_ID,
        };
        let set = MultiManifest {
            manifest,
            components: Some(table),
        };
        let record = SignedMultiManifest {
            vendor_signature: vendor.sign_multi(&set),
            server_signature: server.sign_multi(&set),
            multi: set,
        };
        Some(MultiUpdate {
            record,
            images,
            components: component_slots(components),
            journal: SlotId(components * 2),
        })
    } else {
        for slot in std::iter::once(standard::SLOT_A).chain(recovery_slot) {
            install_signed(
                &mut layout,
                slot,
                &IDENTITY,
                &vendor,
                &server,
                &v1,
                Version(1),
            );
        }
        None
    };
    server.publish(vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID));
    server.publish(vendor.release(v2.clone(), Version(2), LINK_OFFSET, APP_ID));

    let device = SimDevice::new(
        IDENTITY,
        layout,
        mode,
        recovery_slot,
        (backend.clone(), anchors),
        v1.len() as u32,
        false,
    );
    let plan = device.plan();
    let SimDevice {
        mut layout,
        agent,
        boot_config,
        ..
    } = device;

    // Measure only update-time flash traffic, not provisioning.
    layout.reset_stats();

    UpdateWorld {
        server,
        backend,
        anchors,
        layout,
        agent,
        plan,
        boot_config,
        base_version: Version(1),
        firmware_v2: v2,
        multi,
    }
}

/// The (bootable, staging) slot pairs of a `components`-component
/// layout, in dependency order.
fn component_slots(components: u8) -> Vec<ComponentSlots> {
    (0..components)
        .map(|c| ComponentSlots {
            bootable: SlotId(c * 2),
            staging: SlotId(c * 2 + 1),
        })
        .collect()
}

impl UpdateWorld {
    /// The bootloader matching this world's configuration.
    #[must_use]
    pub fn bootloader(&self) -> Bootloader {
        Bootloader::new(self.backend.clone(), self.anchors, self.boot_config.clone())
    }

    /// Runs one full push session over a reliable BLE link. In a multi
    /// world the "session" is the transactional staging phase instead:
    /// [`Bootloader::stage_component_set`] with the prepared record.
    pub fn run_push_once(&mut self, nonce: u32) -> SessionOutcome {
        if self.multi.is_some() {
            let _ = nonce;
            return self.run_multi_stage();
        }
        let mut phone = Smartphone::new();
        let report = run_push_session(
            &self.server,
            &mut phone,
            &mut self.agent,
            &mut self.layout,
            self.plan.clone(),
            nonce,
            &LinkProfile::ble_gatt(),
        );
        report.outcome
    }

    /// Power restored: a single reboot, reporting what the bootloader
    /// salvaged.
    pub fn reboot(&mut self) -> Option<Version> {
        self.layout.disarm_power_cuts();
        self.bootloader()
            .boot(&mut self.layout)
            .ok()
            .map(|o| o.version)
    }

    /// Power restored: reboot until the boot decision is stable (see
    /// [`Bootloader::boot_to_fixed_point`]).
    pub fn reboot_to_fixed_point(
        &mut self,
        max_boots: u32,
    ) -> Result<FixedPointReport, FixedPointError> {
        self.bootloader()
            .boot_to_fixed_point(&mut self.layout, max_boots)
    }

    /// Whether `slot` currently holds a fully valid (dual-signed,
    /// digest-matching) image.
    pub fn slot_verifies(&mut self, slot: SlotId) -> bool {
        self.bootloader()
            .verify_slot(&mut self.layout, slot)
            .is_ok()
    }

    /// Stages the prepared multi-component set — phase one of the
    /// transactional install; the flip happens at the next reboot. A
    /// power cut (or failed health check) surfaces as `Incomplete`: the
    /// commit record was never written, the old set stays active.
    pub fn run_multi_stage(&mut self) -> SessionOutcome {
        let multi = self.multi.as_ref().expect("multi-component world");
        let record = multi.record.clone();
        let images = multi.images.clone();
        match self
            .bootloader()
            .stage_component_set(&mut self.layout, &record, &images)
        {
            Ok(()) => SessionOutcome::Complete,
            Err(_) => SessionOutcome::Incomplete,
        }
    }

    /// Per-component bootable-slot versions (`None` = that slot does not
    /// verify). Empty for single-component worlds.
    pub fn component_versions(&mut self) -> Vec<Option<Version>> {
        let Some(multi) = &self.multi else {
            return Vec::new();
        };
        let slots: Vec<SlotId> = multi.components.iter().map(|c| c.bootable).collect();
        let boot = self.bootloader();
        slots
            .into_iter()
            .map(|slot| {
                boot.verify_slot(&mut self.layout, slot)
                    .ok()
                    .map(|signed| signed.manifest.version)
            })
            .collect()
    }

    /// The never-mixed-set check: true when the bootable set is torn —
    /// any component failing verification or disagreeing on version.
    /// Always false for single-component worlds.
    pub fn component_set_mixed(&mut self) -> bool {
        let versions = self.component_versions();
        if versions.is_empty() {
            return false;
        }
        let Some(first) = versions[0] else {
            return true;
        };
        versions.iter().any(|v| *v != Some(first))
    }
}

/// Reboot budget generous enough for every scenario shape: A/B needs 1
/// boot, a static swap needs 2, a double-cut recovery a few more.
pub const DEFAULT_MAX_BOOTS: u32 = 8;

/// Runs a push update on an A/B device, cutting power after
/// `cut_after_flash_bytes` bytes of flash programming, then reboots to a
/// fixed point and reports what the bootloader managed to boot.
#[must_use]
pub fn run_power_loss_scenario(cut_after_flash_bytes: u64, seed: u64) -> PowerLossReport {
    let config = WorldConfig::ab(seed);
    let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));

    // Arm the cut *before* the session: erases and writes both consume the
    // budget, so the cut can land in StartUpdate, the header write, or the
    // pipeline.
    world
        .layout
        .device_mut(0)
        .expect("internal flash")
        .arm_power_cut_after(cut_after_flash_bytes);

    let outcome = world.run_push_once(seed as u32 | 1);
    power_restored(&mut world, &outcome)
}

/// Runs a push update on an A/B device, abandoning the stepped session
/// after `cut_after_events` link events (the device loses power *between*
/// events rather than mid-flash-write), then reboots and reports what the
/// bootloader managed to boot.
///
/// Only the session layer makes this cut model expressible: the legacy
/// drivers ran the whole Fig. 2 sequence inside one call, so a failure
/// could only ever be injected below them, in the flash.
#[must_use]
pub fn run_power_loss_at_event(cut_after_events: u64, seed: u64) -> PowerLossReport {
    let config = WorldConfig::ab(seed);
    let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));

    let link = LinkProfile::ble_gatt();
    let mut phone = Smartphone::new();
    let mut session = PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
    let mut endpoints = PushEndpoints::new(
        &world.server,
        &mut phone,
        &mut world.agent,
        &mut world.layout,
        world.plan.clone(),
        seed as u32 | 1,
    );
    // Power dies at the cut; the session is simply abandoned.
    let report = step_with_cut(&mut session, &mut endpoints, cut_after_events);
    power_restored(&mut world, &report.outcome)
}

/// Steps `session` until it finishes, or abandons it after
/// `cut_after_events` link events (the device dying mid-session at an
/// arbitrary link event, not merely a flash-byte offset).
fn step_with_cut(
    session: &mut dyn Transport,
    endpoints: &mut dyn SessionEndpoints,
    cut_after_events: u64,
) -> SessionReport {
    for _ in 0..cut_after_events {
        if let Step::Done(report) = session.step(endpoints) {
            return report;
        }
    }
    SessionReport {
        outcome: SessionOutcome::Incomplete,
        accounting: *session.accounting(),
    }
}

/// Power restored after a cut that ended the session in `outcome`:
/// reboots `world` to a fixed point and reports what the bootloader
/// salvaged.
fn power_restored(world: &mut UpdateWorld, outcome: &SessionOutcome) -> PowerLossReport {
    let bytes_written_before_cut = world.layout.total_stats().bytes_written;
    let (booted_version, boots_to_recovery) = match world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS) {
        Ok(report) => (Some(report.outcome.version), report.boots),
        Err(_) => (None, 0),
    };
    PowerLossReport {
        session_interrupted: *outcome != SessionOutcome::Complete,
        booted_version,
        bytes_written_before_cut,
        boots_to_recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use upkit_core::agent::AgentConfig;

    #[test]
    fn mode_labels_round_trip() {
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
    fn case_selection_is_total_or_evenly_strided() {
        assert_eq!(select_cases(4, None), vec![0, 1, 2, 3]);
        assert_eq!(select_cases(4, Some(10)), vec![0, 1, 2, 3]);
        assert_eq!(select_cases(100, Some(4)), vec![0, 25, 50, 75]);
    }

    #[test]
    fn cut_during_slot_erase_keeps_device_bootable() {
        // StartUpdate erases slot B; the budget dies inside the erase.
        let report = run_power_loss_scenario(1_000, 200);
        assert!(report.session_interrupted);
        assert_eq!(report.booted_version, Some(Version(1)));
    }

    #[test]
    fn cut_during_firmware_write_keeps_device_bootable() {
        // Slot B erase = 16 sectors * 4096 = 65536 budget; manifest header
        // write + some firmware, then cut.
        let report = run_power_loss_scenario(66_000 + 5_000, 201);
        assert!(report.session_interrupted);
        assert_eq!(report.booted_version, Some(Version(1)));
    }

    #[test]
    fn generous_budget_lets_update_complete() {
        let report = run_power_loss_scenario(100_000_000, 202);
        assert!(!report.session_interrupted);
        assert_eq!(report.booted_version, Some(Version(2)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // The never-brick convergence property: from ANY generated cut
        // point (not just hand-picked stride values), the reboot loop
        // reaches a stable bootable version within a small, bounded
        // number of boots. The 0..120_000 range spans the whole write
        // timeline of the 40 kB scenario — slot erase (65 536 budget),
        // header, firmware body — and beyond it (cut never fires).
        #[test]
        fn any_cut_point_converges_to_a_bootable_version(
            cut in 0u64..120_000,
            seed in 0u64..1_024,
        ) {
            let report = run_power_loss_scenario(cut, 300 + seed);
            prop_assert!(
                matches!(report.booted_version, Some(Version(1)) | Some(Version(2))),
                "cut at {}: booted {:?}", cut, report.booted_version
            );
            // A/B recovery never moves flash: the very first boot after
            // power returns must already be the fixed point.
            prop_assert_eq!(report.boots_to_recovery, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Bounded-boots convergence for multi-component worlds: from ANY
        // generated cut point of the staging phase, the reboot loop
        // settles on a COMPLETE set — all components verifying the same
        // version — within the standard boot budget. (Cuts inside the
        // boot-time journal replay are covered exhaustively by the chaos
        // explorer, which injects faults at recorded boot ops too.)
        #[test]
        fn multi_world_any_cut_point_converges_to_a_complete_set(
            cut in 0u64..60_000,
            seed in 0u64..256,
            components in 2u8..=3,
        ) {
            let config = WorldConfig {
                seed: 500 + seed,
                firmware_size: 6_000,
                slot_size: 4096 * 3,
                mode: WorldMode::Multi { components },
            };
            let mut world =
                update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));
            world
                .layout
                .device_mut(0)
                .expect("internal flash")
                .arm_power_cut_after(cut);
            let _ = world.run_push_once(1);
            let report = world
                .reboot_to_fixed_point(DEFAULT_MAX_BOOTS)
                .expect("never brick");
            prop_assert!(
                matches!(report.outcome.version, Version(1) | Version(2)),
                "cut at {}: settled on {:?}", cut, report.outcome.version
            );
            prop_assert!(report.boots <= DEFAULT_MAX_BOOTS);
            let versions = world.component_versions();
            prop_assert!(
                !world.component_set_mixed(),
                "cut at {} left a mixed set: {:?}", cut, versions
            );
        }
    }

    #[test]
    fn event_cut_before_any_transfer_boots_v1() {
        // Cut before even the token exchange: slot B untouched.
        let report = run_power_loss_at_event(0, 210);
        assert!(report.session_interrupted);
        assert_eq!(report.booted_version, Some(Version(1)));
        assert_eq!(report.bytes_written_before_cut, 0);
    }

    #[test]
    fn event_cut_sweep_never_bricks() {
        // Cuts across the whole event timeline — during the token
        // exchange, mid-manifest, mid-payload, and far beyond the end
        // (where the session completes first): always v1 or v2.
        for cut in [0u64, 1, 2, 3, 5, 50, 120, 170, 100_000] {
            let report = run_power_loss_at_event(cut, 400 + cut);
            assert!(
                matches!(report.booted_version, Some(Version(1)) | Some(Version(2))),
                "event cut at {cut}: {:?}",
                report.booted_version
            );
        }
    }

    #[test]
    fn event_cut_beyond_session_end_completes_normally() {
        let report = run_power_loss_at_event(u64::MAX, 211);
        assert!(!report.session_interrupted);
        assert_eq!(report.booted_version, Some(Version(2)));
    }

    #[test]
    fn static_world_with_recovery_survives_a_wrecked_bootable_slot() {
        // The static-swap world's recovery slot restores a signed v1
        // when both regular slots are invalid.
        let config = WorldConfig::static_swap(215, true);
        let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));
        // Wreck slot A (clear bits across the manifest) and leave B empty.
        world.layout.erase_slot(standard::SLOT_A).unwrap();
        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.version, Version(1));
        assert_eq!(report.boots, 2, "boot 1 restores, boot 2 confirms");
        assert!(world.slot_verifies(standard::SLOT_A));
    }

    #[test]
    fn multi_world_stages_then_flips_the_whole_set() {
        let config = WorldConfig {
            seed: 220,
            firmware_size: 6_000,
            slot_size: 4096 * 3,
            mode: WorldMode::Multi { components: 3 },
        };
        let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));
        assert_eq!(world.component_versions(), vec![Some(Version(1)); 3]);

        assert!(matches!(world.run_push_once(1), SessionOutcome::Complete));
        // Phase one only staged: the bootable set is still v1.
        assert_eq!(world.component_versions(), vec![Some(Version(1)); 3]);
        assert!(!world.component_set_mixed());

        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.version, Version(2));
        assert_eq!(world.component_versions(), vec![Some(Version(2)); 3]);
        assert!(!world.component_set_mixed());
    }

    #[test]
    fn multi_world_cut_mid_staging_keeps_complete_old_set() {
        let config = WorldConfig {
            seed: 221,
            firmware_size: 6_000,
            slot_size: 4096 * 3,
            mode: WorldMode::Multi { components: 2 },
        };
        let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));
        // The cut lands inside the second component's staging write.
        world
            .layout
            .device_mut(0)
            .expect("internal flash")
            .arm_power_cut_after(20_000);
        assert!(matches!(world.run_push_once(1), SessionOutcome::Incomplete));
        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.version, Version(1));
        assert_eq!(world.component_versions(), vec![Some(Version(1)); 2]);
        assert!(!world.component_set_mixed());
    }

    #[test]
    fn power_cut_counters_match_recovery_expectations() {
        use upkit_trace::{Event, MemorySink, Tracer};

        // One tracer across the cut, the recovery boot, and the retried
        // update: the counter ledger must tell the same story the
        // scenario's return values do.
        let config = WorldConfig::ab(212);
        let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        world.layout.set_tracer(tracer.clone());

        // Phase 1 — the cut lands inside slot B's very first sector erase
        // (1000-byte budget < one 4096-byte sector): no sector completed,
        // so no erase and no firmware byte may be charged.
        world
            .layout
            .device_mut(0)
            .expect("internal flash")
            .arm_power_cut_after(1_000);
        let outcome = world.run_push_once(213);
        assert!(!matches!(outcome, SessionOutcome::Complete));
        let at_cut = tracer.counters().snapshot();
        assert_eq!(
            at_cut.total_erases(),
            0,
            "no sector completed before the cut"
        );
        assert_eq!(at_cut.total_flash_writes(), 0);
        assert_eq!(at_cut.boots, 0);

        // Phase 2 — power restored: the bootloader re-verifies slot A
        // (both manifest signatures) and boots v1. The ledger gains one
        // boot, two signature checks, and a Boot event for slot A.
        assert_eq!(world.reboot(), Some(Version(1)));
        let after_boot = tracer.counters().snapshot();
        assert_eq!(after_boot.boots, 1);
        assert_eq!(
            after_boot.sig_verifications,
            at_cut.sig_verifications + 2,
            "recovery verifies exactly the booted slot's two signatures"
        );
        assert!(sink.snapshot().iter().any(|r| matches!(
            r.event,
            Event::Boot { slot, version } if slot == standard::SLOT_A.0 && version == 1
        )));

        // Phase 3 — the rollout retries with a fresh agent over the same
        // (reliable) link: the retried StartUpdate re-erases all of slot B,
        // writes the firmware, and needs no link-level retries.
        world.agent = UpdateAgent::new(
            world.backend.clone(),
            world.anchors,
            AgentConfig::new(DEVICE_ID, APP_ID, false),
        );
        let outcome = world.run_push_once(214);
        assert!(matches!(outcome, SessionOutcome::Complete));
        let after_retry = tracer.counters().snapshot();
        let slot_b_sectors = u64::from(SLOT_SIZE / 4096);
        assert_eq!(
            after_retry.total_erases() - after_boot.total_erases(),
            slot_b_sectors,
            "the retry re-erases the whole target slot"
        );
        assert!(after_retry.total_flash_writes() > after_boot.total_flash_writes());
        assert_eq!(after_retry.retries, 0, "reliable link: no retransmissions");

        // The retried update boots v2.
        assert_eq!(world.reboot(), Some(Version(2)));
        assert_eq!(tracer.counters().snapshot().boots, 2);
    }
}
