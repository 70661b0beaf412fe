//! UpKit's bootloader: boot-time verification plus the loading phase.
//!
//! The bootloader re-verifies the stored update after reboot — the agent's
//! checks cannot rule out a power cut mid-propagation or a brown-out before
//! verification completed — and then *loads* the newest valid image:
//!
//! * **A/B mode** (Fig. 6, Configuration A): both slots are bootable; the
//!   bootloader jumps straight to the newest valid one. Loading is O(1) —
//!   the 92 % loading-time reduction of Fig. 8c.
//! * **Static mode** (Configuration B): one bootable slot; a newer valid
//!   image in the staging slot is first swapped (or copied) into it.
//!
//! Like the paper's bootloader (and mcuboot), UpKit does not update the
//! bootloader itself; bugs in the *agent's* verifier can be fixed by a
//! normal firmware update, which is the mitigation path the paper
//! describes for bootloader-verifier vulnerabilities.

use alloc::sync::Arc;
use alloc::vec::Vec;

use upkit_crypto::backend::SecurityBackend;
use upkit_flash::{FlashError, LayoutError, MemoryLayout, SlotId};
use upkit_manifest::{SignedManifest, Version};
use upkit_trace::{Counters, Event};

use crate::components::{
    check_record_signatures, journal_marker_set, read_journal_record, set_journal_marker,
    slots_for_entry, ComponentImage, ComponentSlots, StageError, JOURNAL_COMPLETE_OFFSET,
    JOURNAL_DONE_OFFSET, JOURNAL_RECORD_MAX,
};
use crate::image::{read_firmware_chunks, read_manifest};
use crate::keys::TrustAnchors;
use crate::verifier::{FirmwareDigester, Verifier, VerifyContext, VerifyError};

/// Loading strategy, set by the memory configuration.
#[derive(Clone, Debug)]
pub enum BootMode {
    /// Two bootable slots; boot the newest valid image in place.
    AB {
        /// The bootable slots, in preference order on version ties.
        slots: Vec<SlotId>,
    },
    /// One bootable slot plus a staging slot whose images must be moved.
    Static {
        /// The slot the MCU can execute from.
        bootable: SlotId,
        /// The staging (non-bootable) slot.
        staging: SlotId,
        /// Whether loading swaps (preserving a rollback image) or copies.
        swap: bool,
    },
    /// A set of independently-versioned components, each with a bootable
    /// and a staging slot, flipped atomically through a commit journal
    /// (see [`crate::components`]).
    MultiComponent {
        /// The component slot pairs, in dependency order.
        components: Vec<ComponentSlots>,
        /// The journal slot holding the commit record and markers.
        journal: SlotId,
    },
}

/// Device-constant bootloader configuration.
#[derive(Clone, Debug)]
pub struct BootConfig {
    /// This device's unique identifier.
    pub device_id: u32,
    /// Application/hardware identifier.
    pub app_id: u32,
    /// Link offsets acceptable per bootable slot (images must be linked
    /// for the address they execute from).
    pub allowed_link_offsets: Vec<u32>,
    /// Maximum firmware size a slot can hold.
    pub max_firmware_size: u32,
    /// Loading strategy.
    pub mode: BootMode,
    /// Optional recovery slot (Fig. 6): a non-bootable slot holding a
    /// known-good image, used only when no regular slot verifies. The
    /// image is copied into the first bootable slot before booting.
    pub recovery_slot: Option<SlotId>,
}

/// What the loading phase did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootAction {
    /// A/B: jumped directly to the newest valid slot.
    JumpedInPlace,
    /// Static: swapped staging into the bootable slot, then booted.
    SwappedAndBooted,
    /// Static: copied staging into the bootable slot, then booted.
    CopiedAndBooted,
    /// Booted the existing image (no newer valid update found).
    BootedExisting,
    /// All regular slots were invalid; the recovery image was copied into
    /// the bootable slot and booted.
    RestoredFromRecovery,
    /// Multi-component: a pending commit journal was replayed — every
    /// not-yet-done component was copied from staging into its bootable
    /// slot and the record was marked complete. Loading moved flash, so
    /// the fixed-point loop boots again to confirm.
    CommittedSet,
}

/// A successful boot decision.
#[derive(Clone, Debug)]
pub struct BootOutcome {
    /// The slot whose image is now running.
    pub booted_slot: SlotId,
    /// Version of the running image.
    pub version: Version,
    /// What the loading phase did to get there.
    pub action: BootAction,
    /// Slots whose images failed verification and were ignored.
    pub rejected_slots: Vec<(SlotId, VerifyError)>,
}

/// Boot failure: no valid image anywhere.
#[derive(Debug)]
#[non_exhaustive]
pub enum BootError {
    /// No slot contained a valid image — the device is unbootable (the
    /// situation UpKit's agent-side verification exists to prevent).
    NoValidImage(Vec<(SlotId, VerifyError)>),
    /// Flash failure during loading.
    Layout(LayoutError),
}

impl core::fmt::Display for BootError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoValidImage(rejected) => {
                write!(
                    f,
                    "no valid image in any slot ({} rejected)",
                    rejected.len()
                )
            }
            Self::Layout(e) => write!(f, "flash error during loading: {e}"),
        }
    }
}

impl core::error::Error for BootError {}

impl From<LayoutError> for BootError {
    fn from(e: LayoutError) -> Self {
        Self::Layout(e)
    }
}

/// Result of driving the bootloader to a fixed point with
/// [`Bootloader::boot_to_fixed_point`].
#[derive(Clone, Debug)]
pub struct FixedPointReport {
    /// Outcome of the final, stable boot.
    pub outcome: BootOutcome,
    /// Total boot attempts taken, including boots that failed with a
    /// power cut and boots that moved images around.
    pub boots: u32,
}

/// Why the reboot loop could not reach a stable image.
#[derive(Debug)]
#[non_exhaustive]
pub enum FixedPointError {
    /// A boot failed for a reason a reboot cannot fix: the device is
    /// bricked — the exact situation UpKit's design promises to prevent.
    Brick {
        /// The unrecoverable boot failure.
        error: BootError,
        /// Boot attempts made before giving up.
        boots: u32,
    },
    /// The loop exceeded its boot budget without stabilising.
    NoConvergence {
        /// Boot attempts made.
        boots: u32,
    },
}

impl core::fmt::Display for FixedPointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Brick { error, boots } => {
                write!(f, "device bricked after {boots} boot(s): {error}")
            }
            Self::NoConvergence { boots } => {
                write!(f, "no stable image after {boots} boot(s)")
            }
        }
    }
}

impl core::error::Error for FixedPointError {
    fn source(&self) -> Option<&(dyn core::error::Error + 'static)> {
        match self {
            Self::Brick { error, .. } => Some(error),
            Self::NoConvergence { .. } => None,
        }
    }
}

/// The bootloader.
pub struct Bootloader {
    backend: Arc<dyn SecurityBackend>,
    anchors: TrustAnchors,
    config: BootConfig,
}

impl core::fmt::Debug for Bootloader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Bootloader")
            .field("mode", &self.config.mode)
            .finish_non_exhaustive()
    }
}

impl Bootloader {
    /// Creates a bootloader.
    #[must_use]
    pub fn new(
        backend: Arc<dyn SecurityBackend>,
        anchors: TrustAnchors,
        config: BootConfig,
    ) -> Self {
        Self {
            backend,
            anchors,
            config,
        }
    }

    /// Verifies a single slot's image end to end: manifest parse, field
    /// checks, double signature, and firmware digest over the stored bytes.
    ///
    /// Returns the verified manifest, or the reason the slot is unusable.
    pub fn verify_slot(
        &self,
        layout: &mut MemoryLayout,
        slot: SlotId,
    ) -> Result<SignedManifest, VerifyError> {
        let signed = match read_manifest(layout, slot) {
            Ok(Some(signed)) => signed,
            // Empty or unreadable header: treat as "no image".
            Ok(None) | Err(_) => return Err(VerifyError::DigestMismatch),
        };
        let ctx = VerifyContext {
            device_id: self.config.device_id,
            expected_nonce: None,
            // The bootloader accepts any version that verifies — version
            // *comparison* happens across slots, not against a fixed bar.
            installed_version: Version(0),
            supports_differential: true,
            app_id: self.config.app_id,
            allowed_link_offsets: self.config.allowed_link_offsets.clone(),
            max_size: self.config.max_firmware_size,
        };
        let verifier = Verifier::new(self.backend.as_ref(), &self.anchors);
        // Field checks relevant at boot: skip the differential-base check
        // (the patch was already applied; `old_version` is historical).
        let mut manifest = signed.manifest;
        manifest.old_version = Version(0);
        manifest.payload_size = manifest.size;
        verifier.check_fields(&manifest, &ctx)?;
        let signatures = verifier.check_signatures(&signed);
        // Boot-time re-verification also covers both signatures.
        Counters::add(&layout.tracer().counters().sig_verifications, 2);
        signatures?;

        let mut digester = FirmwareDigester::new();
        read_firmware_chunks(layout, slot, signed.manifest.size, 4096, |chunk| {
            digester.update(chunk)
        })
        .map_err(|_| VerifyError::DigestMismatch)?;
        verifier.verify_firmware_digest(&signed.manifest, &digester.finalize())?;
        Ok(signed)
    }

    /// Runs verification and the loading phase; returns which slot is now
    /// executing. When every regular slot fails verification and a
    /// recovery slot is configured, falls back to restoring the recovery
    /// image.
    pub fn boot(&self, layout: &mut MemoryLayout) -> Result<BootOutcome, BootError> {
        let result = self.boot_inner(layout);
        if let Ok(outcome) = &result {
            Counters::add(&layout.tracer().counters().boots, 1);
            let slot = outcome.booted_slot.0;
            let version = u64::from(outcome.version.0);
            layout.tracer().emit(|| Event::Boot { slot, version });
        }
        result
    }

    /// Reboots the device until the boot decision is a *fixed point*: a
    /// boot whose loading phase moved no flash (an in-place jump or
    /// booting the existing image), which a further reboot would simply
    /// repeat.
    ///
    /// Each iteration models one power-on: every armed power cut is
    /// cleared first (power returned — under fault injection this may
    /// arm a planned *second* cut on the recovery path), then the
    /// bootloader runs. A boot that fails with [`FlashError::PowerLoss`]
    /// is survivable by definition — the device just reboots again. Any
    /// other failure is a brick, the condition the never-brick invariant
    /// forbids.
    pub fn boot_to_fixed_point(
        &self,
        layout: &mut MemoryLayout,
        max_boots: u32,
    ) -> Result<FixedPointReport, FixedPointError> {
        let mut boots = 0u32;
        loop {
            if boots >= max_boots {
                return Err(FixedPointError::NoConvergence { boots });
            }
            layout.disarm_power_cuts();
            boots += 1;
            match self.boot(layout) {
                Ok(outcome)
                    if matches!(
                        outcome.action,
                        BootAction::JumpedInPlace | BootAction::BootedExisting
                    ) =>
                {
                    return Ok(FixedPointReport { outcome, boots });
                }
                // Loading moved an image (swap/copy/restore): boot again
                // to confirm the result is stable.
                Ok(_) => {}
                // Power cut mid-loading: the next iteration reboots with
                // power restored.
                Err(BootError::Layout(LayoutError::Flash(FlashError::PowerLoss))) => {}
                Err(error) => return Err(FixedPointError::Brick { error, boots }),
            }
        }
    }

    fn boot_inner(&self, layout: &mut MemoryLayout) -> Result<BootOutcome, BootError> {
        let regular = match self.config.mode.clone() {
            BootMode::AB { slots } => self.boot_ab(layout, &slots),
            BootMode::Static {
                bootable,
                staging,
                swap,
            } => self.boot_static(layout, bootable, staging, swap),
            BootMode::MultiComponent {
                components,
                journal,
            } => self.boot_multi(layout, &components, journal),
        };
        match regular {
            Err(BootError::NoValidImage(mut rejected)) => {
                let Some(recovery) = self.config.recovery_slot else {
                    return Err(BootError::NoValidImage(rejected));
                };
                match self.verify_slot(layout, recovery) {
                    Ok(signed) => {
                        let bootable = match &self.config.mode {
                            BootMode::AB { slots } => slots[0],
                            BootMode::Static { bootable, .. } => *bootable,
                            BootMode::MultiComponent { components, .. } => components[0].bootable,
                        };
                        layout.copy_slot(recovery, bootable)?;
                        Ok(BootOutcome {
                            booted_slot: bootable,
                            version: signed.manifest.version,
                            action: BootAction::RestoredFromRecovery,
                            rejected_slots: rejected,
                        })
                    }
                    Err(e) => {
                        rejected.push((recovery, e));
                        Err(BootError::NoValidImage(rejected))
                    }
                }
            }
            other => other,
        }
    }

    fn boot_ab(
        &self,
        layout: &mut MemoryLayout,
        slots: &[SlotId],
    ) -> Result<BootOutcome, BootError> {
        let mut rejected = Vec::new();
        let mut best: Option<(SlotId, Version)> = None;
        for &slot in slots {
            match self.verify_slot(layout, slot) {
                Ok(signed) => {
                    let version = signed.manifest.version;
                    if best.is_none_or(|(_, v)| version > v) {
                        best = Some((slot, version));
                    }
                }
                Err(e) => rejected.push((slot, e)),
            }
        }
        match best {
            Some((slot, version)) => Ok(BootOutcome {
                booted_slot: slot,
                version,
                action: BootAction::JumpedInPlace,
                rejected_slots: rejected,
            }),
            None => Err(BootError::NoValidImage(rejected)),
        }
    }

    fn boot_static(
        &self,
        layout: &mut MemoryLayout,
        bootable: SlotId,
        staging: SlotId,
        swap: bool,
    ) -> Result<BootOutcome, BootError> {
        let mut rejected = Vec::new();
        let current = match self.verify_slot(layout, bootable) {
            Ok(signed) => Some(signed.manifest.version),
            Err(e) => {
                rejected.push((bootable, e));
                None
            }
        };
        let staged = match self.verify_slot(layout, staging) {
            Ok(signed) => Some(signed.manifest.version),
            Err(e) => {
                rejected.push((staging, e));
                None
            }
        };

        match (current, staged) {
            // A strictly newer valid image is staged: load it.
            (cur, Some(staged_version)) if cur.is_none_or(|c| staged_version > c) => {
                let action = if swap {
                    layout.swap_slots(bootable, staging)?;
                    BootAction::SwappedAndBooted
                } else {
                    layout.copy_slot(staging, bootable)?;
                    BootAction::CopiedAndBooted
                };
                Ok(BootOutcome {
                    booted_slot: bootable,
                    version: staged_version,
                    action,
                    rejected_slots: rejected,
                })
            }
            // Keep what we have (also the rollback path when staging is
            // invalid).
            (Some(version), _) => Ok(BootOutcome {
                booted_slot: bootable,
                version,
                action: BootAction::BootedExisting,
                rejected_slots: rejected,
            }),
            (None, None) => Err(BootError::NoValidImage(rejected)),
            // (None, Some(_)) always matches the first arm (its guard is
            // vacuously true when no current image exists).
            (None, Some(_)) => unreachable!("guard covers missing current image"),
        }
    }

    /// Multi-component boot: replay a pending commit journal if one
    /// exists, otherwise verify every bootable component — restoring any
    /// broken one from its staged copy (per-module rollback) — and boot
    /// the set.
    fn boot_multi(
        &self,
        layout: &mut MemoryLayout,
        components: &[ComponentSlots],
        journal: SlotId,
    ) -> Result<BootOutcome, BootError> {
        let record = match read_journal_record(layout, journal)? {
            // The record's signatures extend over the component table; a
            // record that does not verify never commits anything.
            Some(record) => {
                Counters::add(&layout.tracer().counters().sig_verifications, 2);
                check_record_signatures(self.backend.as_ref(), &self.anchors, &record)
                    .ok()
                    .map(|()| record)
            }
            None => None,
        };

        if let Some(record) = &record {
            let table = record
                .multi
                .components
                .as_ref()
                .expect("journal records always carry a table");
            // Only a table whose every entry maps onto this device's slot
            // pairs can replay; anything else is ignored like a torn
            // record (the installer refuses to write such a record, so
            // this needs a trusted server mistake to ever trigger).
            let mapped = table
                .entries()
                .iter()
                .all(|e| slots_for_entry(components, e).is_some());
            let complete = journal_marker_set(layout, journal, JOURNAL_COMPLETE_OFFSET)?;
            if mapped && !complete {
                return self.replay_journal(layout, components, journal, record);
            }
        }

        // Stable path: no pending transaction. Verify every bootable
        // component; a component that fails but whose staged copy
        // verifies is restored from staging (per-module rollback).
        let table = record.as_ref().and_then(|r| r.multi.components.as_ref());
        let mut rejected = Vec::new();
        let mut restored = false;
        let mut version: Option<Version> = None;
        for comp in components {
            match self.verify_slot(layout, comp.bootable) {
                Ok(signed) => {
                    let v = signed.manifest.version;
                    // The set is only as new as its oldest member.
                    if version.is_none_or(|best| v < best) {
                        version = Some(v);
                    }
                }
                Err(e) => match self.verify_slot(layout, comp.staging) {
                    Ok(_) => {
                        layout.copy_slot(comp.staging, comp.bootable)?;
                        Counters::add(&layout.tracer().counters().components_rolled_back, 1);
                        let component = table
                            .and_then(|t| {
                                t.entries()
                                    .iter()
                                    .find(|entry| entry.slot == comp.bootable.0)
                            })
                            .map_or(u64::from(comp.bootable.0), |entry| {
                                u64::from(entry.component_id)
                            });
                        let slot = comp.bootable.0;
                        layout
                            .tracer()
                            .emit(|| Event::ComponentRollback { component, slot });
                        restored = true;
                    }
                    Err(e2) => {
                        rejected.push((comp.bootable, e));
                        rejected.push((comp.staging, e2));
                    }
                },
            }
        }
        if !rejected.is_empty() {
            return Err(BootError::NoValidImage(rejected));
        }
        if restored {
            // Flash moved: boot again so the restored component is
            // verified on the stable pass.
            return Ok(BootOutcome {
                booted_slot: components[0].bootable,
                version: version.unwrap_or(Version(0)),
                action: BootAction::RestoredFromRecovery,
                rejected_slots: Vec::new(),
            });
        }
        Ok(BootOutcome {
            booted_slot: components[0].bootable,
            version: version.unwrap_or(Version(0)),
            action: BootAction::BootedExisting,
            rejected_slots: Vec::new(),
        })
    }

    /// Rolls a valid, incomplete commit record forward: copy every
    /// not-yet-done component from staging to its bootable slot in table
    /// (dependency) order, marking each done, then mark the set complete.
    ///
    /// `copy_slot` never modifies its source, so re-running any prefix of
    /// this sequence after an interruption — including a second cut mid
    /// replay — converges to the same complete new set.
    fn replay_journal(
        &self,
        layout: &mut MemoryLayout,
        components: &[ComponentSlots],
        journal: SlotId,
        record: &upkit_manifest::SignedMultiManifest,
    ) -> Result<BootOutcome, BootError> {
        let table = record
            .multi
            .components
            .as_ref()
            .expect("caller checked the table");
        for (i, entry) in table.entries().iter().enumerate() {
            let done_at = JOURNAL_DONE_OFFSET + i as u32;
            if journal_marker_set(layout, journal, done_at)? {
                continue;
            }
            let slots = slots_for_entry(components, entry).expect("caller checked the mapping");
            layout.copy_slot(slots.staging, slots.bootable)?;
            set_journal_marker(layout, journal, done_at)?;
            Counters::add(&layout.tracer().counters().components_installed, 1);
            let component = u64::from(entry.component_id);
            let slot = entry.slot;
            let version = u64::from(entry.version.0);
            layout.tracer().emit(|| Event::ComponentCommit {
                component,
                slot,
                version,
            });
        }
        set_journal_marker(layout, journal, JOURNAL_COMPLETE_OFFSET)?;
        Ok(BootOutcome {
            booted_slot: components[0].bootable,
            version: record.multi.manifest.version,
            action: BootAction::CommittedSet,
            rejected_slots: Vec::new(),
        })
    }

    /// Phase one of a transactional multi-component install: stage every
    /// component of `record`'s table into its staging slot (dependency
    /// order), health-check each staged image, and — only if the whole
    /// set verifies — write the commit record into the journal slot.
    ///
    /// The flip itself happens on the next boot, when the bootloader
    /// replays the journal. Until the record is fully written and
    /// verifiable, a cut anywhere leaves the old set untouched; a
    /// component failing its health check aborts the install with its
    /// staging slot erased again (per-module rollback) and nothing
    /// committed.
    pub fn stage_component_set(
        &self,
        layout: &mut MemoryLayout,
        record: &upkit_manifest::SignedMultiManifest,
        images: &[ComponentImage],
    ) -> Result<(), StageError> {
        let BootMode::MultiComponent {
            components,
            journal,
        } = self.config.mode.clone()
        else {
            return Err(StageError::SetMismatch);
        };
        record.multi.validate().map_err(StageError::Record)?;
        let Some(table) = &record.multi.components else {
            return Err(StageError::Record(
                upkit_manifest::ManifestError::BadComponentTable,
            ));
        };
        if record.wire_len() > JOURNAL_RECORD_MAX
            || table.len() != images.len()
            || table
                .entries()
                .iter()
                .any(|e| slots_for_entry(&components, e).is_none())
        {
            return Err(StageError::SetMismatch);
        }
        check_record_signatures(self.backend.as_ref(), &self.anchors, record).map_err(|error| {
            StageError::ComponentHealth {
                component_id: 0,
                error,
            }
        })?;

        // Invalidate any previous commit record *before* touching staging
        // slots: from here until the new record lands, boot sees no valid
        // journal and keeps the old set.
        layout.erase_slot(journal)?;

        for (entry, image) in table.entries().iter().zip(images) {
            let slots = slots_for_entry(&components, entry).expect("checked above");
            // The image must be the one the signed table promises.
            let m = &image.signed_manifest.manifest;
            if m.version != entry.version
                || m.digest != entry.digest
                || m.size != entry.size
                || image.firmware.len() as u64 != u64::from(entry.size)
            {
                return Err(StageError::SetMismatch);
            }
            layout.erase_slot(slots.staging)?;
            crate::image::write_manifest(layout, slots.staging, &image.signed_manifest)?;
            layout.write_slot(
                slots.staging,
                crate::image::FIRMWARE_OFFSET,
                &image.firmware,
            )?;
            // Health check: full per-slot verification of what actually
            // landed in flash (a bit flip between write and check is
            // caught here, before anything can commit).
            if let Err(error) = self.verify_slot(layout, slots.staging) {
                layout.erase_slot(slots.staging)?;
                Counters::add(&layout.tracer().counters().components_rolled_back, 1);
                let component = u64::from(entry.component_id);
                let slot = entry.slot;
                layout
                    .tracer()
                    .emit(|| Event::ComponentRollback { component, slot });
                return Err(StageError::ComponentHealth {
                    component_id: entry.component_id,
                    error,
                });
            }
        }

        // Commit point: the record becomes visible in one write. A torn
        // write here fails signature verification at boot and the
        // transaction never happened.
        layout.write_slot(journal, 0, &record.to_bytes())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::backend::TinyCryptBackend;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_crypto::sha256::sha256;
    use upkit_flash::{configuration_a, configuration_b, standard, FlashGeometry, SimFlash};
    use upkit_manifest::{server_sign, vendor_sign, Manifest};

    const SLOT_SIZE: u32 = 4096 * 8;
    const LINK: u32 = 0x2000;
    const APP: u32 = 0x77;
    const DEV: u32 = 0x42;

    struct Fixture {
        vendor: SigningKey,
        server: SigningKey,
    }

    fn keys(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        Fixture {
            vendor: SigningKey::generate(&mut rng),
            server: SigningKey::generate(&mut rng),
        }
    }

    fn geometry() -> FlashGeometry {
        FlashGeometry::untimed(4096 * 32, 4096)
    }

    fn bootloader(fix: &Fixture, mode: BootMode) -> Bootloader {
        Bootloader::new(
            Arc::new(TinyCryptBackend),
            TrustAnchors::inline(&fix.vendor.verifying_key(), &fix.server.verifying_key()),
            BootConfig {
                device_id: DEV,
                app_id: APP,
                allowed_link_offsets: vec![LINK],
                max_firmware_size: SLOT_SIZE - crate::image::FIRMWARE_OFFSET,
                mode,
                recovery_slot: None,
            },
        )
    }

    fn install(
        fix: &Fixture,
        layout: &mut MemoryLayout,
        slot: SlotId,
        version: u16,
        firmware: &[u8],
    ) {
        let manifest = Manifest {
            device_id: DEV,
            nonce: 1,
            old_version: Version(0),
            version: Version(version),
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest: sha256(firmware),
            link_offset: LINK,
            app_id: APP,
        };
        let signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &fix.vendor),
            server_signature: server_sign(&manifest, &fix.server),
        };
        layout.erase_slot(slot).unwrap();
        crate::image::write_manifest(layout, slot, &signed).unwrap();
        layout
            .write_slot(slot, crate::image::FIRMWARE_OFFSET, firmware)
            .unwrap();
    }

    fn ab_layout() -> MemoryLayout {
        configuration_a(Box::new(SimFlash::new(geometry())), SLOT_SIZE).unwrap()
    }

    fn static_layout() -> MemoryLayout {
        configuration_b(Box::new(SimFlash::new(geometry())), None, SLOT_SIZE).unwrap()
    }

    #[test]
    fn ab_boots_newest_valid_slot() {
        let fix = keys(110);
        let mut layout = ab_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"old firmware");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"new firmware");
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.booted_slot, standard::SLOT_B);
        assert_eq!(outcome.version, Version(2));
        assert_eq!(outcome.action, BootAction::JumpedInPlace);
        assert!(outcome.rejected_slots.is_empty());
        // A/B never moves data: no erases or writes at boot.
        layout.reset_stats();
        boot.boot(&mut layout).unwrap();
        assert_eq!(layout.total_stats().sectors_erased, 0);
        assert_eq!(layout.total_stats().bytes_written, 0);
    }

    #[test]
    fn ab_rolls_back_when_newest_is_corrupt() {
        let fix = keys(111);
        let mut layout = ab_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"good old");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"bad new!");
        // Corrupt the newer firmware body (bit-clear is always legal).
        layout
            .write_slot(standard::SLOT_B, crate::image::FIRMWARE_OFFSET, &[0x00])
            .unwrap();
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.booted_slot, standard::SLOT_A);
        assert_eq!(outcome.version, Version(1));
        assert_eq!(outcome.rejected_slots.len(), 1);
        assert_eq!(outcome.rejected_slots[0].0, standard::SLOT_B);
        assert_eq!(outcome.rejected_slots[0].1, VerifyError::DigestMismatch);
    }

    #[test]
    fn ab_with_both_slots_invalid_fails() {
        let fix = keys(112);
        let mut layout = ab_layout();
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
        );
        assert!(matches!(
            boot.boot(&mut layout),
            Err(BootError::NoValidImage(_))
        ));
    }

    #[test]
    fn static_swaps_newer_staged_image() {
        let fix = keys(113);
        let mut layout = static_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"running v1");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"staged v2!");
        let boot = bootloader(
            &fix,
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: true,
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.booted_slot, standard::SLOT_A);
        assert_eq!(outcome.version, Version(2));
        assert_eq!(outcome.action, BootAction::SwappedAndBooted);
        // v2 now lives in the bootable slot; v1 preserved in staging.
        let mut buf = [0u8; 10];
        layout
            .read_slot(standard::SLOT_A, crate::image::FIRMWARE_OFFSET, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"staged v2!");
        layout
            .read_slot(standard::SLOT_B, crate::image::FIRMWARE_OFFSET, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"running v1");
    }

    #[test]
    fn static_copy_mode_discards_rollback() {
        let fix = keys(114);
        let mut layout = static_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"running v1");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"staged v2!");
        let boot = bootloader(
            &fix,
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: false,
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::CopiedAndBooted);
        let mut buf = [0u8; 10];
        layout
            .read_slot(standard::SLOT_A, crate::image::FIRMWARE_OFFSET, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"staged v2!");
    }

    #[test]
    fn static_keeps_current_when_staged_is_older() {
        let fix = keys(115);
        let mut layout = static_layout();
        install(&fix, &mut layout, standard::SLOT_A, 3, b"running v3");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"staged v2!");
        let boot = bootloader(
            &fix,
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: true,
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.version, Version(3));
        assert_eq!(outcome.action, BootAction::BootedExisting);
    }

    #[test]
    fn static_rolls_back_on_corrupt_staging() {
        let fix = keys(116);
        let mut layout = static_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"running v1");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"staged v2!");
        layout
            .write_slot(standard::SLOT_B, crate::image::FIRMWARE_OFFSET + 3, &[0x00])
            .unwrap();
        let boot = bootloader(
            &fix,
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: true,
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.version, Version(1));
        assert_eq!(outcome.action, BootAction::BootedExisting);
        assert_eq!(outcome.rejected_slots.len(), 1);
    }

    #[test]
    fn fixed_point_in_ab_mode_is_one_boot() {
        let fix = keys(120);
        let mut layout = ab_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"old firmware");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"new firmware");
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
        );
        let report = boot.boot_to_fixed_point(&mut layout, 8).unwrap();
        assert_eq!(
            report.boots, 1,
            "A/B never moves flash: first boot is stable"
        );
        assert_eq!(report.outcome.action, BootAction::JumpedInPlace);
        assert_eq!(report.outcome.version, Version(2));
    }

    #[test]
    fn fixed_point_in_static_mode_settles_after_the_swap() {
        let fix = keys(121);
        let mut layout = static_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"running v1");
        install(&fix, &mut layout, standard::SLOT_B, 2, b"staged v2!");
        let boot = bootloader(
            &fix,
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: true,
            },
        );
        let report = boot.boot_to_fixed_point(&mut layout, 8).unwrap();
        assert_eq!(report.boots, 2, "boot 1 swaps, boot 2 confirms");
        assert_eq!(report.outcome.action, BootAction::BootedExisting);
        assert_eq!(report.outcome.version, Version(2));
    }

    #[test]
    fn fixed_point_survives_a_cut_mid_boot_but_reports_a_real_brick() {
        use upkit_flash::fault::{FaultFlash, FaultKind, FaultPlan};

        let fix = keys(122);
        // The loop restores power (disarms) before every boot, so a cut
        // that fires *during* boot needs a FaultFlash plan, which
        // survives disarms until its boundary. Provisioning two slots
        // costs 2 × (8 sector erases + 2 writes) = 20 mutating ops; the
        // swap then runs 4 ops per sector, so boundary 24 is the erase
        // of slot A's *second* sector.
        let mut layout = configuration_b(
            Box::new(FaultFlash::with_fault(
                Box::new(SimFlash::new(geometry())),
                FaultPlan {
                    boundary: 24,
                    kind: FaultKind::CleanCut,
                    recovery_cut: None,
                },
            )),
            None,
            SLOT_SIZE,
        )
        .unwrap();
        // Images spanning two sectors: after sector 0 is fully swapped
        // both slots hold a mixed v1/v2 body, so a cut in sector 1's
        // swap leaves *no* valid image — the documented hazard of
        // swap-without-recovery that the recovery slot of Fig. 6 closes.
        install(&fix, &mut layout, standard::SLOT_A, 1, &[0x11; 6000]);
        install(&fix, &mut layout, standard::SLOT_B, 2, &[0x22; 6000]);
        let boot = bootloader(
            &fix,
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap: true,
            },
        );
        match boot.boot_to_fixed_point(&mut layout, 8) {
            // Boot 1 dies in the cut (tolerated), boot 2 finds no valid
            // image anywhere.
            Err(FixedPointError::Brick { error, boots }) => {
                assert_eq!(boots, 2);
                assert!(matches!(error, BootError::NoValidImage(_)));
            }
            other => panic!("expected a brick, got {other:?}"),
        }
    }

    #[test]
    fn fixed_point_with_zero_budget_reports_no_convergence() {
        let fix = keys(123);
        let mut layout = ab_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"v1");
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A],
            },
        );
        assert!(matches!(
            boot.boot_to_fixed_point(&mut layout, 0),
            Err(FixedPointError::NoConvergence { boots: 0 })
        ));
    }

    #[test]
    fn forged_image_in_slot_is_rejected() {
        let fix = keys(117);
        let attacker = keys(999);
        let mut layout = ab_layout();
        install(&fix, &mut layout, standard::SLOT_A, 1, b"legit");
        // Attacker installs an image signed with their own keys.
        install(&attacker, &mut layout, standard::SLOT_B, 9, b"evil!");
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.booted_slot, standard::SLOT_A);
        assert_eq!(outcome.rejected_slots.len(), 1);
        assert!(matches!(
            outcome.rejected_slots[0].1,
            VerifyError::VendorSignature | VerifyError::ServerSignature
        ));
    }

    #[test]
    fn wrong_app_id_image_rejected_at_boot() {
        let fix = keys(118);
        let mut layout = ab_layout();
        // Hand-roll an image with a foreign app id but valid signatures.
        let firmware = b"other product firmware";
        let manifest = Manifest {
            device_id: DEV,
            nonce: 1,
            old_version: Version(0),
            version: Version(5),
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest: sha256(firmware),
            link_offset: LINK,
            app_id: APP + 1,
        };
        let signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &fix.vendor),
            server_signature: server_sign(&manifest, &fix.server),
        };
        layout.erase_slot(standard::SLOT_A).unwrap();
        crate::image::write_manifest(&mut layout, standard::SLOT_A, &signed).unwrap();
        layout
            .write_slot(standard::SLOT_A, crate::image::FIRMWARE_OFFSET, firmware)
            .unwrap();
        let boot = bootloader(
            &fix,
            BootMode::AB {
                slots: vec![standard::SLOT_A],
            },
        );
        match boot.boot(&mut layout) {
            Err(BootError::NoValidImage(rejected)) => {
                assert_eq!(rejected[0].1, VerifyError::WrongAppId);
            }
            other => panic!("expected NoValidImage, got {other:?}"),
        }
    }

    // ---- multi-component transactional installs ----

    use upkit_flash::configuration_multi;
    use upkit_manifest::{
        server_sign_multi, vendor_sign_multi, ComponentEntry, ComponentTable, MultiManifest,
    };

    const MULTI_SLOT: u32 = 4096 * 4;

    fn multi_layout(n: u8) -> MemoryLayout {
        configuration_multi(Box::new(SimFlash::new(geometry())), n, MULTI_SLOT, 4096).unwrap()
    }

    fn multi_slots(n: u8) -> Vec<ComponentSlots> {
        (0..n)
            .map(|c| ComponentSlots {
                bootable: SlotId(c * 2),
                staging: SlotId(c * 2 + 1),
            })
            .collect()
    }

    fn journal_slot(n: u8) -> SlotId {
        SlotId(n * 2)
    }

    fn multi_bootloader(fix: &Fixture, n: u8) -> Bootloader {
        bootloader(
            fix,
            BootMode::MultiComponent {
                components: multi_slots(n),
                journal: journal_slot(n),
            },
        )
    }

    fn signed_component(fix: &Fixture, version: u16, firmware: &[u8]) -> SignedManifest {
        let manifest = Manifest {
            device_id: DEV,
            nonce: 1,
            old_version: Version(0),
            version: Version(version),
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest: sha256(firmware),
            link_offset: LINK,
            app_id: APP,
        };
        SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &fix.vendor),
            server_signature: server_sign(&manifest, &fix.server),
        }
    }

    /// Builds a signed commit record plus the matching staged images for
    /// the given `(component_id, slot, version, firmware)` set.
    fn multi_record(
        fix: &Fixture,
        set_version: u16,
        parts: &[(u32, u8, u16, &[u8])],
    ) -> (upkit_manifest::SignedMultiManifest, Vec<ComponentImage>) {
        let mut entries = Vec::new();
        let mut images = Vec::new();
        for &(component_id, slot, version, firmware) in parts {
            entries.push(ComponentEntry {
                component_id,
                version: Version(version),
                size: firmware.len() as u32,
                digest: sha256(firmware),
                slot,
            });
            images.push(ComponentImage {
                signed_manifest: signed_component(fix, version, firmware),
                firmware: firmware.to_vec(),
            });
        }
        let table = ComponentTable::new(entries).unwrap();
        let manifest = Manifest {
            device_id: DEV,
            nonce: 1,
            old_version: Version(0),
            version: Version(set_version),
            size: u32::try_from(table.total_size()).unwrap(),
            payload_size: u32::try_from(table.total_size()).unwrap(),
            digest: table.set_digest(),
            link_offset: LINK,
            app_id: APP,
        };
        let multi = MultiManifest {
            manifest,
            components: Some(table),
        };
        let record = upkit_manifest::SignedMultiManifest {
            vendor_signature: vendor_sign_multi(&multi, &fix.vendor),
            server_signature: server_sign_multi(&multi, &fix.server),
            multi,
        };
        (record, images)
    }

    fn install_old_set(fix: &Fixture, layout: &mut MemoryLayout, n: u8) {
        for c in 0..n {
            install(
                fix,
                layout,
                SlotId(c * 2),
                1,
                format!("old component {c}").as_bytes(),
            );
        }
    }

    fn component_versions(
        boot: &Bootloader,
        layout: &mut MemoryLayout,
        n: u8,
    ) -> Vec<Option<Version>> {
        (0..n)
            .map(|c| {
                boot.verify_slot(layout, SlotId(c * 2))
                    .ok()
                    .map(|s| s.manifest.version)
            })
            .collect()
    }

    #[test]
    fn multi_stage_then_boot_commits_whole_set() {
        let fix = keys(200);
        let mut layout = multi_layout(2);
        install_old_set(&fix, &mut layout, 2);
        let boot = multi_bootloader(&fix, 2);
        let (record, images) = multi_record(
            &fix,
            2,
            &[(0xA, 0, 2, b"new base os"), (0xB, 2, 2, b"new app!!")],
        );
        boot.stage_component_set(&mut layout, &record, &images)
            .unwrap();
        // Staging never touches bootable slots: still the old set.
        assert_eq!(
            component_versions(&boot, &mut layout, 2),
            vec![Some(Version(1)), Some(Version(1))]
        );

        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::CommittedSet);
        assert_eq!(outcome.version, Version(2));
        assert_eq!(
            layout.tracer().counters().snapshot().components_installed,
            2
        );
        // The next boot is stable on the complete new set.
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::BootedExisting);
        assert_eq!(outcome.version, Version(2));
        assert_eq!(
            component_versions(&boot, &mut layout, 2),
            vec![Some(Version(2)), Some(Version(2))]
        );
    }

    #[test]
    fn multi_replay_resumes_after_cut_between_swaps() {
        let fix = keys(201);
        let mut layout = multi_layout(3);
        install_old_set(&fix, &mut layout, 3);
        let boot = multi_bootloader(&fix, 3);
        let (record, images) = multi_record(
            &fix,
            2,
            &[
                (0xA, 0, 2, b"base v2"),
                (0xB, 2, 2, b"radio v2"),
                (0xC, 4, 2, b"app v2!"),
            ],
        );
        boot.stage_component_set(&mut layout, &record, &images)
            .unwrap();
        // Simulate a power cut after the first component swapped: copy
        // component 0 and set its done marker by hand, as a partial
        // replay would have.
        let journal = journal_slot(3);
        layout.copy_slot(SlotId(1), SlotId(0)).unwrap();
        set_journal_marker(&mut layout, journal, JOURNAL_DONE_OFFSET).unwrap();

        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::CommittedSet);
        // Only the two remaining components were copied on this pass.
        assert_eq!(
            layout.tracer().counters().snapshot().components_installed,
            2
        );
        assert_eq!(
            component_versions(&boot, &mut layout, 3),
            vec![Some(Version(2)), Some(Version(2)), Some(Version(2))]
        );
        assert!(journal_marker_set(&layout, journal, JOURNAL_COMPLETE_OFFSET).unwrap());
    }

    #[test]
    fn multi_torn_record_keeps_complete_old_set() {
        let fix = keys(202);
        let mut layout = multi_layout(2);
        install_old_set(&fix, &mut layout, 2);
        let boot = multi_bootloader(&fix, 2);
        let (record, images) =
            multi_record(&fix, 2, &[(0xA, 0, 2, b"base v2"), (0xB, 2, 2, b"app v2!")]);
        boot.stage_component_set(&mut layout, &record, &images)
            .unwrap();
        // Tear the commit record (bit-clear inside the server signature).
        layout
            .write_slot(
                journal_slot(2),
                upkit_manifest::MANIFEST_LEN as u32 + 70,
                &[0],
            )
            .unwrap();

        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::BootedExisting);
        assert_eq!(outcome.version, Version(1));
        // Never mixed: every component still runs the old version.
        assert_eq!(
            component_versions(&boot, &mut layout, 2),
            vec![Some(Version(1)), Some(Version(1))]
        );
        assert_eq!(
            layout.tracer().counters().snapshot().components_installed,
            0
        );
    }

    #[test]
    fn multi_health_check_failure_aborts_install() {
        let fix = keys(203);
        let attacker = keys(999);
        let mut layout = multi_layout(2);
        install_old_set(&fix, &mut layout, 2);
        let boot = multi_bootloader(&fix, 2);
        let (record, mut images) =
            multi_record(&fix, 2, &[(0xA, 0, 2, b"base v2"), (0xB, 2, 2, b"app v2!")]);
        // Component 0xB's staged image carries foreign signatures (its
        // digest still matches the table, so only the in-flash health
        // check can catch it).
        images[1].signed_manifest = signed_component(&attacker, 2, b"app v2!");
        match boot.stage_component_set(&mut layout, &record, &images) {
            Err(StageError::ComponentHealth { component_id, .. }) => {
                assert_eq!(component_id, 0xB);
            }
            other => panic!("expected ComponentHealth, got {other:?}"),
        }
        assert_eq!(
            layout.tracer().counters().snapshot().components_rolled_back,
            1
        );
        // Nothing committed: the journal holds no record and the old set
        // boots untouched.
        assert!(read_journal_record(&layout, journal_slot(2))
            .unwrap()
            .is_none());
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::BootedExisting);
        assert_eq!(outcome.version, Version(1));
    }

    #[test]
    fn multi_boot_time_rollback_restores_broken_component() {
        let fix = keys(204);
        let mut layout = multi_layout(2);
        install_old_set(&fix, &mut layout, 2);
        let boot = multi_bootloader(&fix, 2);
        let (record, images) =
            multi_record(&fix, 2, &[(0xA, 0, 2, b"base v2"), (0xB, 2, 2, b"app v2!")]);
        boot.stage_component_set(&mut layout, &record, &images)
            .unwrap();
        boot.boot(&mut layout).unwrap();
        // Corrupt component 0's bootable copy after the set committed.
        layout
            .write_slot(SlotId(0), crate::image::FIRMWARE_OFFSET, &[0x00])
            .unwrap();
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::RestoredFromRecovery);
        assert_eq!(
            layout.tracer().counters().snapshot().components_rolled_back,
            1
        );
        let outcome = boot.boot(&mut layout).unwrap();
        assert_eq!(outcome.action, BootAction::BootedExisting);
        assert_eq!(
            component_versions(&boot, &mut layout, 2),
            vec![Some(Version(2)), Some(Version(2))]
        );
    }

    #[test]
    fn multi_rejects_table_that_does_not_match_slots() {
        let fix = keys(205);
        let mut layout = multi_layout(2);
        install_old_set(&fix, &mut layout, 2);
        let boot = multi_bootloader(&fix, 2);
        // Slot 6 does not exist on a two-component device.
        let (record, images) =
            multi_record(&fix, 2, &[(0xA, 0, 2, b"base v2"), (0xB, 6, 2, b"app v2!")]);
        assert!(matches!(
            boot.stage_component_set(&mut layout, &record, &images),
            Err(StageError::SetMismatch)
        ));
        assert_eq!(
            component_versions(&boot, &mut layout, 2),
            vec![Some(Version(1)), Some(Version(1))]
        );
    }
}
