//! mcuboot-like bootloader.
//!
//! MCUboot is the portable bootloader the paper compares against
//! (Fig. 7a). Differences from UpKit's bootloader that matter to the
//! evaluation:
//!
//! * Verification happens **only here** — after the device has already
//!   downloaded, stored, and rebooted. An invalid image costs a full
//!   download plus a reboot before it is detected.
//! * Only the **vendor** signature is checked; there is no update-server
//!   signature, so no device/request binding: any vendor-signed image for
//!   the right platform is accepted, including replayed or (with the
//!   default configuration) downgraded ones.
//! * Loading always swaps the staging slot into the primary slot
//!   (mcuboot's classic swap strategy) — the cost Fig. 8c's A/B mode
//!   avoids.

use std::sync::Arc;

use upkit_core::image::{read_firmware_chunks, read_manifest};
use upkit_core::keys::KeyAnchor;
use upkit_core::verifier::FirmwareDigester;
use upkit_crypto::backend::{SecurityBackend, SecurityError};
use upkit_flash::{LayoutError, MemoryLayout, SlotId};
use upkit_manifest::{SignedManifest, Version};

/// mcuboot-like configuration.
#[derive(Clone, Debug)]
pub struct McubootConfig {
    /// The slot the MCU executes from.
    pub primary: SlotId,
    /// The staging slot uploads land in.
    pub staging: SlotId,
    /// The single trusted (vendor) key.
    pub vendor_key: KeyAnchor,
    /// Optional downgrade prevention (off by default in mcuboot).
    pub downgrade_prevention: bool,
}

/// Boot outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McubootOutcome {
    /// Staging was valid and swapped into the primary slot.
    SwappedNewImage {
        /// Version now running.
        version: Version,
    },
    /// Booted the existing primary image (staging absent or invalid).
    BootedExisting {
        /// Version now running.
        version: Version,
        /// Whether an invalid staged image was detected and discarded —
        /// i.e. the wasted-download case.
        staging_was_invalid: bool,
    },
}

/// Boot errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum McubootError {
    /// Neither slot holds a valid image.
    NoValidImage,
    /// Flash failure.
    Layout(LayoutError),
}

impl core::fmt::Display for McubootError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoValidImage => f.write_str("no valid image in either slot"),
            Self::Layout(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl std::error::Error for McubootError {}

impl From<LayoutError> for McubootError {
    fn from(e: LayoutError) -> Self {
        Self::Layout(e)
    }
}

/// The mcuboot-like bootloader.
pub struct McubootBootloader {
    backend: Arc<dyn SecurityBackend>,
    config: McubootConfig,
}

impl core::fmt::Debug for McubootBootloader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("McubootBootloader").finish_non_exhaustive()
    }
}

impl McubootBootloader {
    /// Creates the bootloader.
    #[must_use]
    pub fn new(backend: Arc<dyn SecurityBackend>, config: McubootConfig) -> Self {
        Self { backend, config }
    }

    /// Single-signature + digest verification of one slot. No device ID,
    /// nonce, or server-signature checks — mcuboot has none of them.
    pub fn verify_slot(
        &self,
        layout: &mut MemoryLayout,
        slot: SlotId,
    ) -> Result<SignedManifest, SecurityError> {
        let signed = match read_manifest(layout, slot) {
            Ok(Some(signed)) => signed,
            _ => return Err(SecurityError::BadSignature),
        };
        let digest = self.backend.digest(&signed.manifest.vendor_signed_bytes());
        self.backend.verify(
            self.config.vendor_key.key_ref(),
            &digest,
            &signed.vendor_signature,
        )?;
        let mut digester = FirmwareDigester::new();
        read_firmware_chunks(layout, slot, signed.manifest.size, 4096, |chunk| {
            digester.update(chunk)
        })
        .map_err(|_| SecurityError::BadSignature)?;
        if digester.finalize() != signed.manifest.digest {
            return Err(SecurityError::BadSignature);
        }
        Ok(signed)
    }

    /// Boot: verify staging; if valid (and newer, when downgrade
    /// prevention is on) swap it in; otherwise boot the primary.
    pub fn boot(&self, layout: &mut MemoryLayout) -> Result<McubootOutcome, McubootError> {
        let primary = self.verify_slot(layout, self.config.primary).ok();
        let staging = self.verify_slot(layout, self.config.staging).ok();

        // mcumgr-style uploads always land in staging; the slot not being
        // verifiable is the "wasted download" signal.
        let staging_present = read_manifest(layout, self.config.staging)
            .ok()
            .flatten()
            .is_some();

        match (primary, staging) {
            (Some(p), Some(staged))
                if self.config.downgrade_prevention
                    && staged.manifest.version <= p.manifest.version =>
            {
                Ok(McubootOutcome::BootedExisting {
                    version: p.manifest.version,
                    staging_was_invalid: false,
                })
            }
            (_, Some(staged)) => {
                layout.swap_slots(self.config.primary, self.config.staging)?;
                Ok(McubootOutcome::SwappedNewImage {
                    version: staged.manifest.version,
                })
            }
            (Some(p), None) => Ok(McubootOutcome::BootedExisting {
                version: p.manifest.version,
                staging_was_invalid: staging_present,
            }),
            (None, None) => Err(McubootError::NoValidImage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_core::image::{write_manifest, FIRMWARE_OFFSET};
    use upkit_crypto::backend::TinyCryptBackend;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_crypto::sha256::sha256;
    use upkit_flash::{configuration_b, standard, FlashGeometry, SimFlash};
    use upkit_manifest::{server_sign, vendor_sign, Manifest};

    fn layout() -> MemoryLayout {
        configuration_b(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 64, 4096))),
            None,
            4096 * 8,
        )
        .unwrap()
    }

    fn install(
        layout: &mut MemoryLayout,
        slot: SlotId,
        vendor: &SigningKey,
        version: u16,
        fw: &[u8],
    ) {
        let manifest = Manifest {
            device_id: 0,
            nonce: 0,
            old_version: Version(0),
            version: Version(version),
            size: fw.len() as u32,
            payload_size: fw.len() as u32,
            digest: sha256(fw),
            link_offset: 0,
            app_id: 0xA,
        };
        // mcuboot images carry only the vendor signature; fill the server
        // slot with a self-signature to satisfy the container format.
        let signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, vendor),
            server_signature: server_sign(&manifest, vendor),
        };
        layout.erase_slot(slot).unwrap();
        write_manifest(layout, slot, &signed).unwrap();
        layout.write_slot(slot, FIRMWARE_OFFSET, fw).unwrap();
    }

    fn boot_with(vendor: &SigningKey, downgrade_prevention: bool) -> McubootBootloader {
        McubootBootloader::new(
            Arc::new(TinyCryptBackend),
            McubootConfig {
                primary: standard::SLOT_A,
                staging: standard::SLOT_B,
                vendor_key: KeyAnchor::inline(&vendor.verifying_key()),
                downgrade_prevention,
            },
        )
    }

    #[test]
    fn swaps_valid_staged_image() {
        let vendor = SigningKey::generate(&mut StdRng::seed_from_u64(170));
        let mut layout = layout();
        install(&mut layout, standard::SLOT_A, &vendor, 1, b"v1 image");
        install(&mut layout, standard::SLOT_B, &vendor, 2, b"v2 image");
        let boot = boot_with(&vendor, false);
        assert_eq!(
            boot.boot(&mut layout).unwrap(),
            McubootOutcome::SwappedNewImage {
                version: Version(2)
            }
        );
    }

    #[test]
    fn invalid_staging_detected_only_after_reboot() {
        let vendor = SigningKey::generate(&mut StdRng::seed_from_u64(171));
        let mut layout = layout();
        install(&mut layout, standard::SLOT_A, &vendor, 1, b"v1 image");
        install(&mut layout, standard::SLOT_B, &vendor, 2, b"v2 image");
        // Corrupt the staged firmware after storage (as a tampered upload
        // would be): the device has already paid download + reboot.
        layout
            .write_slot(standard::SLOT_B, FIRMWARE_OFFSET, &[0x00])
            .unwrap();
        let boot = boot_with(&vendor, false);
        match boot.boot(&mut layout).unwrap() {
            McubootOutcome::BootedExisting {
                version,
                staging_was_invalid,
            } => {
                assert_eq!(version, Version(1));
                assert!(staging_was_invalid, "the wasted-download signal");
            }
            other => panic!("expected rollback, got {other:?}"),
        }
    }

    #[test]
    fn accepts_downgrade_by_default() {
        // The update-freshness hole: a valid but *old* vendor-signed image
        // is swapped in without complaint.
        let vendor = SigningKey::generate(&mut StdRng::seed_from_u64(172));
        let mut layout = layout();
        install(&mut layout, standard::SLOT_A, &vendor, 5, b"v5 image");
        install(&mut layout, standard::SLOT_B, &vendor, 2, b"v2 image");
        let boot = boot_with(&vendor, false);
        assert_eq!(
            boot.boot(&mut layout).unwrap(),
            McubootOutcome::SwappedNewImage {
                version: Version(2)
            }
        );
    }

    #[test]
    fn downgrade_prevention_keeps_newer_primary() {
        let vendor = SigningKey::generate(&mut StdRng::seed_from_u64(173));
        let mut layout = layout();
        install(&mut layout, standard::SLOT_A, &vendor, 5, b"v5 image");
        install(&mut layout, standard::SLOT_B, &vendor, 2, b"v2 image");
        let boot = boot_with(&vendor, true);
        match boot.boot(&mut layout).unwrap() {
            McubootOutcome::BootedExisting { version, .. } => assert_eq!(version, Version(5)),
            other => panic!("expected existing image, got {other:?}"),
        }
    }

    #[test]
    fn rejects_foreign_vendor_signature() {
        let vendor = SigningKey::generate(&mut StdRng::seed_from_u64(174));
        let attacker = SigningKey::generate(&mut StdRng::seed_from_u64(175));
        let mut layout = layout();
        install(&mut layout, standard::SLOT_A, &vendor, 1, b"legit v1");
        install(&mut layout, standard::SLOT_B, &attacker, 9, b"evil  v9");
        let boot = boot_with(&vendor, false);
        match boot.boot(&mut layout).unwrap() {
            McubootOutcome::BootedExisting { version, .. } => assert_eq!(version, Version(1)),
            other => panic!("expected rollback, got {other:?}"),
        }
    }

    #[test]
    fn no_image_anywhere_is_fatal() {
        let vendor = SigningKey::generate(&mut StdRng::seed_from_u64(176));
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let boot = boot_with(&vendor, false);
        assert!(matches!(
            boot.boot(&mut layout),
            Err(McubootError::NoValidImage)
        ));
    }
}
