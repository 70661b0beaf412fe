//! On-flash image layout: how a slot stores a signed manifest plus its
//! firmware.
//!
//! The bootloader must re-verify an update after reboot, so the manifest
//! travels with the image: each slot begins with a fixed-size header region
//! holding the [`SignedManifest`], followed by the firmware at
//! [`FIRMWARE_OFFSET`]. The header region is sized to a typical flash write
//! page so header and firmware never share a programming unit.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use upkit_flash::{LayoutError, MemoryLayout, SlotId};
use upkit_manifest::{ManifestError, SignedManifest, SIGNED_MANIFEST_LEN};

/// Byte offset of the firmware image within a slot.
pub const FIRMWARE_OFFSET: u32 = 256;

/// Writes a signed manifest into a slot's header region.
///
/// The slot must already be erased (the agent FSM erases it in its
/// *Start update* state).
pub fn write_manifest(
    layout: &mut MemoryLayout,
    slot: SlotId,
    signed: &SignedManifest,
) -> Result<(), LayoutError> {
    layout.write_slot(slot, 0, &signed.to_bytes())
}

/// Reads the signed manifest from a slot's header region.
///
/// Returns `Ok(None)` when the header is erased (no image present) and an
/// error when the header bytes are present but unparseable.
pub fn read_manifest(
    layout: &MemoryLayout,
    slot: SlotId,
) -> Result<Option<SignedManifest>, SlotImageError> {
    let mut header = [0u8; SIGNED_MANIFEST_LEN];
    layout
        .read_slot(slot, 0, &mut header)
        .map_err(SlotImageError::Layout)?;
    if header.iter().all(|&b| b == 0xFF) {
        return Ok(None);
    }
    SignedManifest::from_bytes(&header)
        .map(Some)
        .map_err(SlotImageError::Manifest)
}

/// Largest read granularity [`read_firmware_chunks`] uses (one flash
/// sector); the read buffer lives on the stack at this size, so the
/// block-verify loop performs no heap allocation.
pub const MAX_READ_CHUNK: usize = 4096;

/// Reads `len` firmware bytes from a slot (starting at
/// [`FIRMWARE_OFFSET`]) in `chunk` sized reads (clamped to
/// [`MAX_READ_CHUNK`]), feeding each to `sink`.
pub fn read_firmware_chunks(
    layout: &mut MemoryLayout,
    slot: SlotId,
    len: u32,
    chunk: usize,
    mut sink: impl FnMut(&[u8]),
) -> Result<(), LayoutError> {
    let chunk = chunk.clamp(1, MAX_READ_CHUNK);
    let mut offset = 0u32;
    let mut buf = [0u8; MAX_READ_CHUNK];
    while offset < len {
        let take = chunk.min((len - offset) as usize);
        layout.read_slot_counted(slot, FIRMWARE_OFFSET + offset, &mut buf[..take])?;
        sink(&buf[..take]);
        offset += take as u32;
    }
    Ok(())
}

/// Errors from slot-image header access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SlotImageError {
    /// Flash/layout failure.
    Layout(LayoutError),
    /// The header bytes do not parse as a signed manifest.
    Manifest(ManifestError),
}

impl core::fmt::Display for SlotImageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Layout(e) => write!(f, "slot image layout error: {e}"),
            Self::Manifest(e) => write!(f, "slot image manifest error: {e}"),
        }
    }
}

impl core::error::Error for SlotImageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_crypto::sha256::sha256;
    use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
    use upkit_manifest::{server_sign, vendor_sign, Manifest, Version};

    fn layout() -> MemoryLayout {
        configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
            4096 * 8,
        )
        .unwrap()
    }

    fn sample_signed(seed: u64) -> SignedManifest {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let m = Manifest {
            device_id: 1,
            nonce: 2,
            old_version: Version(0),
            version: Version(5),
            size: 100,
            payload_size: 100,
            digest: sha256(b"fw"),
            link_offset: 0,
            app_id: 3,
        };
        SignedManifest {
            manifest: m,
            vendor_signature: vendor_sign(&m, &vendor),
            server_signature: server_sign(&m, &server),
        }
    }

    #[test]
    fn manifest_header_round_trip() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_A).unwrap();
        let signed = sample_signed(80);
        write_manifest(&mut layout, standard::SLOT_A, &signed).unwrap();
        let read = read_manifest(&layout, standard::SLOT_A).unwrap();
        assert_eq!(read, Some(signed));
    }

    #[test]
    fn erased_slot_reads_as_no_image() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_A).unwrap();
        assert_eq!(read_manifest(&layout, standard::SLOT_A).unwrap(), None);
    }

    #[test]
    fn corrupt_header_is_an_error() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_A).unwrap();
        // Garbage that is neither erased nor a valid manifest: zero bytes
        // make the embedded signatures invalid encodings.
        layout
            .write_slot(standard::SLOT_A, 0, &[0u8; SIGNED_MANIFEST_LEN])
            .unwrap();
        assert!(matches!(
            read_manifest(&layout, standard::SLOT_A),
            Err(SlotImageError::Manifest(_))
        ));
    }

    #[test]
    fn firmware_chunk_reader_covers_every_byte() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_A).unwrap();
        let fw: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &fw)
            .unwrap();
        let mut collected = Vec::new();
        read_firmware_chunks(&mut layout, standard::SLOT_A, fw.len() as u32, 512, |c| {
            collected.extend_from_slice(c)
        })
        .unwrap();
        assert_eq!(collected, fw);
    }
}
