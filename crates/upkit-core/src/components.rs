//! Multi-component transactional installs: the commit journal.
//!
//! ROADMAP item 4's hard requirement — *no power cut may ever leave a
//! device running a mixed component set* — needs more than per-slot
//! atomicity: a base OS and its app modules must flip together or not at
//! all. UpKit achieves that with a two-phase, flash-journaled install:
//!
//! 1. **Stage** — every component of the new set is written to its
//!    inactive (staging) slot and health-checked in place, in dependency
//!    order. Bootable slots are never touched in this phase; a cut
//!    anywhere leaves the running (old) set intact.
//! 2. **Commit** — only after *all* components verified is the signed
//!    multi-payload manifest written into the journal slot. This record
//!    (component set digest + per-slot targets, both signatures) is the
//!    transaction's commit point: once it exists and verifies, the set
//!    WILL become active; until then the install is invisible.
//!
//! The bootloader *replays* the journal: a valid, incomplete record makes
//! it roll forward — copy each staged component into its bootable slot in
//! table order, programming a per-component done marker (NOR bit-clear,
//! no erase needed) after each copy, then a final complete marker.
//! `MemoryLayout::copy_slot` never modifies its source, so replaying a
//! half-finished copy from any interruption — including a second cut mid
//! replay — is idempotent. A *stable* boot (the only kind that returns
//! control to application code) therefore only ever sees either the
//! complete old set (no valid commit record) or the complete new set
//! (record + complete marker): the never-mixed-set invariant.
//!
//! Journal slot layout:
//!
//! | offset | bytes | contents |
//! |---|---|---|
//! | 0 | ≤ [`JOURNAL_RECORD_MAX`] | [`SignedMultiManifest`] commit record |
//! | [`JOURNAL_DONE_OFFSET`] | [`MAX_COMPONENTS`] | per-component done markers |
//! | [`JOURNAL_COMPLETE_OFFSET`] | 1 | set-complete marker |
//!
//! Markers are single bytes programmed `0xFF → 0x00`; NOR flash clears
//! bits without an erase, so marker writes are atomic enough (a torn
//! marker write can only happen *after* its copy completed, and any
//! partially-programmed byte still reads as "set").

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::vec::Vec;

use upkit_crypto::backend::{SecurityBackend, SecurityError};
use upkit_flash::{LayoutError, MemoryLayout, SlotId};
use upkit_manifest::{
    ComponentEntry, ManifestError, SignedManifest, SignedMultiManifest, MAX_COMPONENTS,
};

use crate::keys::TrustAnchors;
use crate::verifier::VerifyError;

/// Maximum serialized size of a journal commit record. A full
/// [`SignedMultiManifest`] with [`MAX_COMPONENTS`] entries is 538 bytes;
/// the cap leaves headroom and keeps the marker offsets fixed.
pub const JOURNAL_RECORD_MAX: usize = 1024;

/// Byte offset of the per-component done markers in the journal slot.
pub const JOURNAL_DONE_OFFSET: u32 = JOURNAL_RECORD_MAX as u32;

/// Byte offset of the set-complete marker in the journal slot.
pub const JOURNAL_COMPLETE_OFFSET: u32 = JOURNAL_DONE_OFFSET + MAX_COMPONENTS as u32;

/// Total journal bytes used (slot must be at least this big).
pub const JOURNAL_LEN: u32 = JOURNAL_COMPLETE_OFFSET + 1;

/// One component's slot pair in a multi-component configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentSlots {
    /// The slot the component executes from.
    pub bootable: SlotId,
    /// The inactive slot new versions are staged into.
    pub staging: SlotId,
}

/// One component's update payload: its slot-image header plus firmware.
#[derive(Clone, Debug)]
pub struct ComponentImage {
    /// The per-component signed manifest written to the staging slot's
    /// header (each component slot is a standard single-image slot, so
    /// the bootloader's per-slot verifier applies unchanged).
    pub signed_manifest: SignedManifest,
    /// The component's firmware bytes.
    pub firmware: Vec<u8>,
}

/// Why staging a component set was aborted. The old set remains active in
/// every case: the commit record is only written after staging succeeds.
#[derive(Debug)]
#[non_exhaustive]
pub enum StageError {
    /// Flash failure (a power cut surfaces here as
    /// `LayoutError::Flash(FlashError::PowerLoss)`).
    Layout(LayoutError),
    /// The commit record is structurally invalid (no component table,
    /// validation failure, or it does not fit the journal).
    Record(ManifestError),
    /// The record's component table does not match this device's slot
    /// configuration, or the supplied images do not match the table.
    SetMismatch,
    /// A staged component failed its post-write health check; its staging
    /// slot was erased again (per-module rollback) and nothing was
    /// committed.
    ComponentHealth {
        /// The failing component's identifier.
        component_id: u32,
        /// Why verification failed.
        error: VerifyError,
    },
}

impl core::fmt::Display for StageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Layout(e) => write!(f, "flash error while staging: {e}"),
            Self::Record(e) => write!(f, "invalid commit record: {e}"),
            Self::SetMismatch => f.write_str("component table does not match device slots"),
            Self::ComponentHealth {
                component_id,
                error,
            } => write!(
                f,
                "component {component_id:#x} failed health check: {error}"
            ),
        }
    }
}

impl core::error::Error for StageError {}

impl From<LayoutError> for StageError {
    fn from(e: LayoutError) -> Self {
        Self::Layout(e)
    }
}

/// Reads the commit record from the journal slot.
///
/// Returns `Ok(None)` when no *structurally valid* record is present — an
/// erased journal, a torn record write, or corrupt bytes all look the
/// same: the transaction never committed. Signature verification is the
/// caller's job (it needs the security backend).
pub fn read_journal_record(
    layout: &MemoryLayout,
    journal: SlotId,
) -> Result<Option<SignedMultiManifest>, LayoutError> {
    let mut buf = [0u8; JOURNAL_RECORD_MAX];
    layout.read_slot(journal, 0, &mut buf)?;
    if buf.iter().all(|&b| b == 0xFF) {
        return Ok(None);
    }
    // Trailing erased bytes after the record are ignored by the parser
    // (the component table is count-delimited).
    match SignedMultiManifest::from_bytes(&buf) {
        Ok(record) if record.multi.components.is_some() => Ok(Some(record)),
        // A journal record without a component table has nothing to
        // replay; treat it like a torn record.
        Ok(_) | Err(_) => Ok(None),
    }
}

/// Whether the journal marker byte at `offset` has been programmed.
///
/// Any byte that is no longer fully erased counts as set: markers are
/// written only after the operation they record has completed, so even a
/// torn marker write proves completion.
pub fn journal_marker_set(
    layout: &MemoryLayout,
    journal: SlotId,
    offset: u32,
) -> Result<bool, LayoutError> {
    let mut b = [0u8; 1];
    layout.read_slot(journal, offset, &mut b)?;
    Ok(b[0] != 0xFF)
}

/// Programs the journal marker byte at `offset` (NOR bit-clear; the
/// journal sector is not erased).
pub fn set_journal_marker(
    layout: &mut MemoryLayout,
    journal: SlotId,
    offset: u32,
) -> Result<(), LayoutError> {
    layout.write_slot(journal, offset, &[0x00])
}

/// Verifies a commit record's two signatures through the security
/// backend, over the table-extended signed regions.
pub fn check_record_signatures(
    backend: &dyn SecurityBackend,
    anchors: &TrustAnchors,
    record: &SignedMultiManifest,
) -> Result<(), VerifyError> {
    let vendor_digest = backend.digest(&record.multi.vendor_signed_bytes());
    backend
        .verify(
            anchors.vendor.key_ref(),
            &vendor_digest,
            &record.vendor_signature,
        )
        .map_err(|e| match e {
            SecurityError::BadSignature => VerifyError::VendorSignature,
            other => VerifyError::Backend(other),
        })?;
    let server_digest = backend.digest(&record.multi.server_signed_bytes());
    backend
        .verify(
            anchors.server.key_ref(),
            &server_digest,
            &record.server_signature,
        )
        .map_err(|e| match e {
            SecurityError::BadSignature => VerifyError::ServerSignature,
            other => VerifyError::Backend(other),
        })
}

/// Resolves a table entry to this device's slot pair for that component's
/// bootable slot.
#[must_use]
pub fn slots_for_entry<'a>(
    components: &'a [ComponentSlots],
    entry: &ComponentEntry,
) -> Option<&'a ComponentSlots> {
    components.iter().find(|c| c.bootable.0 == entry.slot)
}
