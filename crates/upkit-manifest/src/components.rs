//! Multi-payload manifests: the component table.
//!
//! ROADMAP item 4 (and SUIT's multi-payload envelopes) call for updating a
//! *set* of independently-versioned components — a base OS plus app
//! modules — under one signed manifest. The wire format is strictly
//! additive: a legacy single-payload [`SignedManifest`] is exactly a
//! [`SignedMultiManifest`] with an absent component table, byte for byte,
//! so every deployed decoder keeps working and the signed bytes of legacy
//! manifests never change.
//!
//! Wire layout (little-endian, appended after the two signatures):
//!
//! | field | bytes | |
//! |---|---|---|
//! | magic | 4 | `"UKC1"` — versioned table format |
//! | count | 2 | number of entries (1 ..= [`MAX_COMPONENTS`]) |
//! | entries | 43 × count | dependency order (install order) |
//!
//! Each entry:
//!
//! | field | bytes | |
//! |---|---|---|
//! | component ID | 4 | stable module identifier |
//! | version | 2 | per-component version |
//! | size | 4 | component firmware size in bytes |
//! | digest | 32 | SHA-256 of the component firmware |
//! | slot | 1 | bootable slot index the component runs from |
//!
//! Validation is structural and total: the entry count is bounded, summed
//! component sizes must equal the outer manifest's `size` (checked in
//! `u64`, so a table whose sizes overflow `u32` arithmetic cannot alias a
//! small total), and slot assignments must not collide. Both signatures
//! extend over the table when it is present, so a tampered table defeats
//! acceptance the same way a tampered digest does.

use alloc::vec::Vec;

use upkit_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use upkit_crypto::sha256::sha256;

use crate::{
    take, Manifest, ManifestError, SignedManifest, Version, MANIFEST_LEN, SIGNED_MANIFEST_LEN,
};

/// Serialized length of one [`ComponentEntry`].
pub const COMPONENT_ENTRY_LEN: usize = 4 + 2 + 4 + 32 + 1;

/// Magic prefix of a serialized component table (versioned: bump the
/// trailing digit for incompatible revisions).
pub const COMPONENT_TABLE_MAGIC: [u8; 4] = *b"UKC1";

/// Upper bound on component-table entries. Constrained devices provision a
/// fixed slot pair per component, so the bound is small; it also caps the
/// memory a hostile `count` field can demand before validation.
pub const MAX_COMPONENTS: usize = 8;

/// One component of a multi-payload update set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComponentEntry {
    /// Stable identifier of the module (survives version changes).
    pub component_id: u32,
    /// Version of this component in the set.
    pub version: Version,
    /// Size in bytes of the component's firmware image.
    pub size: u32,
    /// SHA-256 digest of the component's firmware image.
    pub digest: [u8; 32],
    /// Bootable slot index the component executes from.
    pub slot: u8,
}

impl ComponentEntry {
    /// Serializes the fixed 43-byte wire format.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; COMPONENT_ENTRY_LEN] {
        let mut out = [0u8; COMPONENT_ENTRY_LEN];
        out[0..4].copy_from_slice(&self.component_id.to_le_bytes());
        out[4..6].copy_from_slice(&self.version.0.to_le_bytes());
        out[6..10].copy_from_slice(&self.size.to_le_bytes());
        out[10..42].copy_from_slice(&self.digest);
        out[42] = self.slot;
        out
    }

    /// Parses the fixed 43-byte wire format.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, ManifestError> {
        let bytes = &mut bytes;
        Ok(Self {
            component_id: u32::from_le_bytes(take(bytes)?),
            version: Version(u16::from_le_bytes(take(bytes)?)),
            size: u32::from_le_bytes(take(bytes)?),
            digest: take(bytes)?,
            slot: u8::from_le_bytes(take(bytes)?),
        })
    }
}

/// A validated, dependency-ordered component table.
///
/// Construction validates; a value of this type always satisfies the
/// structural invariants (bounded count, no slot collisions). The
/// size-sum-vs-total check needs the outer manifest and runs in
/// [`MultiManifest::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentTable {
    entries: Vec<ComponentEntry>,
}

impl ComponentTable {
    /// Builds a table from entries in dependency order (the order in which
    /// components must be committed; a component must precede anything
    /// that depends on it).
    pub fn new(entries: Vec<ComponentEntry>) -> Result<Self, ManifestError> {
        if entries.is_empty() || entries.len() > MAX_COMPONENTS {
            return Err(ManifestError::ComponentCountOutOfRange);
        }
        // O(n²) over ≤ 8 entries beats allocating a set in no_std.
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[..i] {
                if a.slot == b.slot {
                    return Err(ManifestError::DuplicateComponentSlot);
                }
                if a.component_id == b.component_id {
                    return Err(ManifestError::DuplicateComponentSlot);
                }
            }
        }
        Ok(Self { entries })
    }

    /// The entries, in dependency (install) order.
    #[must_use]
    pub fn entries(&self) -> &[ComponentEntry] {
        &self.entries
    }

    /// Number of components in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: an empty table cannot be constructed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed component sizes in `u64` (cannot overflow: ≤ 8 × `u32::MAX`).
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.size)).sum()
    }

    /// Serialized length of this table on the wire.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        4 + 2 + self.entries.len() * COMPONENT_ENTRY_LEN
    }

    /// Serializes magic, count, and entries.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&COMPONENT_TABLE_MAGIC);
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        for entry in &self.entries {
            out.extend_from_slice(&entry.to_bytes());
        }
        out
    }

    /// Parses and validates a serialized table. The declared count is
    /// bounds-checked *before* any allocation, so a count bomb cannot
    /// demand memory.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        let Some(&[m0, m1, m2, m3, c0, c1]) = bytes.first_chunk::<6>() else {
            return Err(ManifestError::Truncated);
        };
        if [m0, m1, m2, m3] != COMPONENT_TABLE_MAGIC {
            return Err(ManifestError::BadComponentTable);
        }
        let count = u16::from_le_bytes([c0, c1]) as usize;
        if count == 0 || count > MAX_COMPONENTS {
            return Err(ManifestError::ComponentCountOutOfRange);
        }
        let need = 6 + count * COMPONENT_ENTRY_LEN;
        if bytes.len() < need {
            return Err(ManifestError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = 6 + i * COMPONENT_ENTRY_LEN;
            entries.push(ComponentEntry::from_bytes(
                &bytes[at..at + COMPONENT_ENTRY_LEN],
            )?);
        }
        Self::new(entries)
    }

    /// SHA-256 over the serialized table: the *component set digest* the
    /// transactional installer journals in its commit record. Two sets
    /// agree on this digest iff they agree on every component's identity,
    /// version, size, digest, slot, and order.
    #[must_use]
    pub fn set_digest(&self) -> [u8; 32] {
        sha256(&self.to_bytes())
    }
}

/// A manifest plus an optional component table.
///
/// `components: None` is the legacy single-payload form; its wire bytes —
/// signed and unsigned — are byte-identical to a plain [`Manifest`] /
/// [`SignedManifest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiManifest {
    /// The outer manifest. For multi-payload sets, `size` is the summed
    /// component sizes and `digest` covers the concatenated component
    /// images in table order.
    pub manifest: Manifest,
    /// The component table, absent for legacy single-payload updates.
    pub components: Option<ComponentTable>,
}

impl MultiManifest {
    /// Wraps a legacy single-payload manifest (no component table).
    #[must_use]
    pub fn legacy(manifest: Manifest) -> Self {
        Self {
            manifest,
            components: None,
        }
    }

    /// Cross-field validation: with a table present, summed component
    /// sizes must equal the declared total (compared in `u64` so the sum
    /// cannot alias a small total modulo 2^32).
    pub fn validate(&self) -> Result<(), ManifestError> {
        if let Some(table) = &self.components {
            if table.total_size() != u64::from(self.manifest.size) {
                return Err(ManifestError::ComponentSizeMismatch);
            }
        }
        Ok(())
    }

    /// The component set this manifest describes. Legacy manifests yield a
    /// synthesized single entry carrying the outer manifest's version,
    /// size, and digest (slot 0 by convention: the only bootable slot a
    /// single-payload device has).
    #[must_use]
    pub fn component_set(&self) -> Vec<ComponentEntry> {
        match &self.components {
            Some(table) => table.entries().to_vec(),
            None => alloc::vec![ComponentEntry {
                component_id: self.manifest.app_id,
                version: self.manifest.version,
                size: self.manifest.size,
                digest: self.manifest.digest,
                slot: 0,
            }],
        }
    }

    /// Serializes: legacy manifest bytes, then the table when present.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MANIFEST_LEN + self.components.as_ref().map_or(0, ComponentTable::wire_len),
        );
        out.extend_from_slice(&self.manifest.to_bytes());
        if let Some(table) = &self.components {
            out.extend_from_slice(&table.to_bytes());
        }
        out
    }

    /// Parses manifest-then-optional-table and runs [`Self::validate`].
    /// Exactly [`MANIFEST_LEN`] bytes decode as a legacy manifest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        let manifest = Manifest::from_bytes(bytes)?;
        let components = if bytes.len() > MANIFEST_LEN {
            Some(ComponentTable::from_bytes(&bytes[MANIFEST_LEN..])?)
        } else {
            None
        };
        let multi = Self {
            manifest,
            components,
        };
        multi.validate()?;
        Ok(multi)
    }

    /// Vendor-signed region: the legacy core fields, extended by the
    /// serialized table when present. Byte-identical to
    /// [`Manifest::vendor_signed_bytes`] for legacy manifests.
    #[must_use]
    pub fn vendor_signed_bytes(&self) -> Vec<u8> {
        let mut out = self.manifest.vendor_signed_bytes();
        if let Some(table) = &self.components {
            out.extend_from_slice(&table.to_bytes());
        }
        out
    }

    /// Server-signed region: the full manifest, extended by the serialized
    /// table when present. Byte-identical to
    /// [`Manifest::server_signed_bytes`] for legacy manifests.
    #[must_use]
    pub fn server_signed_bytes(&self) -> Vec<u8> {
        let mut out = self.manifest.server_signed_bytes();
        if let Some(table) = &self.components {
            out.extend_from_slice(&table.to_bytes());
        }
        out
    }
}

/// A multi-payload manifest plus its two signatures.
///
/// Wire layout keeps the table *after* both signatures —
/// `manifest ‖ vendor sig ‖ server sig ‖ [table]` — so the first
/// [`SIGNED_MANIFEST_LEN`] bytes of any value are a decodable legacy
/// [`SignedManifest`], and a legacy value (no table) round-trips through
/// this type without a single byte changing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedMultiManifest {
    /// The signed metadata, component table included.
    pub multi: MultiManifest,
    /// Vendor signature over [`MultiManifest::vendor_signed_bytes`].
    pub vendor_signature: Signature,
    /// Server signature over [`MultiManifest::server_signed_bytes`].
    pub server_signature: Signature,
}

impl SignedMultiManifest {
    /// Total serialized length.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        SIGNED_MANIFEST_LEN
            + self
                .multi
                .components
                .as_ref()
                .map_or(0, ComponentTable::wire_len)
    }

    /// Serializes manifest, both signatures, then the table when present.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.multi.manifest.to_bytes());
        out.extend_from_slice(&self.vendor_signature.to_bytes());
        out.extend_from_slice(&self.server_signature.to_bytes());
        if let Some(table) = &self.multi.components {
            out.extend_from_slice(&table.to_bytes());
        }
        out
    }

    /// Parses and validates. Exactly [`SIGNED_MANIFEST_LEN`] bytes decode
    /// as a legacy signed manifest with no table.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        let legacy = SignedManifest::from_bytes(bytes)?;
        let components = if bytes.len() > SIGNED_MANIFEST_LEN {
            Some(ComponentTable::from_bytes(&bytes[SIGNED_MANIFEST_LEN..])?)
        } else {
            None
        };
        let multi = MultiManifest {
            manifest: legacy.manifest,
            components,
        };
        multi.validate()?;
        Ok(Self {
            multi,
            vendor_signature: legacy.vendor_signature,
            server_signature: legacy.server_signature,
        })
    }

    /// The legacy view: manifest plus signatures, table dropped. Only
    /// meaningful for values without a table (where it is the identity on
    /// wire bytes); with a table the signatures cover more than the legacy
    /// region and will not verify against legacy signed bytes.
    #[must_use]
    pub fn legacy_view(&self) -> SignedManifest {
        SignedManifest {
            manifest: self.multi.manifest,
            vendor_signature: self.vendor_signature,
            server_signature: self.server_signature,
        }
    }

    /// Verifies both signatures over the table-extended regions.
    pub fn verify_with_keys(
        &self,
        vendor_key: &VerifyingKey,
        server_key: &VerifyingKey,
    ) -> Result<(), upkit_crypto::EcdsaError> {
        vendor_key.verify_prehashed(
            &sha256(&self.multi.vendor_signed_bytes()),
            &self.vendor_signature,
        )?;
        server_key.verify_prehashed(
            &sha256(&self.multi.server_signed_bytes()),
            &self.server_signature,
        )
    }
}

/// Signs the vendor-covered region of a multi-payload manifest.
#[must_use]
pub fn vendor_sign_multi(multi: &MultiManifest, vendor_key: &SigningKey) -> Signature {
    vendor_key.sign_prehashed(&sha256(&multi.vendor_signed_bytes()))
}

/// Signs the full multi-payload manifest as the update server.
#[must_use]
pub fn server_sign_multi(multi: &MultiManifest, server_key: &SigningKey) -> Signature {
    server_key.sign_prehashed(&sha256(&multi.server_signed_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{server_sign, vendor_sign};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_manifest() -> Manifest {
        Manifest {
            device_id: 0xDEAD_BEEF,
            nonce: 0x1234_5678,
            old_version: Version(0),
            version: Version(2),
            size: 100_000,
            payload_size: 100_000,
            digest: sha256(b"firmware contents"),
            link_offset: 0x0800_0000,
            app_id: 0xCAFE_0001,
        }
    }

    fn entry(id: u32, slot: u8, size: u32) -> ComponentEntry {
        ComponentEntry {
            component_id: id,
            version: Version(2),
            size,
            digest: sha256(&id.to_le_bytes()),
            slot,
        }
    }

    fn sample_multi() -> MultiManifest {
        let table = ComponentTable::new(alloc::vec![
            entry(1, 0, 4000),
            entry(2, 2, 2500),
            entry(3, 4, 1500),
        ])
        .unwrap();
        let mut manifest = sample_manifest();
        manifest.size = 8000;
        manifest.payload_size = 8000;
        MultiManifest {
            manifest,
            components: Some(table),
        }
    }

    #[test]
    fn multi_manifest_round_trip() {
        let multi = sample_multi();
        assert_eq!(MultiManifest::from_bytes(&multi.to_bytes()).unwrap(), multi);
    }

    #[test]
    fn legacy_wire_bytes_are_identical() {
        // The backward-compat pin: a table-less MultiManifest serializes to
        // exactly the legacy Manifest bytes, and the signed form to exactly
        // the legacy SignedManifest bytes — same signatures, same regions.
        let mut rng = StdRng::seed_from_u64(61);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let manifest = sample_manifest();
        let multi = MultiManifest::legacy(manifest);
        assert_eq!(multi.to_bytes(), manifest.to_bytes().to_vec());
        assert_eq!(multi.vendor_signed_bytes(), manifest.vendor_signed_bytes());
        assert_eq!(multi.server_signed_bytes(), manifest.server_signed_bytes());

        let signed_legacy = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &vendor),
            server_signature: server_sign(&manifest, &server),
        };
        let signed_multi = SignedMultiManifest {
            multi: multi.clone(),
            vendor_signature: vendor_sign_multi(&multi, &vendor),
            server_signature: server_sign_multi(&multi, &server),
        };
        assert_eq!(signed_multi.to_bytes(), signed_legacy.to_bytes().to_vec());
        assert_eq!(signed_multi.legacy_view(), signed_legacy);

        // And the legacy bytes parse back into a 1-component set.
        let parsed = SignedMultiManifest::from_bytes(&signed_legacy.to_bytes()).unwrap();
        assert!(parsed.multi.components.is_none());
        let set = parsed.multi.component_set();
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].version, manifest.version);
        assert_eq!(set[0].digest, manifest.digest);
        assert_eq!(set[0].size, manifest.size);
    }

    #[test]
    fn signed_multi_round_trip_and_verify() {
        let mut rng = StdRng::seed_from_u64(62);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let multi = sample_multi();
        let signed = SignedMultiManifest {
            vendor_signature: vendor_sign_multi(&multi, &vendor),
            server_signature: server_sign_multi(&multi, &server),
            multi,
        };
        let parsed = SignedMultiManifest::from_bytes(&signed.to_bytes()).unwrap();
        assert_eq!(parsed, signed);
        parsed
            .verify_with_keys(&vendor.verifying_key(), &server.verifying_key())
            .unwrap();
    }

    #[test]
    fn table_tampering_defeats_both_signatures() {
        let mut rng = StdRng::seed_from_u64(63);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let multi = sample_multi();
        let signed = SignedMultiManifest {
            vendor_signature: vendor_sign_multi(&multi, &vendor),
            server_signature: server_sign_multi(&multi, &server),
            multi,
        };
        let mut bytes = signed.to_bytes();
        // Flip a bit in the first component's digest, keeping the outer
        // manifest (and its digest field) untouched.
        let at = SIGNED_MANIFEST_LEN + 6 + 10;
        bytes[at] ^= 0x01;
        let parsed = SignedMultiManifest::from_bytes(&bytes).unwrap();
        assert!(parsed
            .verify_with_keys(&vendor.verifying_key(), &server.verifying_key())
            .is_err());
    }

    #[test]
    fn rejects_structural_attacks() {
        // Count bomb: a huge declared count is rejected before allocation.
        let multi = sample_multi();
        let mut bytes = multi.to_bytes();
        bytes[MANIFEST_LEN + 4..MANIFEST_LEN + 6].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(
            MultiManifest::from_bytes(&bytes),
            Err(ManifestError::ComponentCountOutOfRange)
        );

        // Zero count.
        let mut bytes = multi.to_bytes();
        bytes[MANIFEST_LEN + 4..MANIFEST_LEN + 6].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            MultiManifest::from_bytes(&bytes),
            Err(ManifestError::ComponentCountOutOfRange)
        );

        // Truncated table: drop the last entry's final byte.
        let mut bytes = multi.to_bytes();
        bytes.pop();
        assert_eq!(
            MultiManifest::from_bytes(&bytes),
            Err(ManifestError::Truncated)
        );

        // Bad magic.
        let mut bytes = multi.to_bytes();
        bytes[MANIFEST_LEN] = b'X';
        assert_eq!(
            MultiManifest::from_bytes(&bytes),
            Err(ManifestError::BadComponentTable)
        );

        // Duplicate slots.
        assert_eq!(
            ComponentTable::new(alloc::vec![entry(1, 0, 100), entry(2, 0, 100)]),
            Err(ManifestError::DuplicateComponentSlot)
        );
        // Duplicate component IDs.
        assert_eq!(
            ComponentTable::new(alloc::vec![entry(1, 0, 100), entry(1, 2, 100)]),
            Err(ManifestError::DuplicateComponentSlot)
        );
    }

    #[test]
    fn set_digest_tracks_every_field_and_order() {
        let a = ComponentTable::new(alloc::vec![entry(1, 0, 100), entry(2, 2, 100)]).unwrap();
        let b = ComponentTable::new(alloc::vec![entry(2, 2, 100), entry(1, 0, 100)]).unwrap();
        assert_ne!(a.set_digest(), b.set_digest(), "order matters");
        let mut bumped = a.entries().to_vec();
        bumped[0].version = Version(3);
        let c = ComponentTable::new(bumped).unwrap();
        assert_ne!(a.set_digest(), c.set_digest(), "version matters");
    }

    proptest! {
        #[test]
        fn multi_encoding_round_trips(
            seed in 0u64..1000,
            count in 1usize..=MAX_COMPONENTS,
        ) {
            let mut entries = Vec::with_capacity(count);
            let mut total: u64 = 0;
            for i in 0..count {
                let size = 512 + ((seed as u32).wrapping_mul(31).wrapping_add(i as u32 * 97) % 9000);
                total += u64::from(size);
                entries.push(ComponentEntry {
                    component_id: 0x10 + i as u32,
                    version: Version(2 + (seed % 7) as u16),
                    size,
                    digest: sha256(&[i as u8, seed as u8]),
                    slot: (i * 2) as u8,
                });
            }
            let table = ComponentTable::new(entries).unwrap();
            let mut manifest = sample_manifest();
            manifest.size = u32::try_from(total).unwrap();
            manifest.payload_size = manifest.size;
            let multi = MultiManifest { manifest, components: Some(table) };
            let bytes = multi.to_bytes();
            prop_assert_eq!(MultiManifest::from_bytes(&bytes).unwrap(), multi);
        }

        #[test]
        fn rejects_summed_size_disagreement(
            declared in 0u32..100_000,
            skew in 1u32..50_000,
        ) {
            // Two components whose sizes sum to declared + skew must be
            // rejected against a manifest declaring `declared` — including
            // when the true sum exceeds u32 range entirely.
            let half = declared / 2;
            let table = ComponentTable::new(alloc::vec![
                entry(1, 0, half),
                entry(2, 2, declared - half + skew),
            ]).unwrap();
            let mut manifest = sample_manifest();
            manifest.size = declared;
            let multi = MultiManifest { manifest, components: Some(table) };
            prop_assert_eq!(multi.validate(), Err(ManifestError::ComponentSizeMismatch));
            prop_assert_eq!(
                MultiManifest::from_bytes(&multi.to_bytes()),
                Err(ManifestError::ComponentSizeMismatch)
            );

            // u64 check: sizes summing past 2^32 cannot alias a small total.
            let table = ComponentTable::new(alloc::vec![
                entry(1, 0, u32::MAX),
                entry(2, 2, declared.wrapping_add(1)),
            ]).unwrap();
            let mut manifest = sample_manifest();
            manifest.size = declared;
            let multi = MultiManifest { manifest, components: Some(table) };
            prop_assert_eq!(multi.validate(), Err(ManifestError::ComponentSizeMismatch));
        }
    }
}
