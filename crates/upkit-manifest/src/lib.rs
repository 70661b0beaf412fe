//! Manifest, device token, and update-image container formats for UpKit.
//!
//! The manifest is the metadata record at the heart of UpKit's security
//! design (Sect. IV-D of the paper). Compared to mcuboot/mcumgr manifests it
//! adds three fields — *ID*, *nonce*, and *old version* — plus a second
//! signature from the update server, which together grant **update
//! freshness** independent of the network path:
//!
//! | field | bytes | grants |
//! |---|---|---|
//! | ID | 4 | binds the image to one device |
//! | nonce | 4 | binds the image to one request |
//! | old version | 2 | differential-update base (0 = full image) |
//! | version | 2 | downgrade protection (must be strictly higher) |
//! | size | 4 | firmware size; bounds reception |
//! | payload size | 4 | bytes on the wire (patch size for deltas) |
//! | digest | 32 | SHA-256 of the firmware; integrity |
//! | link offset | 4 | memory address the image was linked for |
//! | app ID | 4 | application/hardware compatibility |
//!
//! The **vendor server** signs the *core* fields (version, size, digest,
//! link offset, app ID) at generation time; the **update server** signs the
//! *full* manifest — including the device-token fields — per request. Both
//! signatures are ECDSA-P256 over SHA-256 ([`upkit_crypto`]).
//!
//! > Implementation note: `payload size` is not listed in the paper's field
//! > enumeration but is required so the agent FSM knows how many wire bytes
//! > to accept when the payload is a compressed patch rather than the raw
//! > firmware; it is covered by the update-server signature.
//!
//! For interop with IETF SUIT tooling (the paper's future work), [`suit`]
//! converts between this manifest and a SUIT-style CBOR envelope built on
//! the deterministic-CBOR subset in [`cbor`].

#![cfg_attr(not(feature = "std"), no_std)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]
#![warn(
    clippy::std_instead_of_core,
    clippy::std_instead_of_alloc,
    clippy::alloc_instead_of_core
)]

extern crate alloc;

pub mod cbor;
pub mod components;
pub mod suit;

pub use components::{
    server_sign_multi, vendor_sign_multi, ComponentEntry, ComponentTable, MultiManifest,
    SignedMultiManifest, COMPONENT_ENTRY_LEN, COMPONENT_TABLE_MAGIC, MAX_COMPONENTS,
};

use alloc::vec::Vec;

use upkit_crypto::ecdsa::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};
use upkit_crypto::sha256::sha256;

/// A firmware version number.
///
/// The paper uses 16-bit versions; `0` is reserved to mean "no version"
/// (e.g. a device token advertising that differential updates are
/// unsupported).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version(pub u16);

impl core::fmt::Display for Version {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Serialized length of a [`Manifest`].
pub const MANIFEST_LEN: usize = 4 + 4 + 2 + 2 + 4 + 4 + 32 + 4 + 4;

/// Serialized length of a [`SignedManifest`] (manifest + two signatures).
pub const SIGNED_MANIFEST_LEN: usize = MANIFEST_LEN + 2 * SIGNATURE_LEN;

/// Serialized length of a [`DeviceToken`].
pub const DEVICE_TOKEN_LEN: usize = 4 + 4 + 2;

/// Errors from parsing or verifying manifest structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManifestError {
    /// Input shorter than the fixed wire format requires.
    Truncated,
    /// A signature field failed to parse.
    BadSignature,
    /// The payload length disagrees with the manifest's payload size.
    PayloadLengthMismatch,
    /// A component table declared zero entries or more than
    /// [`components::MAX_COMPONENTS`].
    ComponentCountOutOfRange,
    /// Summed component sizes disagree with the manifest's total size.
    ComponentSizeMismatch,
    /// Two component entries claim the same slot or component ID.
    DuplicateComponentSlot,
    /// A component table carried an unknown magic/version prefix.
    BadComponentTable,
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => f.write_str("manifest bytes truncated"),
            Self::BadSignature => f.write_str("manifest signature failed to parse"),
            Self::PayloadLengthMismatch => {
                f.write_str("payload length disagrees with manifest payload size")
            }
            Self::ComponentCountOutOfRange => {
                f.write_str("component table entry count out of range")
            }
            Self::ComponentSizeMismatch => {
                f.write_str("summed component sizes disagree with manifest size")
            }
            Self::DuplicateComponentSlot => {
                f.write_str("component table repeats a slot or component id")
            }
            Self::BadComponentTable => f.write_str("component table magic/version not recognized"),
        }
    }
}

impl core::error::Error for ManifestError {}

/// Splits the next `N` bytes off the front of `bytes`: the one read of the
/// fixed wire formats, which reports a short input as
/// [`ManifestError::Truncated`].
fn take<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], ManifestError> {
    let (head, rest) = bytes
        .split_first_chunk::<N>()
        .ok_or(ManifestError::Truncated)?;
    *bytes = rest;
    Ok(*head)
}

/// The device token: the request-specific structure a device hands to
/// whoever fetches an update on its behalf (Sect. III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceToken {
    /// Unique 32-bit device identifier (e.g. derived from the MAC address).
    pub device_id: u32,
    /// Fresh 32-bit nonce generated by the device for this request.
    pub nonce: u32,
    /// The device's current firmware version, or [`Version`] `0` if the
    /// device does not support differential updates.
    pub current_version: Version,
}

impl DeviceToken {
    /// Serializes to the fixed 10-byte wire format.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; DEVICE_TOKEN_LEN] {
        let mut out = [0u8; DEVICE_TOKEN_LEN];
        out[0..4].copy_from_slice(&self.device_id.to_le_bytes());
        out[4..8].copy_from_slice(&self.nonce.to_le_bytes());
        out[8..10].copy_from_slice(&self.current_version.0.to_le_bytes());
        out
    }

    /// Parses the fixed 10-byte wire format.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, ManifestError> {
        let bytes = &mut bytes;
        Ok(Self {
            device_id: u32::from_le_bytes(take(bytes)?),
            nonce: u32::from_le_bytes(take(bytes)?),
            current_version: Version(u16::from_le_bytes(take(bytes)?)),
        })
    }

    /// Whether the device advertises differential-update support.
    #[must_use]
    pub fn supports_differential(&self) -> bool {
        self.current_version.0 != 0
    }
}

/// The UpKit manifest (Sect. IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Target device's unique identifier (freshness).
    pub device_id: u32,
    /// Request nonce copied from the device token (freshness).
    pub nonce: u32,
    /// Differential-update base version; `0` for full images.
    pub old_version: Version,
    /// Version of the contained firmware (must exceed the installed one).
    pub version: Version,
    /// Size in bytes of the (installed) firmware image.
    pub size: u32,
    /// Size in bytes of the transferred payload (== `size` for full
    /// updates, the compressed-patch length for differential ones).
    pub payload_size: u32,
    /// SHA-256 digest of the firmware image.
    pub digest: [u8; 32],
    /// Memory address the firmware was linked to execute from.
    pub link_offset: u32,
    /// Application/hardware-platform identifier.
    pub app_id: u32,
}

impl Manifest {
    /// Serializes all fields in the fixed wire order.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; MANIFEST_LEN] {
        let mut out = [0u8; MANIFEST_LEN];
        out[0..4].copy_from_slice(&self.device_id.to_le_bytes());
        out[4..8].copy_from_slice(&self.nonce.to_le_bytes());
        out[8..10].copy_from_slice(&self.old_version.0.to_le_bytes());
        out[10..12].copy_from_slice(&self.version.0.to_le_bytes());
        out[12..16].copy_from_slice(&self.size.to_le_bytes());
        out[16..20].copy_from_slice(&self.payload_size.to_le_bytes());
        out[20..52].copy_from_slice(&self.digest);
        out[52..56].copy_from_slice(&self.link_offset.to_le_bytes());
        out[56..60].copy_from_slice(&self.app_id.to_le_bytes());
        out
    }

    /// Parses the fixed wire format.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, ManifestError> {
        let bytes = &mut bytes;
        Ok(Self {
            device_id: u32::from_le_bytes(take(bytes)?),
            nonce: u32::from_le_bytes(take(bytes)?),
            old_version: Version(u16::from_le_bytes(take(bytes)?)),
            version: Version(u16::from_le_bytes(take(bytes)?)),
            size: u32::from_le_bytes(take(bytes)?),
            payload_size: u32::from_le_bytes(take(bytes)?),
            digest: take(bytes)?,
            link_offset: u32::from_le_bytes(take(bytes)?),
            app_id: u32::from_le_bytes(take(bytes)?),
        })
    }

    /// The byte region covered by the **vendor** signature: the
    /// request-independent core (version, size, digest, link offset,
    /// app ID). Signed once at generation time.
    #[must_use]
    pub fn vendor_signed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 4 + 32 + 4 + 4);
        out.extend_from_slice(&self.version.0.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.digest);
        out.extend_from_slice(&self.link_offset.to_le_bytes());
        out.extend_from_slice(&self.app_id.to_le_bytes());
        out
    }

    /// The byte region covered by the **update-server** signature: the full
    /// manifest including the device-token fields. Signed per request.
    #[must_use]
    pub fn server_signed_bytes(&self) -> Vec<u8> {
        self.to_bytes().to_vec()
    }

    /// Whether this manifest describes a differential update.
    #[must_use]
    pub fn is_differential(&self) -> bool {
        self.old_version.0 != 0
    }
}

/// A manifest plus its two signatures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignedManifest {
    /// The signed metadata.
    pub manifest: Manifest,
    /// Vendor-server signature over [`Manifest::vendor_signed_bytes`].
    pub vendor_signature: Signature,
    /// Update-server signature over [`Manifest::server_signed_bytes`].
    pub server_signature: Signature,
}

impl SignedManifest {
    /// Serializes manifest and both signatures.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNED_MANIFEST_LEN] {
        let mut out = [0u8; SIGNED_MANIFEST_LEN];
        out[..MANIFEST_LEN].copy_from_slice(&self.manifest.to_bytes());
        out[MANIFEST_LEN..MANIFEST_LEN + SIGNATURE_LEN]
            .copy_from_slice(&self.vendor_signature.to_bytes());
        out[MANIFEST_LEN + SIGNATURE_LEN..].copy_from_slice(&self.server_signature.to_bytes());
        out
    }

    /// Parses manifest and signatures, rejecting malformed signature
    /// encodings outright (an early, cheap check).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        if bytes.len() < SIGNED_MANIFEST_LEN {
            return Err(ManifestError::Truncated);
        }
        let manifest = Manifest::from_bytes(&bytes[..MANIFEST_LEN])?;
        let vendor_signature =
            Signature::from_bytes(&bytes[MANIFEST_LEN..MANIFEST_LEN + SIGNATURE_LEN])
                .map_err(|_| ManifestError::BadSignature)?;
        let server_signature =
            Signature::from_bytes(&bytes[MANIFEST_LEN + SIGNATURE_LEN..SIGNED_MANIFEST_LEN])
                .map_err(|_| ManifestError::BadSignature)?;
        Ok(Self {
            manifest,
            vendor_signature,
            server_signature,
        })
    }

    /// Convenience: verify both signatures against the given keys.
    /// (The on-device verifier in `upkit-core` goes through the pluggable
    /// security backend instead; this is for server-side checks and tests.)
    pub fn verify_with_keys(
        &self,
        vendor_key: &VerifyingKey,
        server_key: &VerifyingKey,
    ) -> Result<(), upkit_crypto::EcdsaError> {
        vendor_key.verify_prehashed(
            &sha256(&self.manifest.vendor_signed_bytes()),
            &self.vendor_signature,
        )?;
        server_key.verify_prehashed(
            &sha256(&self.manifest.server_signed_bytes()),
            &self.server_signature,
        )
    }
}

/// Signs the vendor-covered core of `manifest`.
#[must_use]
pub fn vendor_sign(manifest: &Manifest, vendor_key: &SigningKey) -> Signature {
    vendor_key.sign_prehashed(&sha256(&manifest.vendor_signed_bytes()))
}

/// Signs the full `manifest` as the update server.
#[must_use]
pub fn server_sign(manifest: &Manifest, server_key: &SigningKey) -> Signature {
    server_key.sign_prehashed(&sha256(&manifest.server_signed_bytes()))
}

/// A complete update image: signed manifest followed by the payload.
///
/// The payload is the raw firmware for full updates or the LZSS-compressed
/// bsdiff patch for differential ones; which one is indicated by
/// `manifest.old_version`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateImage {
    /// The signed manifest.
    pub signed_manifest: SignedManifest,
    /// The wire payload (full image or compressed patch).
    pub payload: Vec<u8>,
}

/// Process-wide count of full [`UpdateImage::to_bytes`] serializations.
///
/// Serializing an update image copies the whole payload; simulation hot
/// paths must account wire bytes via [`UpdateImage::wire_len`] instead.
/// This relaxed counter exists so tests can pin that invariant — see
/// [`image_serializations`].
static IMAGE_SERIALIZATIONS: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);

/// Number of full [`UpdateImage::to_bytes`] serializations this process
/// has performed. Monotone; intended for tests that assert a hot path
/// never serializes (compare before/after deltas, not absolute values).
#[must_use]
pub fn image_serializations() -> u64 {
    IMAGE_SERIALIZATIONS.load(core::sync::atomic::Ordering::Relaxed)
}

impl UpdateImage {
    /// Serializes manifest-first, payload after — the order in which the
    /// propagation phase transmits them.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        IMAGE_SERIALIZATIONS.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        let mut out = Vec::with_capacity(SIGNED_MANIFEST_LEN + self.payload.len());
        out.extend_from_slice(&self.signed_manifest.to_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Length [`Self::to_bytes`] would serialize to, computed without
    /// serializing (the manifest wire format is fixed-size). This is the
    /// wire-byte count campaign accounting uses.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        SIGNED_MANIFEST_LEN + self.payload.len()
    }

    /// Parses an update image, checking the payload length against the
    /// manifest's declared payload size.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ManifestError> {
        let signed_manifest = SignedManifest::from_bytes(bytes)?;
        let payload = bytes[SIGNED_MANIFEST_LEN..].to_vec();
        if !payload_len_matches(payload.len(), signed_manifest.manifest.payload_size) {
            return Err(ManifestError::PayloadLengthMismatch);
        }
        Ok(Self {
            signed_manifest,
            payload,
        })
    }
}

/// Whether an actual payload length equals the declared `payload_size`.
///
/// Compared in `u64`: casting the length down to `u32` would let any
/// payload whose length is congruent to the declared size modulo 2^32
/// (e.g. `size + 4 GiB`) slip through the check.
#[must_use]
pub fn payload_len_matches(actual_len: usize, declared: u32) -> bool {
    actual_len as u64 == u64::from(declared)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn manifest_byte_round_trip() {
        let m = sample_manifest();
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_short_input() {
        assert_eq!(
            Manifest::from_bytes(&[0u8; MANIFEST_LEN - 1]),
            Err(ManifestError::Truncated)
        );
    }

    #[test]
    fn device_token_round_trip() {
        let token = DeviceToken {
            device_id: 42,
            nonce: 777,
            current_version: Version(3),
        };
        assert_eq!(DeviceToken::from_bytes(&token.to_bytes()).unwrap(), token);
        assert!(token.supports_differential());
        let no_diff = DeviceToken {
            current_version: Version(0),
            ..token
        };
        assert!(!no_diff.supports_differential());
    }

    #[test]
    fn vendor_signature_excludes_token_fields() {
        // Two manifests differing only in device-token fields share the
        // vendor-signed region — the property that lets one vendor
        // signature serve every device and request.
        let a = sample_manifest();
        let b = Manifest {
            device_id: 1,
            nonce: 2,
            old_version: Version(1),
            payload_size: 5000,
            ..a
        };
        assert_eq!(a.vendor_signed_bytes(), b.vendor_signed_bytes());
        assert_ne!(a.server_signed_bytes(), b.server_signed_bytes());
    }

    #[test]
    fn signed_manifest_round_trip_and_verify() {
        let mut rng = StdRng::seed_from_u64(51);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let manifest = sample_manifest();
        let signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &vendor),
            server_signature: server_sign(&manifest, &server),
        };
        let parsed = SignedManifest::from_bytes(&signed.to_bytes()).unwrap();
        assert_eq!(parsed, signed);
        parsed
            .verify_with_keys(&vendor.verifying_key(), &server.verifying_key())
            .unwrap();
    }

    #[test]
    fn verify_rejects_swapped_keys() {
        let mut rng = StdRng::seed_from_u64(52);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let manifest = sample_manifest();
        let signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &vendor),
            server_signature: server_sign(&manifest, &server),
        };
        assert!(signed
            .verify_with_keys(&server.verifying_key(), &vendor.verifying_key())
            .is_err());
    }

    #[test]
    fn verify_rejects_field_tampering() {
        let mut rng = StdRng::seed_from_u64(53);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let manifest = sample_manifest();
        let mut signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &vendor),
            server_signature: server_sign(&manifest, &server),
        };
        // Bump the version: both signatures must now fail.
        signed.manifest.version = Version(9);
        assert!(signed
            .verify_with_keys(&vendor.verifying_key(), &server.verifying_key())
            .is_err());
    }

    #[test]
    fn nonce_tampering_defeats_server_signature_only() {
        let mut rng = StdRng::seed_from_u64(54);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let manifest = sample_manifest();
        let mut signed = SignedManifest {
            manifest,
            vendor_signature: vendor_sign(&manifest, &vendor),
            server_signature: server_sign(&manifest, &server),
        };
        signed.manifest.nonce ^= 1;
        // Vendor signature still valid (nonce outside its coverage)…
        vendor
            .verifying_key()
            .verify_prehashed(
                &sha256(&signed.manifest.vendor_signed_bytes()),
                &signed.vendor_signature,
            )
            .unwrap();
        // …but the double signature as a whole fails: freshness holds.
        assert!(signed
            .verify_with_keys(&vendor.verifying_key(), &server.verifying_key())
            .is_err());
    }

    #[test]
    fn signed_manifest_rejects_garbage_signatures() {
        let manifest = sample_manifest();
        let mut bytes = [0u8; SIGNED_MANIFEST_LEN];
        bytes[..MANIFEST_LEN].copy_from_slice(&manifest.to_bytes());
        // All-zero signatures are invalid encodings (r = s = 0).
        assert_eq!(
            SignedManifest::from_bytes(&bytes),
            Err(ManifestError::BadSignature)
        );
    }

    #[test]
    fn update_image_round_trip() {
        let mut rng = StdRng::seed_from_u64(55);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let payload = vec![0x5A; 1000];
        let mut manifest = sample_manifest();
        manifest.size = 1000;
        manifest.payload_size = 1000;
        let image = UpdateImage {
            signed_manifest: SignedManifest {
                manifest,
                vendor_signature: vendor_sign(&manifest, &vendor),
                server_signature: server_sign(&manifest, &server),
            },
            payload,
        };
        assert_eq!(UpdateImage::from_bytes(&image.to_bytes()).unwrap(), image);
    }

    #[test]
    fn update_image_rejects_wrong_payload_length() {
        let mut rng = StdRng::seed_from_u64(56);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let mut manifest = sample_manifest();
        manifest.payload_size = 10;
        let image = UpdateImage {
            signed_manifest: SignedManifest {
                manifest,
                vendor_signature: vendor_sign(&manifest, &vendor),
                server_signature: server_sign(&manifest, &server),
            },
            payload: vec![0; 10],
        };
        let mut bytes = image.to_bytes();
        bytes.push(0xFF); // extra byte
        assert_eq!(
            UpdateImage::from_bytes(&bytes),
            Err(ManifestError::PayloadLengthMismatch)
        );
    }

    #[test]
    fn payload_length_check_does_not_truncate_modulo_2_pow_32() {
        // Regression: the check used to compare `payload.len() as u32`,
        // so a payload of declared_size + 4 GiB passed. Allocating 4 GiB
        // in a unit test is not an option, so exercise the extracted
        // comparison with a mocked length.
        let declared: u32 = 1000;
        assert!(payload_len_matches(1000, declared));
        assert!(!payload_len_matches(1001, declared));
        // Exactly declared + 2^32 bytes: truncates to `declared` in u32.
        let aliased = (1u64 << 32) as usize + 1000;
        assert_eq!(aliased as u32, declared, "test premise: length aliases");
        assert!(!payload_len_matches(aliased, declared));
        // And the degenerate 0-declared case with a 4 GiB payload.
        assert!(!payload_len_matches((1u64 << 32) as usize, 0));
    }

    #[test]
    fn differential_flag_follows_old_version() {
        let mut m = sample_manifest();
        assert!(!m.is_differential());
        m.old_version = Version(1);
        assert!(m.is_differential());
    }
}
