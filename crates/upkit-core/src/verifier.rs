//! The verifier module shared by update agent and bootloader.
//!
//! UpKit's double-verification design (Sect. IV-D) runs the *same* verifier
//! in two places: the update agent checks a manifest the moment it arrives
//! (early rejection, before any firmware bytes are transferred) and again
//! after the firmware lands in flash; the bootloader re-checks everything
//! after reboot, because the agent's checks cannot rule out a power cut or
//! partial write between verification and boot. Sharing one module — and
//! one crypto library — between the two is what keeps UpKit's footprint
//! below mcuboot-style stacks.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::vec::Vec;

use upkit_crypto::backend::{KeyRef, SecurityBackend, SecurityError};
use upkit_crypto::sha256::Sha256;
use upkit_manifest::{Manifest, SignedManifest, Version};

use crate::keys::TrustAnchors;

/// Everything the verifier must know about the device and request to judge
/// a manifest.
#[derive(Clone, Debug)]
pub struct VerifyContext {
    /// This device's unique identifier.
    pub device_id: u32,
    /// The nonce issued in the device token, when verifying inside the
    /// update agent. The bootloader passes `None`: after a reboot the
    /// request context is gone, and freshness was already enforced by the
    /// agent (the paper's bootloader checks field validity, signatures, and
    /// digest).
    pub expected_nonce: Option<u32>,
    /// Version currently installed (new image must be strictly newer).
    pub installed_version: Version,
    /// Whether this device supports differential updates.
    pub supports_differential: bool,
    /// The application/hardware identifier this device runs.
    pub app_id: u32,
    /// Link offsets acceptable for the slot the image targets.
    pub allowed_link_offsets: Vec<u32>,
    /// Maximum firmware size that fits the target slot.
    pub max_size: u32,
}

/// Reasons a manifest or firmware image is rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Manifest device ID differs from this device's.
    WrongDevice,
    /// Manifest nonce differs from the issued device token's.
    WrongNonce,
    /// Manifest version is not strictly newer than the installed one.
    StaleVersion,
    /// Differential update whose base is not the installed version.
    WrongOldVersion,
    /// Differential update offered to a device that cannot apply one.
    DifferentialUnsupported,
    /// Firmware size is zero or exceeds the slot capacity.
    BadSize,
    /// Payload size is inconsistent with the update type.
    BadPayloadSize,
    /// Application/hardware identifier mismatch.
    WrongAppId,
    /// Link offset not valid for the target slot.
    WrongLinkOffset,
    /// The vendor signature failed.
    VendorSignature,
    /// The update-server signature failed (freshness violation).
    ServerSignature,
    /// The firmware digest does not match the manifest.
    DigestMismatch,
    /// The security backend failed (bad key reference, locked HSM, …).
    Backend(SecurityError),
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WrongDevice => f.write_str("manifest targets a different device"),
            Self::WrongNonce => f.write_str("manifest nonce does not match the device token"),
            Self::StaleVersion => f.write_str("manifest version is not newer than installed"),
            Self::WrongOldVersion => f.write_str("differential base is not the installed version"),
            Self::DifferentialUnsupported => {
                f.write_str("differential update offered to non-supporting device")
            }
            Self::BadSize => f.write_str("firmware size invalid for the target slot"),
            Self::BadPayloadSize => f.write_str("payload size inconsistent with update type"),
            Self::WrongAppId => f.write_str("application/hardware identifier mismatch"),
            Self::WrongLinkOffset => f.write_str("link offset invalid for the target slot"),
            Self::VendorSignature => f.write_str("vendor signature verification failed"),
            Self::ServerSignature => f.write_str("update-server signature verification failed"),
            Self::DigestMismatch => f.write_str("firmware digest mismatch"),
            Self::Backend(e) => write!(f, "security backend error: {e}"),
        }
    }
}

impl core::error::Error for VerifyError {}

impl From<SecurityError> for VerifyError {
    fn from(e: SecurityError) -> Self {
        match e {
            SecurityError::BadSignature => Self::VendorSignature,
            other => Self::Backend(other),
        }
    }
}

/// The verifier: field validation plus double-signature checking.
pub struct Verifier<'a> {
    backend: &'a dyn SecurityBackend,
    /// The key the vendor signature is checked against.
    vendor: KeyRef<'a>,
    /// The key the update-server signature is checked against.
    server: KeyRef<'a>,
}

impl core::fmt::Debug for Verifier<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Verifier")
            .field("backend", &self.backend.profile().name)
            .finish_non_exhaustive()
    }
}

impl<'a> Verifier<'a> {
    /// Creates a verifier over the given backend and trust anchors.
    #[must_use]
    pub fn new(backend: &'a dyn SecurityBackend, anchors: &'a TrustAnchors) -> Self {
        Self::with_keys(backend, anchors.vendor.key_ref(), anchors.server.key_ref())
    }

    /// Creates a verifier over the given backend and the vendor and
    /// update-server keys, such as two prepared keys
    /// ([`KeyRef::Prepared`]) that many devices share.
    #[must_use]
    pub fn with_keys(
        backend: &'a dyn SecurityBackend,
        vendor: KeyRef<'a>,
        server: KeyRef<'a>,
    ) -> Self {
        Self {
            backend,
            vendor,
            server,
        }
    }

    /// Full manifest verification: field checks first (cheap), signatures
    /// second (expensive) — the order that lets invalid manifests be
    /// dropped with minimal energy cost.
    pub fn verify_manifest(
        &self,
        signed: &SignedManifest,
        ctx: &VerifyContext,
    ) -> Result<(), VerifyError> {
        self.check_fields(&signed.manifest, ctx)?;
        self.check_signatures(signed)
    }

    /// The pure field checks (no cryptography).
    pub fn check_fields(&self, m: &Manifest, ctx: &VerifyContext) -> Result<(), VerifyError> {
        if m.device_id != ctx.device_id {
            return Err(VerifyError::WrongDevice);
        }
        if let Some(nonce) = ctx.expected_nonce {
            if m.nonce != nonce {
                return Err(VerifyError::WrongNonce);
            }
        }
        if m.version <= ctx.installed_version {
            return Err(VerifyError::StaleVersion);
        }
        if m.is_differential() {
            if !ctx.supports_differential {
                return Err(VerifyError::DifferentialUnsupported);
            }
            if m.old_version != ctx.installed_version {
                return Err(VerifyError::WrongOldVersion);
            }
        } else if m.payload_size != m.size {
            return Err(VerifyError::BadPayloadSize);
        }
        if m.size == 0 || m.size > ctx.max_size {
            return Err(VerifyError::BadSize);
        }
        if m.payload_size == 0 {
            return Err(VerifyError::BadPayloadSize);
        }
        if m.app_id != ctx.app_id {
            return Err(VerifyError::WrongAppId);
        }
        if !ctx.allowed_link_offsets.contains(&m.link_offset) {
            return Err(VerifyError::WrongLinkOffset);
        }
        Ok(())
    }

    /// The double-signature check: vendor over the manifest core, update
    /// server over the full manifest.
    pub fn check_signatures(&self, signed: &SignedManifest) -> Result<(), VerifyError> {
        let vendor_digest = self.backend.digest(&signed.manifest.vendor_signed_bytes());
        self.backend
            .verify(self.vendor, &vendor_digest, &signed.vendor_signature)
            .map_err(|e| match e {
                SecurityError::BadSignature => VerifyError::VendorSignature,
                other => VerifyError::Backend(other),
            })?;

        let server_digest = self.backend.digest(&signed.manifest.server_signed_bytes());
        self.backend
            .verify(self.server, &server_digest, &signed.server_signature)
            .map_err(|e| match e {
                SecurityError::BadSignature => VerifyError::ServerSignature,
                other => VerifyError::Backend(other),
            })
    }

    /// Compares a firmware digest computed elsewhere with the manifest's.
    pub fn verify_firmware_digest(
        &self,
        manifest: &Manifest,
        computed: &[u8; 32],
    ) -> Result<(), VerifyError> {
        if &manifest.digest == computed {
            Ok(())
        } else {
            Err(VerifyError::DigestMismatch)
        }
    }
}

/// Incrementally digests firmware read back from a slot in sector-sized
/// chunks (both agent and bootloader verify firmware this way).
#[derive(Debug, Default)]
pub struct FirmwareDigester {
    hasher: Sha256,
    fed: u64,
}

impl FirmwareDigester {
    /// Creates an empty digester.
    #[must_use]
    pub fn new() -> Self {
        Self {
            hasher: Sha256::new(),
            fed: 0,
        }
    }

    /// Absorbs the next chunk of firmware.
    pub fn update(&mut self, chunk: &[u8]) {
        self.hasher.update(chunk);
        self.fed += chunk.len() as u64;
    }

    /// Bytes absorbed so far.
    #[must_use]
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Finalizes the digest.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        self.hasher.finalize()
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
    use upkit_manifest::{server_sign, vendor_sign};

    struct Fixture {
        vendor: SigningKey,
        server: SigningKey,
        anchors: TrustAnchors,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = SigningKey::generate(&mut rng);
        let server = SigningKey::generate(&mut rng);
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
        Fixture {
            vendor,
            server,
            anchors,
        }
    }

    fn manifest() -> Manifest {
        Manifest {
            device_id: 7,
            nonce: 1000,
            old_version: Version(0),
            version: Version(2),
            size: 4096,
            payload_size: 4096,
            digest: sha256(b"fw"),
            link_offset: 0x100,
            app_id: 0xA,
        }
    }

    fn ctx() -> VerifyContext {
        VerifyContext {
            device_id: 7,
            expected_nonce: Some(1000),
            installed_version: Version(1),
            supports_differential: true,
            app_id: 0xA,
            allowed_link_offsets: vec![0x100, 0x200],
            max_size: 100_000,
        }
    }

    fn signed(fix: &Fixture, m: Manifest) -> SignedManifest {
        SignedManifest {
            manifest: m,
            vendor_signature: vendor_sign(&m, &fix.vendor),
            server_signature: server_sign(&m, &fix.server),
        }
    }

    #[test]
    fn valid_manifest_passes() {
        let fix = fixture(70);
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        verifier
            .verify_manifest(&signed(&fix, manifest()), &ctx())
            .unwrap();
    }

    #[test]
    fn field_checks_reject_each_violation() {
        let fix = fixture(71);
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let base = manifest();
        let cases: Vec<(Manifest, VerifyError)> = vec![
            (
                Manifest {
                    device_id: 8,
                    ..base
                },
                VerifyError::WrongDevice,
            ),
            (Manifest { nonce: 1, ..base }, VerifyError::WrongNonce),
            (
                Manifest {
                    version: Version(1),
                    ..base
                },
                VerifyError::StaleVersion,
            ),
            (
                Manifest {
                    version: Version(0),
                    ..base
                },
                VerifyError::StaleVersion,
            ),
            (
                Manifest {
                    old_version: Version(2),
                    version: Version(3),
                    ..base
                },
                VerifyError::WrongOldVersion,
            ),
            (
                Manifest {
                    size: 0,
                    payload_size: 0,
                    ..base
                },
                VerifyError::BadSize,
            ),
            (
                Manifest {
                    size: 200_000,
                    payload_size: 200_000,
                    ..base
                },
                VerifyError::BadSize,
            ),
            (
                Manifest {
                    payload_size: 100,
                    ..base
                },
                VerifyError::BadPayloadSize,
            ),
            (
                Manifest {
                    app_id: 0xB,
                    ..base
                },
                VerifyError::WrongAppId,
            ),
            (
                Manifest {
                    link_offset: 0x300,
                    ..base
                },
                VerifyError::WrongLinkOffset,
            ),
        ];
        for (m, expected) in cases {
            assert_eq!(
                verifier.check_fields(&m, &ctx()),
                Err(expected),
                "manifest {m:?}"
            );
        }
    }

    #[test]
    fn differential_rejected_when_unsupported() {
        let fix = fixture(72);
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let m = Manifest {
            old_version: Version(1),
            payload_size: 100,
            ..manifest()
        };
        let mut context = ctx();
        context.supports_differential = false;
        assert_eq!(
            verifier.check_fields(&m, &context),
            Err(VerifyError::DifferentialUnsupported)
        );
        // Supported: same manifest passes field checks.
        context.supports_differential = true;
        verifier.check_fields(&m, &context).unwrap();
    }

    #[test]
    fn bootloader_context_skips_nonce() {
        let fix = fixture(73);
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let mut context = ctx();
        context.expected_nonce = None;
        let m = Manifest {
            nonce: 999_999,
            ..manifest()
        };
        verifier
            .verify_manifest(&signed(&fix, m), &context)
            .unwrap();
    }

    #[test]
    fn forged_vendor_signature_rejected() {
        let fix = fixture(74);
        let attacker = SigningKey::generate(&mut StdRng::seed_from_u64(999));
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let m = manifest();
        let forged = SignedManifest {
            manifest: m,
            vendor_signature: vendor_sign(&m, &attacker),
            server_signature: server_sign(&m, &fix.server),
        };
        assert_eq!(
            verifier.verify_manifest(&forged, &ctx()),
            Err(VerifyError::VendorSignature)
        );
    }

    #[test]
    fn forged_server_signature_rejected() {
        let fix = fixture(75);
        let attacker = SigningKey::generate(&mut StdRng::seed_from_u64(998));
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let m = manifest();
        let forged = SignedManifest {
            manifest: m,
            vendor_signature: vendor_sign(&m, &fix.vendor),
            server_signature: server_sign(&m, &attacker),
        };
        assert_eq!(
            verifier.verify_manifest(&forged, &ctx()),
            Err(VerifyError::ServerSignature)
        );
    }

    #[test]
    fn replayed_manifest_with_old_nonce_rejected() {
        // The replay scenario the double signature exists to stop: an
        // attacker re-sends a previously valid signed manifest; the nonce
        // no longer matches the fresh device token.
        let fix = fixture(76);
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let replayed = signed(&fix, manifest()); // nonce 1000
        let mut fresh_ctx = ctx();
        fresh_ctx.expected_nonce = Some(2000);
        assert_eq!(
            verifier.verify_manifest(&replayed, &fresh_ctx),
            Err(VerifyError::WrongNonce)
        );
    }

    #[test]
    fn firmware_digest_comparison() {
        let fix = fixture(77);
        let backend = TinyCryptBackend;
        let verifier = Verifier::new(&backend, &fix.anchors);
        let m = manifest();
        verifier.verify_firmware_digest(&m, &sha256(b"fw")).unwrap();
        assert_eq!(
            verifier.verify_firmware_digest(&m, &sha256(b"tampered")),
            Err(VerifyError::DigestMismatch)
        );
    }

    #[test]
    fn digester_matches_one_shot() {
        let data = vec![7u8; 10_000];
        let mut digester = FirmwareDigester::new();
        for chunk in data.chunks(4096) {
            digester.update(chunk);
        }
        assert_eq!(digester.fed(), 10_000);
        assert_eq!(digester.finalize(), sha256(&data));
    }
}
