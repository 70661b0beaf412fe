//! The *security interface*: UpKit's abstraction over heterogeneous
//! cryptographic implementations.
//!
//! The paper's design (Fig. 3) separates common modules from
//! platform-specific ones through four interfaces; the security interface is
//! the one that lets the verifier module run unchanged over TinyDTLS,
//! tinycrypt, or the CryptoAuthLib + ATECC508 hardware security module. This
//! module defines the [`SecurityBackend`] trait and the two software
//! backends; the simulated HSM lives in [`crate::hsm`].
//!
//! Both software backends execute the same (real) ECDSA math from
//! [`crate::ecdsa`]; what differs is their *profile* — modeled code size and
//! cycle counts calibrated to the libraries the paper measured — which the
//! simulator and footprint model consume.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::ecdsa::{EcdsaError, PreparedVerifyingKey, Signature, VerifyingKey};
use crate::sha256::sha256;

/// Identifies a public key for a verification request.
///
/// Software backends understand inline keys: SEC1 bytes, parsed on every
/// request, or a [`PreparedVerifyingKey`], whose comb table makes each
/// check run 43 doublings instead of 257. Preparing costs about one
/// verification, so it suits a key that checks many signatures, such as
/// the two keys every device of a simulated fleet checks. The HSM backend
/// verifies a prepared key against the key it wraps, and can also
/// dereference one of its tamper-protected key slots.
#[derive(Clone, Copy, Debug)]
pub enum KeyRef<'a> {
    /// A SEC1 uncompressed public key supplied inline.
    Sec1(&'a [u8]),
    /// A parsed key with its comb table, supplied inline.
    Prepared(&'a PreparedVerifyingKey),
    /// A key stored in hardware slot `n` of an HSM.
    Slot(u8),
}

/// Errors produced by a [`SecurityBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SecurityError {
    /// The signature did not verify.
    BadSignature,
    /// The supplied public key was malformed or off-curve.
    BadKey,
    /// The backend does not support the requested key reference
    /// (e.g. a hardware slot on a software backend).
    UnsupportedKeyRef,
    /// The referenced HSM slot holds no key.
    EmptySlot,
    /// The HSM rejected a write because its data zone is locked.
    SlotLocked,
}

impl core::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadSignature => f.write_str("signature verification failed"),
            Self::BadKey => f.write_str("malformed or invalid public key"),
            Self::UnsupportedKeyRef => f.write_str("backend does not support this key reference"),
            Self::EmptySlot => f.write_str("HSM key slot is empty"),
            Self::SlotLocked => f.write_str("HSM data zone is locked"),
        }
    }
}

impl core::error::Error for SecurityError {}

impl From<EcdsaError> for SecurityError {
    fn from(err: EcdsaError) -> Self {
        match err {
            EcdsaError::InvalidSignature => Self::BadSignature,
            _ => Self::BadKey,
        }
    }
}

/// Modeled cost/size profile of a backend, used by the discrete-event
/// simulator (time, energy) and cross-checked by the footprint model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendProfile {
    /// Human-readable library name.
    pub name: &'static str,
    /// CPU cycles for one ECDSA-P256 verification (0 if offloaded).
    pub verify_cycles: u64,
    /// CPU cycles per byte of SHA-256 digesting.
    pub digest_cycles_per_byte: u64,
    /// Fixed wall-clock microseconds per hardware-offloaded verification.
    pub hw_verify_micros: u64,
    /// Whether signature verification runs on a hardware security module.
    pub hardware_offload: bool,
}

/// A pluggable cryptographic implementation.
///
/// Implementations must be usable from both the update agent and the
/// bootloader so the two can share a single copy of the library — the
/// code-reuse property the paper credits for UpKit's small footprint.
pub trait SecurityBackend: core::fmt::Debug + Send + Sync {
    /// Computes the SHA-256 digest of `data`.
    fn digest(&self, data: &[u8]) -> [u8; 32] {
        sha256(data)
    }

    /// Verifies an ECDSA-P256 `signature` over a 32-byte `digest` using the
    /// key identified by `key`.
    fn verify(
        &self,
        key: KeyRef<'_>,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), SecurityError>;

    /// Returns the modeled cost profile.
    fn profile(&self) -> BackendProfile;
}

fn verify_inline(
    key: KeyRef<'_>,
    digest: &[u8; 32],
    signature: &Signature,
) -> Result<(), SecurityError> {
    match key {
        KeyRef::Sec1(bytes) => {
            let vk = VerifyingKey::from_sec1_bytes(bytes).map_err(|_| SecurityError::BadKey)?;
            vk.verify_prehashed(digest, signature)?;
            Ok(())
        }
        KeyRef::Prepared(key) => Ok(key.verify_prehashed(digest, signature)?),
        KeyRef::Slot(_) => Err(SecurityError::UnsupportedKeyRef),
    }
}

/// Software backend modeled on Intel's `tinycrypt` library.
///
/// The paper measures tinycrypt builds as ~1.1 kB *larger* in flash than
/// TinyDTLS but slightly faster at ECC verification.
#[derive(Clone, Copy, Debug, Default)]
pub struct TinyCryptBackend;

impl SecurityBackend for TinyCryptBackend {
    fn verify(
        &self,
        key: KeyRef<'_>,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), SecurityError> {
        verify_inline(key, digest, signature)
    }

    fn profile(&self) -> BackendProfile {
        BackendProfile {
            name: "tinycrypt",
            // ~3.5 Mcycles/verify on Cortex-M4-class cores.
            verify_cycles: 3_500_000,
            digest_cycles_per_byte: 55,
            hw_verify_micros: 0,
            hardware_offload: false,
        }
    }
}

/// Software backend modeled on the Eclipse `TinyDTLS` crypto routines.
///
/// Smaller flash footprint than tinycrypt, somewhat slower verification.
#[derive(Clone, Copy, Debug, Default)]
pub struct TinyDtlsBackend;

impl SecurityBackend for TinyDtlsBackend {
    fn verify(
        &self,
        key: KeyRef<'_>,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), SecurityError> {
        verify_inline(key, digest, signature)
    }

    fn profile(&self) -> BackendProfile {
        BackendProfile {
            name: "TinyDTLS",
            verify_cycles: 5_200_000,
            digest_cycles_per_byte: 70,
            hw_verify_micros: 0,
            hardware_offload: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdsa::SigningKey;
    use alloc::boxed::Box;
    use alloc::vec;
    use alloc::vec::Vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backends() -> Vec<Box<dyn SecurityBackend>> {
        vec![Box::new(TinyCryptBackend), Box::new(TinyDtlsBackend)]
    }

    #[test]
    fn software_backends_verify_valid_signatures() {
        let mut rng = StdRng::seed_from_u64(21);
        let key = SigningKey::generate(&mut rng);
        let digest = sha256(b"manifest bytes");
        let sig = key.sign_prehashed(&digest);
        let sec1 = key.verifying_key().to_sec1_bytes();
        let prepared = key.verifying_key().prepare();
        for backend in backends() {
            for key_ref in [KeyRef::Sec1(&sec1), KeyRef::Prepared(&prepared)] {
                backend
                    .verify(key_ref, &digest, &sig)
                    .unwrap_or_else(|e| panic!("{}, {key_ref:?}: {e}", backend.profile().name));
            }
        }
    }

    #[test]
    fn software_backends_reject_tampered_digest() {
        let mut rng = StdRng::seed_from_u64(22);
        let key = SigningKey::generate(&mut rng);
        let digest = sha256(b"manifest bytes");
        let sig = key.sign_prehashed(&digest);
        let sec1 = key.verifying_key().to_sec1_bytes();
        let prepared = key.verifying_key().prepare();
        let mut bad = digest;
        bad[0] ^= 1;
        for backend in backends() {
            for key_ref in [KeyRef::Sec1(&sec1), KeyRef::Prepared(&prepared)] {
                assert_eq!(
                    backend.verify(key_ref, &bad, &sig),
                    Err(SecurityError::BadSignature),
                    "{key_ref:?}"
                );
            }
        }
    }

    #[test]
    fn software_backends_reject_hsm_slots() {
        let mut rng = StdRng::seed_from_u64(23);
        let key = SigningKey::generate(&mut rng);
        let digest = sha256(b"x");
        let sig = key.sign_prehashed(&digest);
        for backend in backends() {
            assert_eq!(
                backend.verify(KeyRef::Slot(0), &digest, &sig),
                Err(SecurityError::UnsupportedKeyRef)
            );
        }
    }

    #[test]
    fn software_backends_reject_garbage_keys() {
        let mut rng = StdRng::seed_from_u64(24);
        let key = SigningKey::generate(&mut rng);
        let digest = sha256(b"x");
        let sig = key.sign_prehashed(&digest);
        for backend in backends() {
            assert_eq!(
                backend.verify(KeyRef::Sec1(&[0u8; 65]), &digest, &sig),
                Err(SecurityError::BadKey)
            );
        }
    }

    #[test]
    fn profiles_differ_as_in_the_paper() {
        // TinyDTLS: smaller flash modeled elsewhere; here: slower verify.
        assert!(TinyDtlsBackend.profile().verify_cycles > TinyCryptBackend.profile().verify_cycles);
        assert!(!TinyDtlsBackend.profile().hardware_offload);
    }

    #[test]
    fn default_digest_is_sha256() {
        assert_eq!(TinyCryptBackend.digest(b"abc"), sha256(b"abc"));
    }
}
