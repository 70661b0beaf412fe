//! Trust anchors: how the device references the public keys it verifies
//! updates against.
//!
//! UpKit stores two public keys on every device — the vendor server's
//! (integrity/authenticity) and the update server's (freshness). They live
//! either inline in flash or, on HSM-equipped platforms like the
//! CC2650 + ATECC508 pairing, in tamper-protected hardware key slots
//! referenced by number.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use upkit_crypto::backend::KeyRef;
use upkit_crypto::chacha20::NONCE_LEN;
use upkit_crypto::ecdsa::{VerifyingKey, PUBLIC_KEY_LEN};
use upkit_manifest::Version;

/// Derives the ChaCha20 nonce binding an encrypted payload to one device,
/// request, and version — reusing the freshness fields the double
/// signature already authenticates. Both ends derive it independently:
/// the update server when encrypting, the device agent when decrypting.
#[must_use]
pub fn content_nonce(device_id: u32, request_nonce: u32, version: Version) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[0..4].copy_from_slice(&device_id.to_le_bytes());
    nonce[4..8].copy_from_slice(&request_nonce.to_le_bytes());
    nonce[8..10].copy_from_slice(&version.0.to_le_bytes());
    nonce
}

/// A reference to one trusted public key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyAnchor {
    /// SEC1 uncompressed key bytes stored in device flash.
    Inline([u8; PUBLIC_KEY_LEN]),
    /// A key slot on the platform's hardware security module.
    HsmSlot(u8),
}

impl KeyAnchor {
    /// Builds an inline anchor from a verifying key.
    #[must_use]
    pub fn inline(key: &VerifyingKey) -> Self {
        Self::Inline(key.to_sec1_bytes())
    }

    /// The [`KeyRef`] to hand to the security backend.
    #[must_use]
    pub fn key_ref(&self) -> KeyRef<'_> {
        match self {
            Self::Inline(bytes) => KeyRef::Sec1(bytes),
            Self::HsmSlot(slot) => KeyRef::Slot(*slot),
        }
    }
}

/// The pair of trust anchors every UpKit device carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrustAnchors {
    /// The vendor server's public key (signs the manifest core).
    pub vendor: KeyAnchor,
    /// The update server's public key (signs the full manifest).
    pub server: KeyAnchor,
}

impl TrustAnchors {
    /// Inline anchors from the two verifying keys.
    #[must_use]
    pub fn inline(vendor: &VerifyingKey, server: &VerifyingKey) -> Self {
        Self {
            vendor: KeyAnchor::inline(vendor),
            server: KeyAnchor::inline(server),
        }
    }

    /// HSM-slot anchors (both keys provisioned to hardware).
    #[must_use]
    pub fn hsm(vendor_slot: u8, server_slot: u8) -> Self {
        Self {
            vendor: KeyAnchor::HsmSlot(vendor_slot),
            server: KeyAnchor::HsmSlot(server_slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::ecdsa::SigningKey;

    #[test]
    fn inline_anchor_preserves_key_bytes() {
        let key = SigningKey::generate(&mut StdRng::seed_from_u64(61));
        let anchor = KeyAnchor::inline(&key.verifying_key());
        match anchor.key_ref() {
            KeyRef::Sec1(bytes) => {
                assert_eq!(bytes, key.verifying_key().to_sec1_bytes());
            }
            other => panic!("expected inline key bytes, got {other:?}"),
        }
    }

    #[test]
    fn hsm_anchor_references_slots() {
        let anchors = TrustAnchors::hsm(3, 4);
        assert!(matches!(anchors.vendor.key_ref(), KeyRef::Slot(3)));
        assert!(matches!(anchors.server.key_ref(), KeyRef::Slot(4)));
    }
}
