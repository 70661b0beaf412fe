//! SUIT-style manifest interop (the paper's future work: "the support of
//! the upcoming IETF SUIT standard, in order to allow inter-operation with
//! a larger range of IoT solutions").
//!
//! Implements a CBOR envelope *modeled on* the IETF SUIT information model
//! (draft-ietf-suit-information-model, the draft the paper cites): a map
//! with a manifest version, a sequence number, a common section carrying
//! component/compatibility identifiers, and a payload section with digest
//! and size. UpKit's freshness fields (device ID, nonce, old version,
//! payload size) travel in an extension section, exactly how vendors
//! extend SUIT in practice.
//!
//! The conversions are lossless: `Manifest → envelope → Manifest` is the
//! identity, so an UpKit deployment can exchange manifests with SUIT
//! tooling without weakening any of its checks.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::vec;
use alloc::vec::Vec;

use crate::cbor::{decode, encode, CborError, Value};
use crate::{Manifest, Version};

/// SUIT envelope keys (information-model names).
mod key {
    /// suit-manifest-version
    pub const MANIFEST_VERSION: u64 = 1;
    /// suit-manifest-sequence-number (UpKit: firmware version)
    pub const SEQUENCE_NUMBER: u64 = 2;
    /// suit-common
    pub const COMMON: u64 = 3;
    /// suit-payload-info
    pub const PAYLOAD_INFO: u64 = 9;
    /// vendor extension: UpKit freshness fields
    pub const UPKIT_EXTENSION: u64 = 24;

    /// Inside suit-common:
    pub const VENDOR_ID: u64 = 1;
    pub const CLASS_ID: u64 = 2;
    pub const COMPONENT_OFFSET: u64 = 3;

    /// Inside suit-payload-info:
    pub const DIGEST: u64 = 1;
    pub const SIZE: u64 = 2;

    /// Inside the UpKit extension:
    pub const DEVICE_ID: u64 = 1;
    pub const NONCE: u64 = 2;
    pub const OLD_VERSION: u64 = 3;
    pub const PAYLOAD_SIZE: u64 = 4;
}

/// The manifest version this module emits.
pub const SUIT_MANIFEST_VERSION: u64 = 1;

/// Errors converting between UpKit manifests and SUIT envelopes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SuitError {
    /// The envelope is not valid CBOR (within the deterministic subset).
    Cbor(CborError),
    /// A required field is absent or has the wrong type.
    MissingField(u64),
    /// The manifest version is not supported.
    UnsupportedVersion,
    /// A numeric field exceeds its UpKit range.
    FieldRange,
}

impl core::fmt::Display for SuitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Cbor(e) => write!(f, "SUIT envelope CBOR error: {e}"),
            Self::MissingField(k) => write!(f, "SUIT envelope missing field {k}"),
            Self::UnsupportedVersion => f.write_str("unsupported SUIT manifest version"),
            Self::FieldRange => f.write_str("SUIT field exceeds UpKit range"),
        }
    }
}

impl core::error::Error for SuitError {}

impl From<CborError> for SuitError {
    fn from(e: CborError) -> Self {
        Self::Cbor(e)
    }
}

/// Serializes an UpKit manifest as a SUIT-style CBOR envelope.
#[must_use]
pub fn to_suit_envelope(manifest: &Manifest) -> Vec<u8> {
    let envelope = Value::Map(vec![
        (key::MANIFEST_VERSION, Value::Uint(SUIT_MANIFEST_VERSION)),
        (
            key::SEQUENCE_NUMBER,
            Value::Uint(u64::from(manifest.version.0)),
        ),
        (
            key::COMMON,
            Value::Map(vec![
                (key::VENDOR_ID, Value::Uint(u64::from(manifest.app_id))),
                (key::CLASS_ID, Value::Uint(u64::from(manifest.app_id))),
                (
                    key::COMPONENT_OFFSET,
                    Value::Uint(u64::from(manifest.link_offset)),
                ),
            ]),
        ),
        (
            key::PAYLOAD_INFO,
            Value::Map(vec![
                (key::DIGEST, Value::Bytes(manifest.digest.to_vec())),
                (key::SIZE, Value::Uint(u64::from(manifest.size))),
            ]),
        ),
        (
            key::UPKIT_EXTENSION,
            Value::Map(vec![
                (key::DEVICE_ID, Value::Uint(u64::from(manifest.device_id))),
                (key::NONCE, Value::Uint(u64::from(manifest.nonce))),
                (
                    key::OLD_VERSION,
                    Value::Uint(u64::from(manifest.old_version.0)),
                ),
                (
                    key::PAYLOAD_SIZE,
                    Value::Uint(u64::from(manifest.payload_size)),
                ),
            ]),
        ),
    ]);
    encode(&envelope)
}

fn require(value: &Value, k: u64) -> Result<&Value, SuitError> {
    value.get(k).ok_or(SuitError::MissingField(k))
}

fn uint_field<T: TryFrom<u64>>(value: &Value, k: u64) -> Result<T, SuitError> {
    let raw = require(value, k)?
        .as_uint()
        .ok_or(SuitError::MissingField(k))?;
    T::try_from(raw).map_err(|_| SuitError::FieldRange)
}

/// Parses a SUIT-style envelope back into an UpKit manifest.
pub fn from_suit_envelope(bytes: &[u8]) -> Result<Manifest, SuitError> {
    let envelope = decode(bytes)?;
    let version_field: u64 = uint_field(&envelope, key::MANIFEST_VERSION)?;
    if version_field != SUIT_MANIFEST_VERSION {
        return Err(SuitError::UnsupportedVersion);
    }
    let sequence: u16 = uint_field(&envelope, key::SEQUENCE_NUMBER)?;

    let common = require(&envelope, key::COMMON)?;
    let app_id: u32 = uint_field(common, key::VENDOR_ID)?;
    let link_offset: u32 = uint_field(common, key::COMPONENT_OFFSET)?;

    let payload_info = require(&envelope, key::PAYLOAD_INFO)?;
    let digest_bytes = require(payload_info, key::DIGEST)?
        .as_bytes()
        .ok_or(SuitError::MissingField(key::DIGEST))?;
    let digest: [u8; 32] = digest_bytes.try_into().map_err(|_| SuitError::FieldRange)?;
    let size: u32 = uint_field(payload_info, key::SIZE)?;

    let ext = require(&envelope, key::UPKIT_EXTENSION)?;
    Ok(Manifest {
        device_id: uint_field(ext, key::DEVICE_ID)?,
        nonce: uint_field(ext, key::NONCE)?,
        old_version: Version(uint_field(ext, key::OLD_VERSION)?),
        version: Version(sequence),
        size,
        payload_size: uint_field(ext, key::PAYLOAD_SIZE)?,
        digest,
        link_offset,
        app_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use upkit_crypto::sha256::sha256;

    fn sample() -> Manifest {
        Manifest {
            device_id: 0x1111_2222,
            nonce: 0x3333_4444,
            old_version: Version(4),
            version: Version(5),
            size: 123_456,
            payload_size: 45_678,
            digest: sha256(b"suit payload"),
            link_offset: 0x0800_4000,
            app_id: 0xABCD,
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let m = sample();
        let envelope = to_suit_envelope(&m);
        assert_eq!(from_suit_envelope(&envelope).unwrap(), m);
    }

    #[test]
    fn envelope_is_valid_deterministic_cbor() {
        let envelope = to_suit_envelope(&sample());
        let value = decode(&envelope).unwrap();
        // Re-encoding the decoded structure reproduces the bytes: the
        // determinism SUIT needs for signing.
        assert_eq!(encode(&value), envelope);
    }

    #[test]
    fn sequence_number_carries_the_version() {
        let envelope = to_suit_envelope(&sample());
        let value = decode(&envelope).unwrap();
        assert_eq!(
            value.get(key::SEQUENCE_NUMBER).and_then(Value::as_uint),
            Some(5)
        );
    }

    #[test]
    fn rejects_missing_extension() {
        let envelope = to_suit_envelope(&sample());
        let mut value = decode(&envelope).unwrap();
        if let Value::Map(entries) = &mut value {
            entries.retain(|(k, _)| *k != key::UPKIT_EXTENSION);
        }
        assert_eq!(
            from_suit_envelope(&encode(&value)),
            Err(SuitError::MissingField(key::UPKIT_EXTENSION))
        );
    }

    #[test]
    fn rejects_wrong_manifest_version() {
        let envelope = to_suit_envelope(&sample());
        let mut value = decode(&envelope).unwrap();
        if let Value::Map(entries) = &mut value {
            entries[0].1 = Value::Uint(99);
        }
        assert_eq!(
            from_suit_envelope(&encode(&value)),
            Err(SuitError::UnsupportedVersion)
        );
    }

    #[test]
    fn rejects_wrong_digest_length() {
        let envelope = to_suit_envelope(&sample());
        let mut value = decode(&envelope).unwrap();
        if let Value::Map(entries) = &mut value {
            for (k, v) in entries.iter_mut() {
                if *k == key::PAYLOAD_INFO {
                    if let Value::Map(info) = v {
                        for (ik, iv) in info.iter_mut() {
                            if *ik == key::DIGEST {
                                *iv = Value::Bytes(vec![0; 20]); // SHA-1 sized
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            from_suit_envelope(&encode(&value)),
            Err(SuitError::FieldRange)
        );
    }

    #[test]
    fn rejects_out_of_range_sequence() {
        let envelope = to_suit_envelope(&sample());
        let mut value = decode(&envelope).unwrap();
        if let Value::Map(entries) = &mut value {
            entries[1].1 = Value::Uint(u64::from(u16::MAX) + 1);
        }
        assert_eq!(
            from_suit_envelope(&encode(&value)),
            Err(SuitError::FieldRange)
        );
    }

    #[test]
    fn rejects_garbage() {
        // 0xFF is a CBOR "break" with no enclosing indefinite item.
        assert!(matches!(
            from_suit_envelope(&[0xFF, 0x00]),
            Err(SuitError::Cbor(_))
        ));
        assert!(matches!(
            from_suit_envelope(&encode(&Value::Uint(7))),
            Err(SuitError::MissingField(_))
        ));
    }
}
