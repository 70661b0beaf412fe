//! Cryptographic substrate for the UpKit reproduction.
//!
//! UpKit (ICDCS 2019) signs firmware updates twice — once by the vendor
//! server (integrity/authenticity) and once by the update server (freshness,
//! binding the image to a device token) — and verifies them both in the
//! update agent and in the bootloader. The paper builds on ECDSA over
//! secp256r1 with SHA-256 because that combination is supported by every
//! crypto library it evaluates (TinyDTLS, tinycrypt, CryptoAuthLib).
//!
//! This crate implements the whole stack from scratch:
//!
//! * [`mod@sha256`] / [`hmac`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC.
//!   Every SHA-256 compression, and so every digest and HMAC, runs on the
//!   CPU's SHA extensions (SHA-NI) when an `x86_64` `std` build detects
//!   them at run time, and on the portable loop otherwise.
//! * [`u256`] / [`mont`] — 256-bit integers and generic Montgomery field
//!   arithmetic: the CIOS multiply, and one constant-time Bernstein–Yang
//!   safegcd inverse (590 divsteps on signed 62-bit limbs) for both P-256
//!   fields.
//! * [`p256`] — the NIST P-256 group: Jacobian arithmetic, SEC1 encoding,
//!   fixed-base comb tables of 63 affine points (4,032 bytes: a
//!   compile-time one for `G`, and one built at run time for any other
//!   point), width-5 NAF for a public key without a table, and mixed
//!   Jacobian + affine additions.
//! * [`ecdsa`] — ECDSA sign/verify with RFC 6979 deterministic nonces. A
//!   verifying key can be *prepared* with its own comb table, which costs
//!   about one verification and then makes each verification run 43
//!   doublings instead of 257.
//! * [`backend`] — the *security interface*: pluggable backends mirroring
//!   the paper's crypto libraries. A key reaches a backend as SEC1 bytes,
//!   a prepared key, or an HSM slot.
//! * `hsm` (`std` only) — a simulated ATECC508 hardware security module.
//! * [`chacha20`] — RFC 8439 stream cipher for the pipeline's decryption
//!   stage (the paper's future-work confidentiality extension).
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code`. The one exception is the private SHA-NI
//! module under [`mod@sha256`]: it calls its `#[target_feature]` kernel
//! only after the run-time feature check, and loads each 64-byte block in
//! four unaligned 16-byte reads. `no_std` builds do not compile it.
//!
//! # Scope
//!
//! The implementation is functionally faithful (real signatures, real
//! failure modes) but is **not** hardened against side channels and must not
//! be used to protect real systems; it exists so the reproduction's security
//! experiments exercise genuine cryptographic behaviour.
//!
//! # Examples
//!
//! ```
//! use upkit_crypto::ecdsa::SigningKey;
//!
//! let vendor_key = SigningKey::from_bytes(&[0x2A; 32]).unwrap();
//! let signature = vendor_key.sign(b"firmware v2.0");
//! let public = vendor_key.verifying_key();
//! public.verify(b"firmware v2.0", &signature).unwrap();
//!
//! // A key that checks many signatures pays for its comb table once.
//! let prepared = public.prepare();
//! let digest = upkit_crypto::sha256(b"firmware v2.0");
//! prepared.verify_prehashed(&digest, &signature).unwrap();
//! ```

#![cfg_attr(not(feature = "std"), no_std)]
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::std_instead_of_core,
    clippy::std_instead_of_alloc,
    clippy::alloc_instead_of_core
)]

extern crate alloc;
#[cfg(test)]
extern crate std;

pub mod backend;
pub mod chacha20;
pub mod ecdsa;
pub mod hmac;
#[cfg(feature = "std")]
pub mod hsm;
pub mod mont;
pub mod p256;
mod safegcd;
pub mod sha256;
pub mod u256;

pub use backend::{BackendProfile, KeyRef, SecurityBackend, SecurityError};
pub use ecdsa::{EcdsaError, Signature, SigningKey, VerifyingKey};
pub use sha256::{sha256, Sha256};
