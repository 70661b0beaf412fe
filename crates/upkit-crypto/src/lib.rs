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
//!   arithmetic (the CIOS multiply, fixed-window exponentiation).
//! * [`p256`] — the NIST P-256 group: Jacobian arithmetic, SEC1 encoding,
//!   a fixed-base comb for `G` (a 4,032-byte compile-time table of 63
//!   affine points) and width-5 NAF for the public key in verification,
//!   with mixed Jacobian + affine additions.
//! * [`ecdsa`] — ECDSA sign/verify with RFC 6979 deterministic nonces.
//! * [`backend`] — the *security interface*: pluggable backends mirroring
//!   the paper's crypto libraries.
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
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let vendor_key = SigningKey::generate(&mut rng);
//! let signature = vendor_key.sign(b"firmware v2.0");
//! vendor_key.verifying_key().verify(b"firmware v2.0", &signature).unwrap();
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

pub mod backend;
pub mod chacha20;
pub mod ecdsa;
pub mod hmac;
#[cfg(feature = "std")]
pub mod hsm;
pub mod mont;
pub mod p256;
pub mod sha256;
pub mod u256;

pub use backend::{BackendProfile, KeyRef, SecurityBackend, SecurityError};
pub use ecdsa::{EcdsaError, Signature, SigningKey, VerifyingKey};
pub use sha256::{sha256, Sha256};
