//! ECDSA over P-256 with SHA-256 digests and RFC 6979 deterministic nonces.
//!
//! This is the signature scheme behind UpKit's double-signature process: the
//! *vendor server* signs the firmware digest and manifest core, and the
//! *update server* signs the manifest extended with the device token. Both
//! use ECDSA/secp256r1/SHA-256 as in the paper.
//!
//! A [`VerifyingKey`] that checks many signatures can be
//! [prepared](VerifyingKey::prepare): the [`PreparedVerifyingKey`] carries
//! the key's comb table, which costs about one verification to build and
//! makes every later verification cost well under half of one.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::hmac::HmacSha256;
use crate::p256::{
    double_comb_mul, double_scalar_mul, field_prime, mul_base, order, AffinePoint, Comb,
    FieldElement, JacobianPoint, PointError, Scalar,
};
use crate::sha256::sha256;
use crate::u256::U256;

#[cfg(any(feature = "std", test))]
use rand::Rng;

/// Byte length of a serialized signature (`r ‖ s`, raw fixed-width).
pub const SIGNATURE_LEN: usize = 64;
/// Byte length of a serialized public key (SEC1 uncompressed).
pub const PUBLIC_KEY_LEN: usize = 65;
/// Byte length of a serialized private key.
pub const PRIVATE_KEY_LEN: usize = 32;

/// Errors produced by signing-key and signature operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EcdsaError {
    /// A byte encoding had the wrong length or framing.
    Encoding,
    /// The private scalar was zero or not less than the group order.
    InvalidPrivateKey,
    /// The public key point was invalid (off-curve or malformed).
    InvalidPublicKey,
    /// Signature verification failed.
    InvalidSignature,
}

impl core::fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Encoding => f.write_str("malformed ECDSA byte encoding"),
            Self::InvalidPrivateKey => f.write_str("private key scalar out of range"),
            Self::InvalidPublicKey => f.write_str("public key is not a valid curve point"),
            Self::InvalidSignature => f.write_str("ECDSA signature verification failed"),
        }
    }
}

impl core::error::Error for EcdsaError {}

impl From<PointError> for EcdsaError {
    fn from(_: PointError) -> Self {
        Self::InvalidPublicKey
    }
}

/// An ECDSA signature as the raw pair `(r, s)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    r: U256,
    s: U256,
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature(r: {}, s: {})", self.r, self.s)
    }
}

impl Signature {
    /// Serializes as 64 bytes: big-endian `r` then big-endian `s`.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 64-byte `r ‖ s` encoding, rejecting out-of-range values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        if bytes.len() != SIGNATURE_LEN {
            return Err(EcdsaError::Encoding);
        }
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..]);
        let r = U256::from_be_bytes(&rb);
        let s = U256::from_be_bytes(&sb);
        let n = order();
        if r.is_zero()
            || s.is_zero()
            || r.cmp_raw(&n) != core::cmp::Ordering::Less
            || s.cmp_raw(&n) != core::cmp::Ordering::Less
        {
            return Err(EcdsaError::Encoding);
        }
        Ok(Self { r, s })
    }
}

/// A P-256 verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey {
    point: AffinePoint,
}

impl VerifyingKey {
    /// Parses a SEC1 uncompressed public key, validating the point.
    pub fn from_sec1_bytes(bytes: &[u8]) -> Result<Self, EcdsaError> {
        let point = AffinePoint::from_sec1_bytes(bytes)?;
        if matches!(point, AffinePoint::Identity) {
            return Err(EcdsaError::InvalidPublicKey);
        }
        Ok(Self { point })
    }

    /// Serializes to SEC1 uncompressed form.
    #[must_use]
    pub fn to_sec1_bytes(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.point.to_sec1_bytes()
    }

    /// Verifies `signature` over the already-hashed 32-byte `digest`.
    pub fn verify_prehashed(
        &self,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), EcdsaError> {
        verify_with(digest, signature, |u1, u2| {
            double_scalar_mul(u1, u2, &self.point)
        })
    }

    /// Hashes `message` with SHA-256 and verifies `signature` over it.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), EcdsaError> {
        self.verify_prehashed(&sha256(message), signature)
    }

    /// Builds this key's comb table (about the work of one verification),
    /// for a key that will check many signatures.
    #[must_use]
    pub fn prepare(&self) -> PreparedVerifyingKey {
        PreparedVerifyingKey {
            key: *self,
            comb: Comb::new(&self.point),
        }
    }
}

/// A [`VerifyingKey`] with its comb table: each verification runs one
/// 43-doubling chain instead of 257 doublings, and returns what
/// [`VerifyingKey::verify_prehashed`] returns. The 4 kB table is held
/// inline.
#[derive(Clone)]
pub struct PreparedVerifyingKey {
    key: VerifyingKey,
    comb: Comb,
}

impl core::fmt::Debug for PreparedVerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PreparedVerifyingKey")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl PreparedVerifyingKey {
    /// The key the table was built from.
    #[must_use]
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.key
    }

    /// Verifies `signature` over the already-hashed 32-byte `digest`.
    pub fn verify_prehashed(
        &self,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), EcdsaError> {
        verify_with(digest, signature, |u1, u2| {
            double_comb_mul(u1, u2, &self.comb)
        })
    }
}

/// The verification both key forms share: `u1 = z·s⁻¹` and `u2 = r·s⁻¹`,
/// `R = multiply(u1, u2) = u1·G + u2·Q`, and the check `x(R) ≡ r (mod n)`.
fn verify_with(
    digest: &[u8; 32],
    signature: &Signature,
    multiply: impl FnOnce(&U256, &U256) -> JacobianPoint,
) -> Result<(), EcdsaError> {
    let z = bits2int(digest);
    let s = Scalar::from_u256(&signature.s);
    let s_inv = s.invert().ok_or(EcdsaError::InvalidSignature)?;
    let u1 = Scalar::from_u256(&z).mul(&s_inv).to_u256();
    let u2 = Scalar::from_u256(&signature.r).mul(&s_inv).to_u256();
    let point = multiply(&u1, &u2);
    // x(R) < p < 2n, so x(R) mod n == r exactly when x(R) is r or,
    // if r + n < p, r + n. Comparing X with x·Z² skips the inversion.
    let r = &signature.r;
    let (r_plus_n, carry) = r.adc(&order());
    let valid = point.has_affine_x(&FieldElement::from_u256(r))
        || (carry == 0
            && r_plus_n < field_prime()
            && point.has_affine_x(&FieldElement::from_u256(&r_plus_n)));
    if valid {
        Ok(())
    } else {
        Err(EcdsaError::InvalidSignature)
    }
}

/// A P-256 signing (private) key.
///
/// The corresponding [`VerifyingKey`] is derived on construction so that the
/// public half is always consistent with the private scalar.
#[derive(Clone)]
pub struct SigningKey {
    d: U256,
    public: VerifyingKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the private scalar.
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl SigningKey {
    /// Constructs a signing key from a big-endian 32-byte private scalar.
    pub fn from_bytes(bytes: &[u8; PRIVATE_KEY_LEN]) -> Result<Self, EcdsaError> {
        let d = U256::from_be_bytes(bytes);
        if d.is_zero() || d.cmp_raw(&order()) != core::cmp::Ordering::Less {
            return Err(EcdsaError::InvalidPrivateKey);
        }
        let point = mul_base(&d).to_affine();
        Ok(Self {
            d,
            public: VerifyingKey { point },
        })
    }

    /// Generates a fresh random signing key (host-side: key generation
    /// happens on the vendor/update servers, never on a device).
    #[cfg(any(feature = "std", test))]
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; PRIVATE_KEY_LEN];
            rng.fill_bytes(&mut bytes);
            if let Ok(key) = Self::from_bytes(&bytes) {
                return key;
            }
        }
    }

    /// Serializes the private scalar as 32 big-endian bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; PRIVATE_KEY_LEN] {
        self.d.to_be_bytes()
    }

    /// Returns the corresponding verifying key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs the already-hashed 32-byte `digest` with an RFC 6979
    /// deterministic nonce.
    #[must_use]
    pub fn sign_prehashed(&self, digest: &[u8; 32]) -> Signature {
        let z = bits2int(digest);
        let z_scalar = Scalar::from_u256(&z);
        let d_scalar = Scalar::from_u256(&self.d);

        let mut nonce_gen = Rfc6979::new(&self.d.to_be_bytes(), digest);
        loop {
            let k = nonce_gen.next_candidate();
            if k.is_zero() || k.cmp_raw(&order()) != core::cmp::Ordering::Less {
                continue;
            }
            let AffinePoint::Point { x, .. } = mul_base(&k).to_affine() else {
                continue;
            };
            let r = x.to_u256().reduce_mod(&order());
            if r.is_zero() {
                continue;
            }
            let k_scalar = Scalar::from_u256(&k);
            let Some(k_inv) = k_scalar.invert() else {
                continue;
            };
            let s = k_inv
                .mul(&z_scalar.add(&Scalar::from_u256(&r).mul(&d_scalar)))
                .to_u256();
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }

    /// Hashes `message` with SHA-256 and signs the digest.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_prehashed(&sha256(message))
    }
}

/// Interprets a 32-byte digest as an integer per RFC 6979 §2.3.2 (for a
/// 256-bit group order the digest is taken verbatim).
fn bits2int(digest: &[u8; 32]) -> U256 {
    U256::from_be_bytes(digest)
}

/// RFC 6979 deterministic nonce generator (HMAC-SHA256 instantiation).
struct Rfc6979 {
    k: [u8; 32],
    v: [u8; 32],
    /// Whether a candidate was drawn, so the next draw is a retry.
    drawn: bool,
}

impl Rfc6979 {
    fn new(private_key: &[u8; 32], digest: &[u8; 32]) -> Self {
        // bits2octets: reduce the digest modulo n and re-serialize.
        let h_mod_n = bits2int(digest).reduce_mod(&order()).to_be_bytes();

        let mut k = [0u8; 32];
        let mut v = [0x01u8; 32];

        // K = HMAC_K(V || 0x00 || x || h)
        let mut mac = HmacSha256::new(&k);
        mac.update(&v);
        mac.update(&[0x00]);
        mac.update(private_key);
        mac.update(&h_mod_n);
        k = mac.finalize();
        // V = HMAC_K(V)
        v = crate::hmac::hmac_sha256(&k, &v);
        // K = HMAC_K(V || 0x01 || x || h)
        let mut mac = HmacSha256::new(&k);
        mac.update(&v);
        mac.update(&[0x01]);
        mac.update(private_key);
        mac.update(&h_mod_n);
        k = mac.finalize();
        // V = HMAC_K(V)
        v = crate::hmac::hmac_sha256(&k, &v);

        Self { k, v, drawn: false }
    }

    fn next_candidate(&mut self) -> U256 {
        if self.drawn {
            // Step h.3, run only once a candidate was rejected (for P-256
            // a ~2^-32 event) instead of after every draw.
            let mut mac = HmacSha256::new(&self.k);
            mac.update(&self.v);
            mac.update(&[0x00]);
            self.k = mac.finalize();
            self.v = crate::hmac::hmac_sha256(&self.k, &self.v);
        }
        self.drawn = true;
        self.v = crate::hmac::hmac_sha256(&self.k, &self.v);
        U256::from_be_bytes(&self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;
    use alloc::string::String;
    use alloc::vec::Vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hex_bytes(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
            .collect()
    }

    fn rfc6979_key() -> SigningKey {
        let mut d = [0u8; 32];
        d.copy_from_slice(&hex_bytes(
            "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721",
        ));
        SigningKey::from_bytes(&d).unwrap()
    }

    #[test]
    fn rfc6979_public_key_derivation() {
        // RFC 6979 A.2.5 curve P-256 key pair.
        let key = rfc6979_key();
        let sec1 = key.verifying_key().to_sec1_bytes();
        assert_eq!(
            sec1[1..33].to_vec(),
            hex_bytes("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6")
        );
        assert_eq!(
            sec1[33..].to_vec(),
            hex_bytes("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299")
        );
    }

    #[test]
    fn rfc6979_sample_signature() {
        // RFC 6979 A.2.5: message "sample", SHA-256.
        let key = rfc6979_key();
        let sig = key.sign(b"sample");
        let bytes = sig.to_bytes();
        assert_eq!(
            bytes[..32].to_vec(),
            hex_bytes("efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716")
        );
        assert_eq!(
            bytes[32..].to_vec(),
            hex_bytes("f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8")
        );
    }

    #[test]
    fn rfc6979_test_signature() {
        // RFC 6979 A.2.5: message "test", SHA-256.
        let key = rfc6979_key();
        let sig = key.sign(b"test");
        let bytes = sig.to_bytes();
        assert_eq!(
            bytes[..32].to_vec(),
            hex_bytes("f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367")
        );
        assert_eq!(
            bytes[32..].to_vec(),
            hex_bytes("019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083")
        );
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"firmware image v2.0");
        key.verifying_key()
            .verify(b"firmware image v2.0", &sig)
            .expect("valid signature verifies");
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let mut rng = StdRng::seed_from_u64(8);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"original");
        assert_eq!(
            key.verifying_key().verify(b"tampered", &sig),
            Err(EcdsaError::InvalidSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut rng = StdRng::seed_from_u64(9);
        let key_a = SigningKey::generate(&mut rng);
        let key_b = SigningKey::generate(&mut rng);
        let sig = key_a.sign(b"message");
        assert_eq!(
            key_b.verifying_key().verify(b"message", &sig),
            Err(EcdsaError::InvalidSignature)
        );
    }

    #[test]
    fn verify_rejects_bitflipped_signature() {
        let mut rng = StdRng::seed_from_u64(10);
        let key = SigningKey::generate(&mut rng);
        let mut bytes = key.sign(b"message").to_bytes();
        bytes[17] ^= 0x40;
        match Signature::from_bytes(&bytes) {
            // Either the mangled encoding is rejected outright…
            Err(EcdsaError::Encoding) => {}
            // …or it parses but fails verification.
            Ok(sig) => assert_eq!(
                key.verifying_key().verify(b"message", &sig),
                Err(EcdsaError::InvalidSignature)
            ),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn signature_byte_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"round trip");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn signature_rejects_zero_r_or_s() {
        let mut zero_r = [0u8; 64];
        zero_r[63] = 1; // s = 1, r = 0
        assert_eq!(Signature::from_bytes(&zero_r), Err(EcdsaError::Encoding));
        let mut zero_s = [0u8; 64];
        zero_s[31] = 1; // r = 1, s = 0
        assert_eq!(Signature::from_bytes(&zero_s), Err(EcdsaError::Encoding));
        assert_eq!(Signature::from_bytes(&[1u8; 63]), Err(EcdsaError::Encoding));
    }

    #[test]
    fn signing_key_rejects_out_of_range() {
        assert!(matches!(
            SigningKey::from_bytes(&[0u8; 32]),
            Err(EcdsaError::InvalidPrivateKey)
        ));
        assert!(matches!(
            SigningKey::from_bytes(&[0xffu8; 32]),
            Err(EcdsaError::InvalidPrivateKey)
        ));
    }

    #[test]
    fn private_key_round_trip() {
        let mut rng = StdRng::seed_from_u64(12);
        let key = SigningKey::generate(&mut rng);
        let restored = SigningKey::from_bytes(&key.to_bytes()).unwrap();
        assert_eq!(
            restored.verifying_key().to_sec1_bytes().to_vec(),
            key.verifying_key().to_sec1_bytes().to_vec()
        );
    }

    #[test]
    fn debug_does_not_leak_private_scalar() {
        let mut rng = StdRng::seed_from_u64(13);
        let key = SigningKey::generate(&mut rng);
        let printed = format!("{key:?}");
        let private_hex: String = key.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert!(!printed.contains(&private_hex[..16]));
    }

    #[test]
    fn verify_accepts_an_x_coordinate_above_the_order() {
        // x(R) ≡ r (mod n) also holds for x(R) = r + n when that is below
        // p, which a random signature reaches with probability ~2^-128.
        // Build such an R, then the public key that makes (r, s) verify.
        let n = order();
        let (r_point, delta) = (1u64..)
            .find_map(|delta| {
                let mut bytes = [0x02u8; 33];
                bytes[1..].copy_from_slice(&n.adc(&U256::from_u64(delta)).0.to_be_bytes());
                AffinePoint::from_sec1_compressed(&bytes)
                    .ok()
                    .map(|point| (point, delta))
            })
            .expect("some x = n + delta lies on the curve");
        let (r, s) = (U256::from_u64(delta), U256::from_u64(7));
        let digest = sha256(b"x(R) = r + n");

        // Verify computes u1·G + u2·Q with u1 = z/s and u2 = r/s, so
        // Q = u2⁻¹·(R − u1·G) makes that sum R.
        let s_inv = Scalar::from_u256(&s).invert().unwrap();
        let u1 = Scalar::from_u256(&bits2int(&digest)).mul(&s_inv);
        let u2 = Scalar::from_u256(&r).mul(&s_inv);
        let q = r_point
            .to_jacobian()
            .add(
                &AffinePoint::generator()
                    .to_jacobian()
                    .mul_scalar(&u1.neg().to_u256()),
            )
            .mul_scalar(&u2.invert().unwrap().to_u256())
            .to_affine();
        let key = VerifyingKey::from_sec1_bytes(&q.to_sec1_bytes()).unwrap();

        let signature = |r: U256| {
            let mut bytes = [0u8; SIGNATURE_LEN];
            bytes[..32].copy_from_slice(&r.to_be_bytes());
            bytes[32..].copy_from_slice(&s.to_be_bytes());
            Signature::from_bytes(&bytes).unwrap()
        };
        let prepared = key.prepare();
        for (r, expected) in [
            (r, Ok(())),
            (U256::from_u64(delta ^ 1), Err(EcdsaError::InvalidSignature)),
        ] {
            assert_eq!(key.verify_prehashed(&digest, &signature(r)), expected);
            assert_eq!(prepared.verify_prehashed(&digest, &signature(r)), expected);
        }
    }

    #[test]
    fn prepared_and_plain_keys_return_the_same_result() {
        let mut rng = StdRng::seed_from_u64(15);
        let key = SigningKey::generate(&mut rng);
        let other = SigningKey::generate(&mut rng);
        let plain = key.verifying_key();
        let prepared = plain.prepare();
        assert_eq!(prepared.verifying_key(), &plain);
        let bad = Err(EcdsaError::InvalidSignature);
        for i in 0..8 {
            let digest = sha256(&[i as u8; 40]);
            let signature = key.sign_prehashed(&digest);
            let mut flipped_digest = digest;
            flipped_digest[i * 4] ^= 1 << i;
            // One low-order bit of `r` (even i) or `s` (odd i): the
            // signature still parses.
            let mut bytes = signature.to_bytes();
            bytes[31 + 32 * (i % 2) - i] ^= 1 << i;
            let flipped_signature = Signature::from_bytes(&bytes).expect("still below n");
            for (digest, signature, expected) in [
                (digest, signature, Ok(())),
                (flipped_digest, signature, bad),
                (digest, flipped_signature, bad),
                (digest, other.sign_prehashed(&digest), bad),
            ] {
                assert_eq!(plain.verify_prehashed(&digest, &signature), expected, "{i}");
                assert_eq!(
                    prepared.verify_prehashed(&digest, &signature),
                    expected,
                    "{i}"
                );
            }
        }
    }

    #[test]
    fn rfc6979_retries_follow_step_h3() {
        // After a rejected candidate, RFC 6979 §3.2 step h.3 sets
        // K = HMAC_K(V ‖ 0x00) and V = HMAC_K(V) before the next draw.
        let mut nonces = Rfc6979::new(&[0x11; 32], &sha256(b"retry"));
        let (mut k, mut v) = (nonces.k, nonces.v);
        for _ in 0..3 {
            v = crate::hmac::hmac_sha256(&k, &v);
            assert_eq!(nonces.next_candidate(), U256::from_be_bytes(&v));
            let mut mac = HmacSha256::new(&k);
            mac.update(&v);
            mac.update(&[0x00]);
            k = mac.finalize();
            v = crate::hmac::hmac_sha256(&k, &v);
        }
    }

    #[test]
    fn determinism_of_rfc6979() {
        let mut rng = StdRng::seed_from_u64(14);
        let key = SigningKey::generate(&mut rng);
        assert_eq!(
            key.sign(b"same message").to_bytes().to_vec(),
            key.sign(b"same message").to_bytes().to_vec()
        );
    }
}
