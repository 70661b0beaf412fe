//! HMAC-SHA256 (RFC 2104), used by the RFC 6979 deterministic-nonce
//! generator in [`crate::ecdsa`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA256 MAC.
///
/// # Examples
///
/// ```
/// use upkit_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"The quick brown fox jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(tag[..4], [0xf7, 0xbc, 0x83, 0xf4]);
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer_key: [u8; BLOCK_LEN],
}

impl core::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key`. Keys longer than the block size are
    /// hashed first, per RFC 2104.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut padded = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            padded[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            padded[..key.len()].copy_from_slice(key);
        }

        let mut inner_key = [0u8; BLOCK_LEN];
        let mut outer_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_key[i] = padded[i] ^ 0x36;
            outer_key[i] = padded[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&inner_key);
        Self { inner, outer_key }
    }

    /// Absorbs `data` into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Computes HMAC-SHA256 over `data` in one call.
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;
    use alloc::string::String;
    use alloc::vec::Vec;

    fn hex(tag: &[u8]) -> String {
        tag.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Test vectors from RFC 4231.
    #[test]
    fn rfc4231_case_1() {
        let tag = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let tag = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let tag = hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let tag = hmac_sha256(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut mac = HmacSha256::new(b"some-key");
        for chunk in data.chunks(17) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), hmac_sha256(b"some-key", &data));
    }
}
