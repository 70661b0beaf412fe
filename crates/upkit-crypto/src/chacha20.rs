//! ChaCha20 stream cipher (RFC 8439).
//!
//! Implements the paper's *future work*: "add a decryption stage in
//! UpKit's pipeline module, in order to make confidentiality independent
//! from the employed transport security layer." ChaCha20 is the natural
//! choice for the target class of devices — pure ARX operations, no
//! tables, tiny state — and is what TinyDTLS-class libraries ship for
//! constrained platforms.
//!
//! Only the keystream/XOR primitive lives here; authentication is not
//! needed on this path because UpKit already authenticates the firmware
//! through the signed manifest digest (encrypt-then-sign at the image
//! level).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::vec::Vec;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    let (key_words, _) = key.as_chunks::<4>();
    for (word, bytes) in state[4..12].iter_mut().zip(key_words) {
        *word = u32::from_le_bytes(*bytes);
    }
    state[12] = counter;
    let (nonce_words, _) = nonce.as_chunks::<4>();
    for (word, bytes) in state[13..16].iter_mut().zip(nonce_words) {
        *word = u32::from_le_bytes(*bytes);
    }

    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Incremental ChaCha20 cipher. Encryption and decryption are the same
/// XOR operation; [`ChaCha20::apply`] can be called repeatedly on
/// consecutive chunks of any size (radio MTUs in UpKit's pipeline).
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    counter: u32,
    buffered: [u8; BLOCK_LEN],
    buffered_used: usize,
}

impl core::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("ChaCha20")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl ChaCha20 {
    /// Creates a cipher with the RFC 8439 initial block counter of 1.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Self::with_counter(key, nonce, 1)
    }

    /// Creates a cipher starting at an explicit block counter.
    #[must_use]
    pub fn with_counter(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        Self {
            key: *key,
            nonce: *nonce,
            counter,
            buffered: [0; BLOCK_LEN],
            buffered_used: BLOCK_LEN,
        }
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    pub fn apply(&mut self, data: &mut [u8]) {
        for byte in data {
            if self.buffered_used == BLOCK_LEN {
                self.buffered = block(&self.key, &self.nonce, self.counter);
                self.counter = self.counter.wrapping_add(1);
                self.buffered_used = 0;
            }
            *byte ^= self.buffered[self.buffered_used];
            self.buffered_used += 1;
        }
    }
}

/// One-shot encryption/decryption.
#[must_use]
pub fn chacha20_xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    ChaCha20::new(key, nonce).apply(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;

    fn rfc_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2.
        let key = rfc_key();
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, &nonce, 1);
        assert_eq!(
            &out[..16],
            &[
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
                0x71, 0xc4
            ]
        );
        assert_eq!(
            &out[48..],
            &[
                0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50,
                0x3c, 0x4e
            ]
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2: the "sunscreen" plaintext.
        let key = rfc_key();
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ciphertext = chacha20_xor(&key, &nonce, plaintext);
        assert_eq!(
            &ciphertext[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
                0x69, 0x81
            ]
        );
        assert_eq!(ciphertext.len(), 114);
        assert_eq!(&ciphertext[ciphertext.len() - 2..], &[0x87, 0x4d]);
    }

    #[test]
    fn xor_is_an_involution() {
        let key = [7u8; KEY_LEN];
        let nonce = [9u8; NONCE_LEN];
        let data = b"firmware image payload".to_vec();
        let encrypted = chacha20_xor(&key, &nonce, &data);
        assert_ne!(encrypted, data);
        assert_eq!(chacha20_xor(&key, &nonce, &encrypted), data);
    }

    #[test]
    fn chunked_matches_one_shot() {
        let key = [1u8; KEY_LEN];
        let nonce = [2u8; NONCE_LEN];
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let expected = chacha20_xor(&key, &nonce, &data);
        for chunk_size in [1usize, 3, 63, 64, 65, 100, 999] {
            let mut cipher = ChaCha20::new(&key, &nonce);
            let mut out = data.clone();
            for piece in out.chunks_mut(chunk_size) {
                cipher.apply(piece);
            }
            assert_eq!(out, expected, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let key = [3u8; KEY_LEN];
        let a = chacha20_xor(&key, &[0u8; NONCE_LEN], &[0u8; 64]);
        let b = chacha20_xor(&key, &[1u8; NONCE_LEN], &[0u8; 64]);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_hides_key() {
        let cipher = ChaCha20::new(&[0xAB; KEY_LEN], &[0; NONCE_LEN]);
        assert!(!format!("{cipher:?}").contains("171")); // 0xAB
    }
}
