//! Simulated ATECC508 hardware security module (CryptoAuthLib analogue).
//!
//! The paper pairs the TI CC2650 with Atmel's ATECC508
//! CryptoAuthentication chip to (i) store public keys in tamper-protected
//! slots and (ii) run ECDSA verification in hardware, trimming ~10 % of the
//! bootloader's flash. This module reproduces that integration point: a
//! slot-based key store with a one-way data-zone lock and hardware-offloaded
//! verification with a fixed modeled latency.

use std::sync::Mutex;

use crate::backend::{BackendProfile, KeyRef, SecurityBackend, SecurityError};
use crate::ecdsa::{Signature, VerifyingKey};

/// Number of key slots on the simulated device (the ATECC508 has 16).
pub const SLOT_COUNT: usize = 16;

/// A simulated ATECC508 crypto-authentication device.
///
/// # Examples
///
/// ```
/// use upkit_crypto::hsm::SimulatedHsm;
/// use upkit_crypto::backend::{KeyRef, SecurityBackend};
/// use upkit_crypto::ecdsa::SigningKey;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let key = SigningKey::generate(&mut rng);
///
/// let hsm = SimulatedHsm::new();
/// hsm.provision(3, key.verifying_key()).unwrap();
/// hsm.lock_data_zone();
///
/// let digest = hsm.digest(b"firmware");
/// let sig = key.sign_prehashed(&digest);
/// assert!(hsm.verify(KeyRef::Slot(3), &digest, &sig).is_ok());
/// // Locked: re-provisioning is refused.
/// assert!(hsm.provision(3, key.verifying_key()).is_err());
/// ```
#[derive(Debug)]
pub struct SimulatedHsm {
    state: Mutex<HsmState>,
}

#[derive(Debug)]
struct HsmState {
    slots: [Option<VerifyingKey>; SLOT_COUNT],
    data_zone_locked: bool,
    verify_count: u64,
}

impl Default for SimulatedHsm {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulatedHsm {
    /// Creates an unlocked device with all slots empty.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: Mutex::new(HsmState {
                slots: [None; SLOT_COUNT],
                data_zone_locked: false,
                verify_count: 0,
            }),
        }
    }

    /// Writes `key` into `slot`. Fails once the data zone is locked —
    /// this is the tamper-protection property UpKit relies on to prevent
    /// external actors from replacing the trusted public keys.
    pub fn provision(&self, slot: u8, key: VerifyingKey) -> Result<(), SecurityError> {
        let mut state = self.state.lock().expect("HSM mutex poisoned");
        if state.data_zone_locked {
            return Err(SecurityError::SlotLocked);
        }
        let idx = usize::from(slot);
        if idx >= SLOT_COUNT {
            return Err(SecurityError::EmptySlot);
        }
        state.slots[idx] = Some(key);
        Ok(())
    }

    /// Irreversibly locks the data zone (no further key writes).
    pub fn lock_data_zone(&self) {
        self.state
            .lock()
            .expect("HSM mutex poisoned")
            .data_zone_locked = true;
    }

    /// Returns whether the data zone has been locked.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.state
            .lock()
            .expect("HSM mutex poisoned")
            .data_zone_locked
    }

    /// Number of hardware verifications performed (for energy accounting).
    #[must_use]
    pub fn verify_count(&self) -> u64 {
        self.state.lock().expect("HSM mutex poisoned").verify_count
    }

    fn slot_key(&self, slot: u8) -> Result<VerifyingKey, SecurityError> {
        let state = self.state.lock().expect("HSM mutex poisoned");
        let idx = usize::from(slot);
        if idx >= SLOT_COUNT {
            return Err(SecurityError::EmptySlot);
        }
        state.slots[idx].ok_or(SecurityError::EmptySlot)
    }
}

impl SecurityBackend for SimulatedHsm {
    fn verify(
        &self,
        key: KeyRef<'_>,
        digest: &[u8; 32],
        signature: &Signature,
    ) -> Result<(), SecurityError> {
        let vk = match key {
            KeyRef::Slot(slot) => self.slot_key(slot)?,
            // The ATECC508 also verifies against caller-supplied keys; a
            // prepared key's table is of no use to the hardware.
            KeyRef::Sec1(bytes) => {
                VerifyingKey::from_sec1_bytes(bytes).map_err(|_| SecurityError::BadKey)?
            }
            KeyRef::Prepared(key) => *key.verifying_key(),
        };
        self.state.lock().expect("HSM mutex poisoned").verify_count += 1;
        vk.verify_prehashed(digest, signature)?;
        Ok(())
    }

    fn profile(&self) -> BackendProfile {
        BackendProfile {
            name: "CryptoAuthLib",
            verify_cycles: 0,
            // SHA-256 still runs on the host MCU in the paper's setup.
            digest_cycles_per_byte: 55,
            // ATECC508 ECDSA verify takes ~58 ms of device time.
            hw_verify_micros: 58_000,
            hardware_offload: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdsa::SigningKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> SigningKey {
        SigningKey::generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn verify_from_slot() {
        let key = keypair(31);
        let hsm = SimulatedHsm::new();
        hsm.provision(0, key.verifying_key()).unwrap();
        let digest = hsm.digest(b"payload");
        let sig = key.sign_prehashed(&digest);
        hsm.verify(KeyRef::Slot(0), &digest, &sig).unwrap();
        assert_eq!(hsm.verify_count(), 1);
    }

    #[test]
    fn verify_rejects_wrong_slot_key() {
        let signer = keypair(32);
        let other = keypair(33);
        let hsm = SimulatedHsm::new();
        hsm.provision(1, other.verifying_key()).unwrap();
        let digest = hsm.digest(b"payload");
        let sig = signer.sign_prehashed(&digest);
        assert_eq!(
            hsm.verify(KeyRef::Slot(1), &digest, &sig),
            Err(SecurityError::BadSignature)
        );
    }

    #[test]
    fn empty_and_out_of_range_slots() {
        let key = keypair(34);
        let hsm = SimulatedHsm::new();
        let digest = hsm.digest(b"x");
        let sig = key.sign_prehashed(&digest);
        assert_eq!(
            hsm.verify(KeyRef::Slot(5), &digest, &sig),
            Err(SecurityError::EmptySlot)
        );
        assert_eq!(
            hsm.verify(KeyRef::Slot(200), &digest, &sig),
            Err(SecurityError::EmptySlot)
        );
        assert_eq!(
            hsm.provision(200, key.verifying_key()),
            Err(SecurityError::EmptySlot)
        );
    }

    #[test]
    fn lock_prevents_reprovisioning() {
        let key = keypair(35);
        let hsm = SimulatedHsm::new();
        hsm.provision(2, key.verifying_key()).unwrap();
        assert!(!hsm.is_locked());
        hsm.lock_data_zone();
        assert!(hsm.is_locked());
        assert_eq!(
            hsm.provision(2, keypair(36).verifying_key()),
            Err(SecurityError::SlotLocked)
        );
        // Reads still work after locking.
        let digest = hsm.digest(b"y");
        let sig = key.sign_prehashed(&digest);
        hsm.verify(KeyRef::Slot(2), &digest, &sig).unwrap();
    }

    #[test]
    fn inline_keys_still_accepted() {
        let key = keypair(37);
        let hsm = SimulatedHsm::new();
        let digest = hsm.digest(b"z");
        let sig = key.sign_prehashed(&digest);
        let sec1 = key.verifying_key().to_sec1_bytes();
        hsm.verify(KeyRef::Sec1(&sec1), &digest, &sig).unwrap();
    }

    #[test]
    fn prepared_keys_verify_in_hardware() {
        let key = keypair(38);
        let hsm = SimulatedHsm::new();
        let digest = hsm.digest(b"prepared");
        let sig = key.sign_prehashed(&digest);
        let prepared = key.verifying_key().prepare();
        hsm.verify(KeyRef::Prepared(&prepared), &digest, &sig)
            .unwrap();
        assert_eq!(hsm.verify_count(), 1);
        assert_eq!(
            hsm.verify(KeyRef::Prepared(&prepared), &hsm.digest(b"other"), &sig),
            Err(SecurityError::BadSignature)
        );
        assert_eq!(hsm.verify_count(), 2);
    }

    #[test]
    fn profile_reports_hardware_offload() {
        let hsm = SimulatedHsm::new();
        let profile = hsm.profile();
        assert!(profile.hardware_offload);
        assert_eq!(profile.verify_cycles, 0);
        assert!(profile.hw_verify_micros > 0);
    }
}
