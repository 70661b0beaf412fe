//! Freshness-policy comparison: the timestamp alternative the paper
//! considered and rejected (Sect. III-B) versus UpKit's device-token
//! double signature.
//!
//! > "We have also considered other approaches, such as the inclusion of a
//! > timestamp in the manifest indicating the expiration time of the update
//! > image. However, we excluded this approach, as it requires a reliable
//! > time source on each IoT device … Furthermore, the use of timestamps
//! > does not permit to block the installation of an update until the
//! > timestamp expires."
//!
//! This module makes that argument executable: both policies are
//! implemented against the same inputs, and the test suite demonstrates
//! the two attacks the paper names — **clock manipulation** (NTP-style
//! attacks faking the device's time source) and the **un-expired stale
//! update** (a superseded image that remains installable until its
//! timestamp runs out). The token policy is immune to both by
//! construction: it needs no clock, and every response is bound to the
//! *current* request.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use upkit_manifest::Version;

/// A device's view of wall-clock time — the "reliable time source" the
/// timestamp policy requires. `trusted` models whether the source actually
/// is reliable; NTP-fed clocks are not (the paper cites the NTP attacks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceClock {
    /// Seconds since epoch as the device believes them.
    pub now: u64,
}

impl DeviceClock {
    /// A clock reporting `now`.
    #[must_use]
    pub fn at(now: u64) -> Self {
        Self { now }
    }

    /// An attacker-influenced clock: NTP manipulation can move a device's
    /// time arbitrarily backward or forward.
    #[must_use]
    pub fn skewed(self, delta_seconds: i64) -> Self {
        Self {
            now: self.now.saturating_add_signed(delta_seconds),
        }
    }
}

/// The metadata a timestamp-freshness manifest carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimestampedClaim {
    /// Version of the image.
    pub version: Version,
    /// Image is installable until this time (seconds since epoch).
    pub expires_at: u64,
}

/// Verdict of a freshness policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreshnessVerdict {
    /// The image may be installed.
    Fresh,
    /// The image must be rejected as stale.
    Stale,
}

/// The timestamp policy: accept while the device clock is before the
/// expiry. (Signature validity over the claim is assumed; the attacks
/// below work *despite* valid signatures.)
#[must_use]
pub fn timestamp_policy(claim: &TimestampedClaim, clock: DeviceClock) -> FreshnessVerdict {
    if clock.now < claim.expires_at {
        FreshnessVerdict::Fresh
    } else {
        FreshnessVerdict::Stale
    }
}

/// UpKit's token policy: accept only a response bound to the nonce of the
/// *current* request (plus the strictly-newer version rule enforced by the
/// verifier). No clock is involved.
#[must_use]
pub fn token_policy(
    response_nonce: u32,
    current_request_nonce: u32,
    response_version: Version,
    installed_version: Version,
) -> FreshnessVerdict {
    if response_nonce == current_request_nonce && response_version > installed_version {
        FreshnessVerdict::Fresh
    } else {
        FreshnessVerdict::Stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3600;

    #[test]
    fn timestamp_policy_works_with_honest_clock() {
        let claim = TimestampedClaim {
            version: Version(2),
            expires_at: 1_000 * HOUR,
        };
        assert_eq!(
            timestamp_policy(&claim, DeviceClock::at(999 * HOUR)),
            FreshnessVerdict::Fresh
        );
        assert_eq!(
            timestamp_policy(&claim, DeviceClock::at(1_001 * HOUR)),
            FreshnessVerdict::Stale
        );
    }

    #[test]
    fn attack_1_clock_rollback_resurrects_expired_image() {
        // The NTP attack the paper cites: fake the time source backward
        // and an expired (vulnerable) image becomes installable again.
        let expired = TimestampedClaim {
            version: Version(2),
            expires_at: 1_000 * HOUR,
        };
        let honest = DeviceClock::at(2_000 * HOUR);
        assert_eq!(timestamp_policy(&expired, honest), FreshnessVerdict::Stale);
        let attacked = honest.skewed(-(1_500 * HOUR as i64));
        assert_eq!(
            timestamp_policy(&expired, attacked),
            FreshnessVerdict::Fresh,
            "clock rollback defeated the timestamp policy"
        );
    }

    #[test]
    fn attack_2_unexpired_stale_update_remains_installable() {
        // "The use of timestamps does not permit to block the installation
        // of an update until the timestamp expires": v2 has a known
        // vulnerability and v3 is out, but v2's claim is still unexpired —
        // the timestamp policy has no way to retire it early.
        let superseded = TimestampedClaim {
            version: Version(2),
            expires_at: 5_000 * HOUR, // far future
        };
        let clock = DeviceClock::at(1_000 * HOUR);
        assert_eq!(
            timestamp_policy(&superseded, clock),
            FreshnessVerdict::Fresh,
            "the stale-but-unexpired image is accepted"
        );
    }

    #[test]
    fn token_policy_stops_both_attacks_without_a_clock() {
        // Attack 1 analogue: replaying an old response (old nonce).
        assert_eq!(
            token_policy(100, 200, Version(2), Version(1)),
            FreshnessVerdict::Stale,
            "replayed response rejected"
        );
        // Attack 2 analogue: serving a superseded version to a device that
        // already runs something newer or equal.
        assert_eq!(
            token_policy(200, 200, Version(2), Version(2)),
            FreshnessVerdict::Stale,
            "superseded version rejected"
        );
        // The honest path still works.
        assert_eq!(
            token_policy(200, 200, Version(3), Version(2)),
            FreshnessVerdict::Fresh
        );
    }

    #[test]
    fn token_policy_is_clock_independent() {
        // There is simply no clock input: skewing time cannot change the
        // verdict. (The signature binding nonce→response is enforced by
        // the verifier; see `tests/security.rs`.)
        for _fake_time in [0u64, u64::MAX] {
            assert_eq!(
                token_policy(7, 7, Version(2), Version(1)),
                FreshnessVerdict::Fresh
            );
        }
    }
}
