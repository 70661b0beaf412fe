//! Device-lifetime simulation: flash wear across many sequential updates.
//!
//! NOR flash endures ~10k–100k erase cycles per sector, so an update
//! system's erase pattern bounds the device's updatable lifetime. This
//! experiment (an extension beyond the paper's figures, grounded in its
//! Fig. 6 slot configurations) applies `n` consecutive updates and tracks
//! per-sector wear:
//!
//! * **Static mode** erases the staging slot on every reception *and*
//!   erases both slots again during the boot-time swap — every update
//!   costs the staging slot two erase cycles and the bootable slot one.
//! * **A/B mode** erases only the (alternating) target slot, once — each
//!   physical sector is erased every *other* update.
//!
//! The expected endurance advantage of A/B is therefore ~4×, which
//! [`run_lifetime`] measures directly.

use std::sync::Arc;

use upkit_core::agent::AgentPhase;
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_crypto::ecdsa::SigningKey;
use upkit_flash::{standard, FlashGeometry, SimFlash};
use upkit_manifest::Version;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::{install_signed, SimDevice};
use crate::firmware::FirmwareGenerator;
use crate::scenario::{slot_layout, SlotMode, APP_ID, IDENTITY, LINK_OFFSET};

/// Wear outcome of a lifetime run.
#[derive(Clone, Copy, Debug)]
pub struct LifetimeReport {
    /// Updates successfully applied.
    pub updates_applied: u32,
    /// Highest per-sector erase count observed.
    pub max_sector_wear: u32,
    /// Total sector erasures, slot A's provisioning erase included.
    pub total_erases: u64,
}

/// Applies `updates` sequential updates under the slot configuration
/// `mode` and reports flash wear.
///
/// # Panics
///
/// Panics if any update in the chain fails — wear numbers from a partial
/// run would be meaningless.
#[must_use]
pub fn run_lifetime(mode: SlotMode, updates: u32, seed: u64) -> LifetimeReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());

    let slot_size = 4096 * 4;
    let internal = SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096));
    let (mut layout, boot_mode) = slot_layout(mode, Box::new(internal), None, slot_size);

    let generator = FirmwareGenerator::new(seed ^ 0x11FE);
    let mut current_fw = generator.base(6_000);
    install_signed(
        &mut layout,
        standard::SLOT_A,
        &IDENTITY,
        &vendor,
        &server,
        &current_fw,
        Version(1),
    );
    let mut device = SimDevice::new(
        IDENTITY,
        layout,
        boot_mode,
        None,
        (Arc::new(TinyCryptBackend), anchors),
        current_fw.len() as u32,
        false,
    );

    let mut applied = 0u32;
    for version in 2..=updates + 1 {
        let version = version as u16;
        let new_fw = generator.app_change(&current_fw, 200 + usize::from(version % 7));
        server.publish(vendor.release(new_fw.clone(), Version(version), LINK_OFFSET, APP_ID));

        let plan = device.plan();
        let token = device
            .agent
            .request_device_token(
                &mut device.layout,
                plan,
                u32::from(version).wrapping_mul(97) | 1,
            )
            .expect("agent idle");
        let prepared = server.prepare_update(&token).expect("newer release");
        let mut phase = AgentPhase::NeedMore;
        for chunk in prepared.image.to_bytes().chunks(244) {
            phase = device
                .agent
                .push_data(&mut device.layout, chunk)
                .expect("valid update");
        }
        assert_eq!(phase, AgentPhase::Complete, "update to v{version}");
        device.agent.reset(&mut device.layout).expect("reset");

        let outcome = device.reboot().expect("bootable");
        assert_eq!(outcome.version, Version(version));
        current_fw = new_fw;
        applied += 1;
    }

    LifetimeReport {
        updates_applied: applied,
        max_sector_wear: device.layout.max_sector_wear(),
        total_erases: device.layout.total_stats().sectors_erased,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_survive_a_long_update_chain() {
        for mode in [SlotMode::AB, SlotMode::Static { swap: true }] {
            let report = run_lifetime(mode, 20, 500);
            assert_eq!(report.updates_applied, 20, "{mode:?}");
        }
    }

    #[test]
    fn ab_mode_wears_flash_far_less_than_static() {
        let updates = 20;
        let ab = run_lifetime(SlotMode::AB, updates, 501);
        let static_swap = run_lifetime(SlotMode::Static { swap: true }, updates, 501);
        // A/B: each slot erased every other update → max wear ≈ n/2 (+1
        // for provisioning). Static: staging erased at reception AND at
        // the swap → max wear ≈ 2n.
        assert!(
            static_swap.max_sector_wear >= 3 * ab.max_sector_wear,
            "static {} vs A/B {}",
            static_swap.max_sector_wear,
            ab.max_sector_wear
        );
        assert!(static_swap.total_erases > 2 * ab.total_erases);
    }

    #[test]
    fn ab_wear_tracks_half_the_update_count() {
        let updates = 30;
        let report = run_lifetime(SlotMode::AB, updates, 502);
        let expected = updates / 2;
        assert!(
            (report.max_sector_wear as i64 - i64::from(expected)).unsigned_abs() <= 2,
            "max wear {} vs expected ~{expected}",
            report.max_sector_wear
        );
    }
}
