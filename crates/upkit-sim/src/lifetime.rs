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

use upkit_core::agent::{AgentConfig, AgentPhase, UpdateAgent, UpdatePlan};
use upkit_core::bootloader::{BootConfig, BootMode, Bootloader};
use upkit_core::image::FIRMWARE_OFFSET;
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_crypto::ecdsa::SigningKey;
use upkit_flash::{configuration_a, configuration_b, standard, FlashGeometry, SimFlash, SlotId};
use upkit_manifest::Version;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::firmware::FirmwareGenerator;
use crate::scenario::{install_signed, APP_ID, DEVICE_ID, LINK_OFFSET};

/// Slot strategy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifetimeMode {
    /// Two bootable slots, alternating targets.
    AB,
    /// Bootable + staging with swap at every boot.
    StaticSwap,
}

/// Wear outcome of a lifetime run.
#[derive(Clone, Copy, Debug)]
pub struct LifetimeReport {
    /// Updates successfully applied.
    pub updates_applied: u32,
    /// Highest per-sector erase count observed.
    pub max_sector_wear: u32,
    /// Total sector erasures.
    pub total_erases: u64,
}

/// Applies `updates` sequential updates and reports flash wear.
///
/// # Panics
///
/// Panics if any update in the chain fails — wear numbers from a partial
/// run would be meaningless.
#[must_use]
pub fn run_lifetime(mode: LifetimeMode, updates: u32, seed: u64) -> LifetimeReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let vendor = upkit_core::generation::VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = upkit_core::generation::UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    let backend = Arc::new(TinyCryptBackend);

    let slot_size = 4096 * 4;
    let geometry = FlashGeometry {
        size: 4096 * 16,
        sector_size: 4096,
        read_micros_per_byte: 0,
        write_micros_per_byte: 0,
        erase_micros_per_sector: 0,
    };
    let mut layout = match mode {
        LifetimeMode::AB => configuration_a(Box::new(SimFlash::new(geometry)), slot_size),
        LifetimeMode::StaticSwap => {
            configuration_b(Box::new(SimFlash::new(geometry)), None, slot_size)
        }
    }
    .expect("valid layout");

    let generator = FirmwareGenerator::new(seed ^ 0x11FE);
    let mut current_fw = generator.base(6_000);
    install_signed(
        &mut layout,
        standard::SLOT_A,
        &vendor,
        &server,
        &current_fw,
        Version(1),
    );

    let mut agent = UpdateAgent::new(
        backend.clone(),
        anchors,
        AgentConfig {
            device_id: DEVICE_ID,
            app_id: APP_ID,
            supports_differential: false,
            content_key: None,
        },
    );
    let boot_mode = match mode {
        LifetimeMode::AB => BootMode::AB {
            slots: vec![standard::SLOT_A, standard::SLOT_B],
        },
        LifetimeMode::StaticSwap => BootMode::Static {
            bootable: standard::SLOT_A,
            staging: standard::SLOT_B,
            swap: true,
        },
    };
    let bootloader = Bootloader::new(
        backend,
        anchors,
        BootConfig {
            device_id: DEVICE_ID,
            app_id: APP_ID,
            allowed_link_offsets: vec![LINK_OFFSET],
            max_firmware_size: slot_size - FIRMWARE_OFFSET,
            mode: boot_mode,
            recovery_slot: None,
        },
    );

    let mut running_slot = standard::SLOT_A;
    let mut applied = 0u32;
    for version in 2..=updates + 1 {
        let version = version as u16;
        let new_fw = generator.app_change(&current_fw, 200 + usize::from(version % 7));
        server.publish(vendor.release(new_fw.clone(), Version(version), LINK_OFFSET, APP_ID));

        let target: SlotId = match mode {
            LifetimeMode::AB => {
                if running_slot == standard::SLOT_A {
                    standard::SLOT_B
                } else {
                    standard::SLOT_A
                }
            }
            LifetimeMode::StaticSwap => standard::SLOT_B,
        };
        let plan = UpdatePlan {
            target_slot: target,
            current_slot: running_slot,
            installed_version: Version(version - 1),
            installed_size: current_fw.len() as u32,
            allowed_link_offsets: vec![LINK_OFFSET],
            max_firmware_size: slot_size - FIRMWARE_OFFSET,
        };
        let token = agent
            .request_device_token(&mut layout, plan, u32::from(version).wrapping_mul(97) | 1)
            .expect("agent idle");
        let prepared = server.prepare_update(&token).expect("newer release");
        let mut phase = AgentPhase::NeedMore;
        for chunk in prepared.image.to_bytes().chunks(244) {
            phase = agent.push_data(&mut layout, chunk).expect("valid update");
        }
        assert_eq!(phase, AgentPhase::Complete, "update to v{version}");
        agent.reset(&mut layout).expect("reset");

        let outcome = bootloader.boot(&mut layout).expect("bootable");
        assert_eq!(outcome.version, Version(version));
        running_slot = outcome.booted_slot;
        current_fw = new_fw;
        applied += 1;
    }

    LifetimeReport {
        updates_applied: applied,
        max_sector_wear: layout.max_sector_wear(),
        total_erases: layout.total_stats().sectors_erased,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_survive_a_long_update_chain() {
        for mode in [LifetimeMode::AB, LifetimeMode::StaticSwap] {
            let report = run_lifetime(mode, 20, 500);
            assert_eq!(report.updates_applied, 20, "{mode:?}");
        }
    }

    #[test]
    fn ab_mode_wears_flash_far_less_than_static() {
        let updates = 20;
        let ab = run_lifetime(LifetimeMode::AB, updates, 501);
        let static_swap = run_lifetime(LifetimeMode::StaticSwap, updates, 501);
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
        let report = run_lifetime(LifetimeMode::AB, updates, 502);
        let expected = updates / 2;
        assert!(
            (report.max_sector_wear as i64 - i64::from(expected)).unsigned_abs() <= 2,
            "max wear {} vs expected ~{expected}",
            report.max_sector_wear
        );
    }
}
