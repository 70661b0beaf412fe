//! Power loss during the boot-time slot swap: the static-configuration
//! hazard that A/B updates and the recovery slot exist to mitigate.
//!
//! The paper's loading phase for Configuration B swaps the staging slot
//! into the bootable slot sector by sector. A power cut mid-swap leaves
//! *both* slots partially written — unlike a cut during propagation, which
//! the agent/bootloader double verification always survives. These tests
//! demonstrate the full risk ladder:
//!
//! 1. static swap + mid-swap cut + no recovery → the device can brick;
//! 2. the same cut with a recovery slot → restored to the factory image;
//! 3. A/B mode has no swap at all, so no cut during loading can brick it.

use std::sync::Arc;

use rand::SeedableRng;
use upkit::core::bootloader::{BootAction, BootConfig, BootError, BootMode, Bootloader};
use upkit::core::generation::{UpdateServer, VendorServer};
use upkit::core::image::{write_manifest, FIRMWARE_OFFSET};
use upkit::core::keys::TrustAnchors;
use upkit::crypto::backend::TinyCryptBackend;
use upkit::crypto::ecdsa::SigningKey;
use upkit::crypto::sha256::sha256;
use upkit::flash::layout::configuration_a_with_recovery;
use upkit::flash::{configuration_b, standard, FlashGeometry, MemoryLayout, SimFlash, SlotId};
use upkit::manifest::{Manifest, SignedManifest, Version};

const SLOT_SIZE: u32 = 4096 * 4;
const DEV: u32 = 0x5A5A;

struct World {
    vendor: VendorServer,
    server: UpdateServer,
    anchors: TrustAnchors,
}

fn world(seed: u64) -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let server = UpdateServer::new(SigningKey::generate(&mut rng));
    let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
    World {
        vendor,
        server,
        anchors,
    }
}

fn install(w: &World, layout: &mut MemoryLayout, slot: SlotId, version: u16, fill: u8) {
    let fw = vec![fill; 6_000];
    let manifest = Manifest {
        device_id: DEV,
        nonce: 0,
        old_version: Version(0),
        version: Version(version),
        size: fw.len() as u32,
        payload_size: fw.len() as u32,
        digest: sha256(&fw),
        link_offset: 0,
        app_id: 1,
    };
    let signed = SignedManifest {
        manifest,
        vendor_signature: w.vendor.sign_manifest_core(&manifest),
        server_signature: w.server.sign_manifest(&manifest),
    };
    layout.erase_slot(slot).unwrap();
    write_manifest(layout, slot, &signed).unwrap();
    layout.write_slot(slot, FIRMWARE_OFFSET, &fw).unwrap();
}

fn bootloader(w: &World, mode: BootMode, recovery: Option<SlotId>) -> Bootloader {
    Bootloader::new(
        Arc::new(TinyCryptBackend),
        w.anchors,
        BootConfig {
            device_id: DEV,
            app_id: 1,
            allowed_link_offsets: vec![0],
            max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
            mode,
            recovery_slot: recovery,
        },
    )
}

fn static_mode() -> BootMode {
    BootMode::Static {
        bootable: standard::SLOT_A,
        staging: standard::SLOT_B,
        swap: true,
    }
}

#[test]
fn mid_swap_power_cut_can_brick_a_static_device_without_recovery() {
    let w = world(1);
    let mut layout = configuration_b(
        Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
        None,
        SLOT_SIZE,
    )
    .unwrap();
    install(&w, &mut layout, standard::SLOT_A, 1, 0xAA);
    install(&w, &mut layout, standard::SLOT_B, 2, 0xBB);

    // Cut power after ~1.5 swapped sectors: both slots now hold a mix.
    layout
        .device_mut(0)
        .unwrap()
        .arm_power_cut_after(16384 + 2048); // mid-erase of the second sector
    let boot = bootloader(&w, static_mode(), None);
    assert!(matches!(boot.boot(&mut layout), Err(BootError::Layout(_))));

    // Power restored; the next boot finds no intact image anywhere.
    layout.device_mut(0).unwrap().disarm_power_cut();
    assert!(
        matches!(boot.boot(&mut layout), Err(BootError::NoValidImage(_))),
        "mid-swap corruption must be visible (not silently booted)"
    );
}

#[test]
fn recovery_slot_saves_the_interrupted_swap() {
    let w = world(2);
    // Configuration A layout gives us a third (recovery) slot; drive it in
    // static mode over slots A/B with recovery fallback.
    let mut layout = configuration_a_with_recovery(
        Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
        Box::new(SimFlash::new(FlashGeometry::external_spi_nor())),
        SLOT_SIZE,
    )
    .unwrap();
    install(&w, &mut layout, standard::SLOT_A, 1, 0xAA);
    install(&w, &mut layout, standard::SLOT_B, 2, 0xBB);
    install(&w, &mut layout, standard::RECOVERY, 1, 0xCC);

    layout
        .device_mut(0)
        .unwrap()
        .arm_power_cut_after(16384 + 2048); // mid-erase of the second sector
    let boot = bootloader(&w, static_mode(), Some(standard::RECOVERY));
    let _ = boot.boot(&mut layout); // interrupted mid-swap

    layout.device_mut(0).unwrap().disarm_power_cut();
    let outcome = boot
        .boot(&mut layout)
        .expect("recovery must save the device");
    assert_eq!(outcome.action, BootAction::RestoredFromRecovery);
    assert_eq!(outcome.version, Version(1));
}

#[test]
fn ab_mode_loading_has_no_swap_to_interrupt() {
    let w = world(3);
    let mut layout = configuration_a_with_recovery(
        Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
        Box::new(SimFlash::new(FlashGeometry::external_spi_nor())),
        SLOT_SIZE,
    )
    .unwrap();
    install(&w, &mut layout, standard::SLOT_A, 1, 0xAA);
    install(&w, &mut layout, standard::SLOT_B, 2, 0xBB);

    // Arm an aggressive cut: A/B loading performs no writes or erases, so
    // it never trips.
    layout.device_mut(0).unwrap().arm_power_cut_after(0);
    let boot = bootloader(
        &w,
        BootMode::AB {
            slots: vec![standard::SLOT_A, standard::SLOT_B],
        },
        None,
    );
    let outcome = boot
        .boot(&mut layout)
        .expect("A/B boot needs no flash writes");
    assert_eq!(outcome.version, Version(2));
    assert_eq!(outcome.action, BootAction::JumpedInPlace);
}

// ---- multi-component mixed-set scenarios ----
//
// A multi-component install replaces several images; the hazard is no
// longer just a torn slot but a *mixed set* — some components new, some
// old. The commit journal must make the flip all-or-nothing from any cut.

mod multi {
    use upkit::core::bootloader::BootAction;
    use upkit::core::components::{set_journal_marker, JOURNAL_DONE_OFFSET};
    use upkit::flash::SimFlash;
    use upkit::manifest::Version;
    use upkit::net::SessionOutcome;
    use upkit::sim::{update_world, world_geometry, WorldConfig, WorldMode, DEFAULT_MAX_BOOTS};

    fn config(seed: u64, components: u8) -> WorldConfig {
        WorldConfig {
            seed,
            firmware_size: 6_000,
            slot_size: 4096 * 3,
            mode: WorldMode::Multi { components },
        }
    }

    /// A cut while components are still being staged (before the commit
    /// record exists) must boot the complete old set.
    #[test]
    fn cut_between_component_stagings_boots_the_complete_old_set() {
        let cfg = config(30, 3);
        let mut world = update_world(&cfg, Box::new(SimFlash::new(world_geometry(&cfg))));
        // Budget covers component 0's staging (erase 3 sectors + manifest
        // + firmware) and dies inside component 1's.
        world
            .layout
            .device_mut(0)
            .unwrap()
            .arm_power_cut_after(3 * 4096 + 7_000 + 3 * 4096 + 1_000);
        assert!(matches!(world.run_push_once(1), SessionOutcome::Incomplete));

        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.version, Version(1));
        assert_eq!(world.component_versions(), vec![Some(Version(1)); 3]);
        assert!(!world.component_set_mixed());
    }

    /// A cut *between component swaps* of the journal replay: the record
    /// is committed, so the next boot must roll forward to the complete
    /// new set — never a mix.
    #[test]
    fn cut_between_component_swaps_rolls_forward_to_the_complete_new_set() {
        let cfg = config(31, 3);
        let mut world = update_world(&cfg, Box::new(SimFlash::new(world_geometry(&cfg))));
        assert!(matches!(world.run_push_once(1), SessionOutcome::Complete));

        // Replay component 0 by hand (one copy + its done marker), as a
        // replay interrupted right between the first and second component
        // swap would leave flash.
        let multi = world.multi.clone().unwrap();
        world
            .layout
            .copy_slot(multi.components[0].staging, multi.components[0].bootable)
            .unwrap();
        set_journal_marker(&mut world.layout, multi.journal, JOURNAL_DONE_OFFSET).unwrap();
        // Flash now holds a mixed set — but no stable boot has seen it.
        assert!(world.component_set_mixed());

        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.version, Version(2));
        assert_eq!(world.component_versions(), vec![Some(Version(2)); 3]);
        assert!(!world.component_set_mixed());
    }

    /// Double cut mid-journal-replay: the first boot's replay is cut
    /// mid-copy, the second boot replays from the markers and completes.
    #[test]
    fn double_cut_mid_replay_still_converges_to_the_new_set() {
        let cfg = config(32, 2);
        let mut world = update_world(&cfg, Box::new(SimFlash::new(world_geometry(&cfg))));
        assert!(matches!(world.run_push_once(1), SessionOutcome::Complete));

        // First power-on: the replay dies mid-way through the copies.
        world
            .layout
            .device_mut(0)
            .unwrap()
            .arm_power_cut_after(4 * 4096);
        assert!(
            world.bootloader().boot(&mut world.layout).is_err(),
            "replay was cut"
        );
        // Second power-on: the fixed-point loop disarms the cut and the
        // replay resumes from the done markers.
        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.version, Version(2));
        assert_eq!(world.component_versions(), vec![Some(Version(2)); 2]);
        assert!(!world.component_set_mixed());
    }

    /// The complete marker makes replay a no-op: a committed set boots
    /// stably and the journal is not replayed again.
    #[test]
    fn committed_set_boots_stably_without_replaying() {
        let cfg = config(33, 2);
        let mut world = update_world(&cfg, Box::new(SimFlash::new(world_geometry(&cfg))));
        assert!(matches!(world.run_push_once(1), SessionOutcome::Complete));
        let report = world.reboot_to_fixed_point(DEFAULT_MAX_BOOTS).unwrap();
        assert_eq!(report.outcome.action, BootAction::BootedExisting);
        assert_eq!(report.outcome.version, Version(2));

        // A later boot moves no flash at all.
        world.layout.reset_stats();
        assert_eq!(world.reboot(), Some(Version(2)));
        assert_eq!(world.layout.total_stats().bytes_written, 0);
        assert_eq!(world.layout.total_stats().sectors_erased, 0);
    }
}
