//! Regression for the arm/disarm power-cut contract.
//!
//! An early revision of [`upkit_flash::FlashDevice`] gave
//! `disarm_power_cut` an empty default body, so a device could implement
//! `arm_power_cut_after` and silently inherit a no-op disarm: the armed
//! cut then survived every simulated reboot and killed the first large
//! write after "recovery". The trait now forces both hooks to be
//! implemented; this test pins the behavioural half of the contract on
//! every implementation — arm, disarm, then a write larger than the
//! armed budget must complete uninterrupted.

use upkit_flash::fault::{FaultFlash, FaultKind, FaultPlan};
use upkit_flash::{FileFlash, FlashDevice, FlashError, FlashGeometry, SimFlash};

fn geometry() -> FlashGeometry {
    FlashGeometry::untimed(4096 * 4, 4096)
}

/// Arms a 4-byte cut, disarms it, then writes 64 bytes: with a sticky
/// disarm the write dies after 4 bytes with `PowerLoss`.
fn assert_disarm_unsticks(device: &mut dyn FlashDevice, name: &str) {
    device.erase_sector(0).unwrap();
    device.arm_power_cut_after(4);
    device.disarm_power_cut();
    device
        .write(0, &[0x00; 64])
        .unwrap_or_else(|e| panic!("{name}: write after disarm must complete: {e}"));
    let mut buf = [0xAAu8; 64];
    device.read(0, &mut buf).unwrap();
    assert_eq!(buf, [0x00; 64], "{name}: every byte landed");
    // Erases consume the budget too; they must also run uninterrupted.
    device.arm_power_cut_after(4);
    device.disarm_power_cut();
    device
        .erase_sector(0)
        .unwrap_or_else(|e| panic!("{name}: erase after disarm must complete: {e}"));
}

#[test]
fn disarm_unsticks_sim_flash() {
    assert_disarm_unsticks(&mut SimFlash::new(geometry()), "SimFlash");
}

#[test]
fn disarm_unsticks_file_flash() {
    let path =
        std::env::temp_dir().join(format!("upkit-power-cut-hooks-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut flash = FileFlash::open(&path, geometry()).unwrap();
    assert_disarm_unsticks(&mut flash, "FileFlash");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn disarm_unsticks_recording_fault_flash() {
    let (mut flash, _log) = FaultFlash::recording(Box::new(SimFlash::new(geometry())));
    assert_disarm_unsticks(&mut flash, "FaultFlash (recording)");
}

#[test]
fn disarm_unsticks_fault_flash_after_its_fault_fired() {
    // The proxy's own cut state must clear on disarm as well: once the
    // planned fault has fired and power returns, the device is healthy.
    let mut flash = FaultFlash::with_fault(
        Box::new(SimFlash::new(geometry())),
        FaultPlan {
            boundary: 0,
            kind: FaultKind::CleanCut,
            recovery_cut: None,
        },
    );
    assert_eq!(flash.erase_sector(0), Err(FlashError::PowerLoss));
    flash.disarm_power_cut();
    assert_disarm_unsticks(&mut flash, "FaultFlash (post-fault)");
}
