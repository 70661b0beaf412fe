//! Pins the fix for the fleet-scaling hot-path bug: a device poll must
//! never serialize the full update image just to count wire bytes — the
//! size is precomputed on `PreparedUpdate` when the update is prepared —
//! nor, on a faithful device, to forward it: the proxy builds the stream
//! from the image's parts.
//!
//! `upkit_manifest::image_serializations()` is a process-global counter,
//! so this test lives in its own integration-test binary (one process,
//! one test) where no other test can contribute serializations.

use upkit_sim::{run_rollout_sharded, DeviceModel, FleetConfig, ManifestMode, ShardedFleetConfig};

#[test]
fn a_poll_performs_zero_full_image_serializations() {
    let base = ShardedFleetConfig {
        fleet: FleetConfig {
            devices: 200,
            poll_fraction: 0.4,
            firmware_size: 8_000,
            differential: true,
            seed: 0x5E51A1,
        },
        shards: 4,
        threads: 2,
        device_model: DeviceModel::Lite,
        verify_signatures: true,
        manifest_mode: ManifestMode::PerDevice,
    };

    for device_model in [DeviceModel::Lite, DeviceModel::Faithful] {
        for manifest_mode in [ManifestMode::PerDevice, ManifestMode::Campaign] {
            let before = upkit_manifest::image_serializations();
            let report = run_rollout_sharded(&ShardedFleetConfig {
                device_model,
                manifest_mode,
                ..base
            });
            let after = upkit_manifest::image_serializations();
            assert_eq!(report.rounds.last().unwrap().updated, 200);
            assert_eq!(
                after - before,
                0,
                "{device_model:?}, {manifest_mode:?}: polling serialized the full image {} \
                 times (wire sizes must come from PreparedUpdate::wire_bytes, streams from \
                 the image's parts)",
                after - before
            );
        }
    }
}
