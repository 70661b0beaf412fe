//! A complete simulated device: flash + agent + bootloader + identity.
//!
//! [`SimDevice`] bundles the pieces every scenario wires together by hand,
//! exposing the lifecycle a deployed UpKit device actually runs: poll the
//! update server, receive/verify/store, reboot. Fleet-scale experiments
//! ([`crate::fleet`]) are built on it.

use std::sync::Arc;

use upkit_core::agent::{AgentConfig, AgentError, UpdateAgent, UpdatePlan};
use upkit_core::bootloader::{BootConfig, BootMode, Bootloader};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::image::FIRMWARE_OFFSET;
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_flash::{configuration_a, standard, FlashGeometry, MemoryLayout, SimFlash, SlotId};
use upkit_manifest::Version;
use upkit_net::{
    BorderRouter, LinkProfile, LossyLink, PullEndpoints, PullSession, RetryPolicy, SessionOutcome,
    TransferAccounting, Transport,
};

/// What one poll of the update server achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// Nothing newer on the server.
    AlreadyCurrent,
    /// An update was received, verified, and booted.
    Updated {
        /// The version now running.
        to: Version,
        /// Wire bytes received.
        wire_bytes: u64,
    },
    /// The update was rejected (attack or corruption).
    Rejected,
}

/// A self-contained A/B device.
pub struct SimDevice {
    /// The device's unique identifier.
    pub device_id: u32,
    layout: MemoryLayout,
    agent: UpdateAgent,
    bootloader: Bootloader,
    running_slot: SlotId,
    installed_version: Version,
    installed_size: u32,
    slot_size: u32,
    nonce_counter: u32,
}

impl core::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SimDevice")
            .field("device_id", &self.device_id)
            .field("installed_version", &self.installed_version)
            .finish_non_exhaustive()
    }
}

/// Shared constants for devices provisioned by [`SimDevice::provision`].
pub const APP_ID: u32 = 0xF1;
/// Link offset used by provisioned devices.
pub const LINK_OFFSET: u32 = 0;

/// Slot size of a device provisioned with a `firmware_len`-byte image:
/// header and image rounded up to whole sectors, plus four sectors of
/// headroom for larger releases.
pub(crate) fn slot_size_for(firmware_len: usize) -> u32 {
    (firmware_len as u32 + FIRMWARE_OFFSET).div_ceil(4096) * 4096 + 4096 * 4
}

impl SimDevice {
    /// Factory-provisions a device running `firmware` as version 1, signed
    /// by the given servers and trusting their keys.
    ///
    /// # Panics
    ///
    /// Panics if the firmware does not fit the slot layout — a
    /// provisioning-time configuration error.
    #[must_use]
    pub fn provision(
        device_id: u32,
        firmware: &[u8],
        vendor: &VendorServer,
        server: &UpdateServer,
    ) -> Self {
        Self::provision_with_options(device_id, firmware, vendor, server, true)
    }

    /// [`SimDevice::provision`] with control over differential support
    /// (non-supporting devices advertise version 0 in their tokens and
    /// always receive full images).
    #[must_use]
    pub fn provision_with_options(
        device_id: u32,
        firmware: &[u8],
        vendor: &VendorServer,
        server: &UpdateServer,
        supports_differential: bool,
    ) -> Self {
        let slot_size = slot_size_for(firmware.len());
        let mut layout = configuration_a(
            Box::new(SimFlash::new(FlashGeometry {
                size: (slot_size * 2).next_power_of_two().max(64 * 1024),
                sector_size: 4096,
                read_micros_per_byte: 0,
                write_micros_per_byte: 0,
                erase_micros_per_sector: 0,
            })),
            slot_size,
        )
        .expect("valid provisioning layout");
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
        let backend = Arc::new(TinyCryptBackend);

        // Install the factory image.
        let manifest = upkit_manifest::Manifest {
            device_id,
            nonce: 0,
            old_version: Version(0),
            version: Version(1),
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest: upkit_crypto::sha256::sha256(firmware),
            link_offset: LINK_OFFSET,
            app_id: APP_ID,
        };
        let signed = upkit_manifest::SignedManifest {
            manifest,
            vendor_signature: vendor.sign_manifest_core(&manifest),
            server_signature: server.sign_manifest(&manifest),
        };
        layout.erase_slot(standard::SLOT_A).expect("fresh flash");
        upkit_core::image::write_manifest(&mut layout, standard::SLOT_A, &signed)
            .expect("fresh flash");
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, firmware)
            .expect("slot sized for firmware");

        let agent = UpdateAgent::new(
            backend.clone(),
            anchors,
            AgentConfig {
                device_id,
                app_id: APP_ID,
                supports_differential,
                content_key: None,
            },
        );
        let bootloader = Bootloader::new(
            backend,
            anchors,
            BootConfig {
                device_id,
                app_id: APP_ID,
                allowed_link_offsets: vec![LINK_OFFSET],
                max_firmware_size: slot_size - FIRMWARE_OFFSET,
                mode: BootMode::AB {
                    slots: vec![standard::SLOT_A, standard::SLOT_B],
                },
                recovery_slot: None,
            },
        );
        Self {
            device_id,
            layout,
            agent,
            bootloader,
            running_slot: standard::SLOT_A,
            installed_version: Version(1),
            installed_size: firmware.len() as u32,
            slot_size,
            nonce_counter: device_id.wrapping_mul(2_654_435_761),
        }
    }

    /// Version currently running.
    #[must_use]
    pub fn installed_version(&self) -> Version {
        self.installed_version
    }

    /// Polls the server once: request a token, receive whatever it serves,
    /// verify, store, and reboot if an update landed.
    ///
    /// Runs a reliable pull session to completion — the same resumable
    /// machinery the event-driven fleet scheduler steps one event at a
    /// time.
    pub fn poll(&mut self, server: &UpdateServer) -> Result<PollOutcome, AgentError> {
        self.nonce_counter = self.nonce_counter.wrapping_add(0x9E37_79B9) | 1;
        let target = if self.running_slot == standard::SLOT_A {
            standard::SLOT_B
        } else {
            standard::SLOT_A
        };
        let plan = UpdatePlan {
            target_slot: target,
            current_slot: self.running_slot,
            installed_version: self.installed_version,
            installed_size: self.installed_size,
            allowed_link_offsets: vec![LINK_OFFSET],
            max_firmware_size: self.slot_size - FIRMWARE_OFFSET,
        };
        let link = LinkProfile::ieee802154_6lowpan();
        let report = {
            let router = BorderRouter::new();
            let mut session = PullSession::new(
                LossyLink::reliable(link),
                RetryPolicy::for_link(&link),
                u64::from(self.device_id),
            );
            let mut endpoints = PullEndpoints::new(
                server,
                &router,
                &mut self.agent,
                &mut self.layout,
                plan,
                self.nonce_counter,
            );
            session.run_to_completion(&mut endpoints)
        };
        match report.outcome {
            SessionOutcome::NoUpdateAvailable => {
                self.agent.reset(&mut self.layout)?;
                Ok(PollOutcome::AlreadyCurrent)
            }
            SessionOutcome::RejectedAtManifest(e)
                if report.accounting == TransferAccounting::default() =>
            {
                // The agent refused to even issue a token (no radio
                // traffic at all): surface the error, as a direct
                // `request_device_token` call would.
                Err(e)
            }
            SessionOutcome::Complete => {
                self.agent.reset(&mut self.layout)?;

                // Reboot into the bootloader.
                let outcome = self
                    .bootloader
                    .boot(&mut self.layout)
                    .expect("a verified update never bricks the device");
                self.running_slot = outcome.booted_slot;
                self.installed_version = outcome.version;
                if let Ok(Some(signed)) =
                    upkit_core::image::read_manifest(&self.layout, outcome.booted_slot)
                {
                    self.installed_size = signed.manifest.size;
                }
                Ok(PollOutcome::Updated {
                    to: outcome.version,
                    // Reliable link: exactly the stream length.
                    wire_bytes: report.accounting.bytes_to_device,
                })
            }
            _ => {
                self.agent.reset(&mut self.layout)?;
                Ok(PollOutcome::Rejected)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::ecdsa::SigningKey;

    fn servers(seed: u64) -> (VendorServer, UpdateServer) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            VendorServer::new(SigningKey::generate(&mut rng)),
            UpdateServer::new(SigningKey::generate(&mut rng)),
        )
    }

    #[test]
    fn device_updates_itself_across_versions() {
        let (vendor, mut server) = servers(600);
        let generator = crate::FirmwareGenerator::new(600);
        let v1 = generator.base(8_000);
        let mut device = SimDevice::provision(0xD01, &v1, &vendor, &server);
        server.publish(vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID));

        assert_eq!(device.poll(&server).unwrap(), PollOutcome::AlreadyCurrent);

        let v2 = generator.app_change(&v1, 300);
        server.publish(vendor.release(v2.clone(), Version(2), LINK_OFFSET, APP_ID));
        match device.poll(&server).unwrap() {
            PollOutcome::Updated { to, wire_bytes } => {
                assert_eq!(to, Version(2));
                // Differential: far fewer wire bytes than the image.
                assert!(wire_bytes < v2.len() as u64 / 2, "{wire_bytes}");
            }
            other => panic!("expected update, got {other:?}"),
        }
        assert_eq!(device.installed_version(), Version(2));

        // Polling again is a no-op.
        assert_eq!(device.poll(&server).unwrap(), PollOutcome::AlreadyCurrent);
    }

    #[test]
    fn devices_are_isolated() {
        let (vendor, mut server) = servers(601);
        let generator = crate::FirmwareGenerator::new(601);
        let v1 = generator.base(5_000);
        server.publish(vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID));
        let v2 = generator.app_change(&v1, 100);
        server.publish(vendor.release(v2, Version(2), LINK_OFFSET, APP_ID));

        let mut a = SimDevice::provision(0xA, &v1, &vendor, &server);
        let mut b = SimDevice::provision(0xB, &v1, &vendor, &server);
        assert!(matches!(
            a.poll(&server).unwrap(),
            PollOutcome::Updated { .. }
        ));
        // Device B is unaffected by A's update until it polls itself.
        assert_eq!(b.installed_version(), Version(1));
        assert!(matches!(
            b.poll(&server).unwrap(),
            PollOutcome::Updated { .. }
        ));
    }
}
