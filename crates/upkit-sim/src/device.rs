//! The one provisioned flash-backed device: flash layout + update agent +
//! bootloader + identity.
//!
//! An UpKit device pairs its update agent with a bootloader that share
//! one security backend, one pair of trust anchors and one slot layout
//! (Figs. 3 and 6). [`SimDevice`] is that pairing, built in one place: the
//! fleet device ([`SimDevice::provision`], polled by [`crate::fleet`]),
//! the Fig. 8 scenarios, the wear chain, the failure worlds and the
//! `loss_sweep` bench all run on it, and keep only their own keys,
//! firmware, flash geometry, session and accounting. It exposes the
//! lifecycle a deployed UpKit device runs: poll the update server,
//! receive/verify/store, reboot.

use std::sync::Arc;

use upkit_core::agent::{AgentConfig, AgentError, UpdateAgent, UpdatePlan};
use upkit_core::bootloader::{BootConfig, BootError, BootMode, BootOutcome, Bootloader};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::image::{read_manifest, write_manifest, FIRMWARE_OFFSET};
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::{SecurityBackend, TinyCryptBackend};
use upkit_crypto::sha256::sha256;
use upkit_flash::{standard, FlashGeometry, MemoryLayout, SimFlash, SlotId};
use upkit_manifest::{Manifest, SignedManifest, Version};
use upkit_net::{
    BorderRouter, LinkProfile, LossyLink, PullEndpoints, PullSession, RetryPolicy, SessionOutcome,
    TransferAccounting, Transport,
};

use crate::scenario::{slot_layout, SlotMode};

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

/// The manifest fields a device checks every image against.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Identity {
    pub(crate) device_id: u32,
    pub(crate) app_id: u32,
    pub(crate) link_offset: u32,
}

impl Identity {
    /// The factory manifest of `firmware` at `version`, signed by both
    /// servers, with no token fields (nonce 0, no differential base).
    pub(crate) fn signed_manifest(
        &self,
        vendor: &VendorServer,
        server: &UpdateServer,
        firmware: &[u8],
        version: Version,
    ) -> SignedManifest {
        let manifest = Manifest {
            device_id: self.device_id,
            nonce: 0,
            old_version: Version(0),
            version,
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest: sha256(firmware),
            link_offset: self.link_offset,
            app_id: self.app_id,
        };
        SignedManifest {
            manifest,
            vendor_signature: vendor.sign_manifest_core(&manifest),
            server_signature: server.sign_manifest(&manifest),
        }
    }
}

/// Installs `firmware` as the running `version` image in `slot`, with a
/// correctly double-signed manifest so the bootloader accepts it: erase
/// the slot, then write the header and the image.
pub(crate) fn install_signed(
    layout: &mut MemoryLayout,
    slot: SlotId,
    identity: &Identity,
    vendor: &VendorServer,
    server: &UpdateServer,
    firmware: &[u8],
    version: Version,
) {
    let signed = identity.signed_manifest(vendor, server, firmware, version);
    layout.erase_slot(slot).expect("fresh flash");
    write_manifest(layout, slot, &signed).expect("fresh flash");
    layout
        .write_slot(slot, FIRMWARE_OFFSET, firmware)
        .expect("slot sized for firmware");
}

/// A provisioned device: flash layout, update agent and bootloader over
/// one backend and one pair of trust anchors. It starts out running v1
/// from slot A.
pub struct SimDevice {
    /// The device's unique identifier.
    pub device_id: u32,
    /// The device's memory layout.
    pub layout: MemoryLayout,
    /// The device's update agent.
    pub agent: UpdateAgent,
    /// The configuration of the device's bootloader.
    pub(crate) boot_config: BootConfig,
    backend: Arc<dyn SecurityBackend>,
    anchors: TrustAnchors,
    running_slot: SlotId,
    installed_version: Version,
    installed_size: u32,
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

/// The token nonce a device counts from: its id spread over `u32` by
/// Knuth's multiplicative-hash prime.
pub(crate) fn first_nonce(device_id: u32) -> u32 {
    device_id.wrapping_mul(2_654_435_761)
}

/// The nonce a device presents on its next poll after presenting `nonce`:
/// a fresh odd value, so never the 0 of a factory manifest.
pub(crate) fn next_nonce(nonce: u32) -> u32 {
    nonce.wrapping_add(0x9E37_79B9) | 1
}

/// Slot size of a device provisioned with a `firmware_len`-byte image:
/// header and image rounded up to whole sectors, plus four sectors of
/// headroom for larger releases.
pub(crate) fn slot_size_for(firmware_len: usize) -> u32 {
    (firmware_len as u32 + FIRMWARE_OFFSET).div_ceil(4096) * 4096 + 4096 * 4
}

impl SimDevice {
    /// A device over `layout`, whose slot A already holds the signed v1
    /// image of `installed_size` bytes. The agent and the bootloader share
    /// `backend` and `anchors`; the bootloader loads by `boot_mode` and
    /// accepts images up to slot A's size.
    pub(crate) fn new(
        identity: Identity,
        layout: MemoryLayout,
        boot_mode: BootMode,
        recovery_slot: Option<SlotId>,
        (backend, anchors): (Arc<dyn SecurityBackend>, TrustAnchors),
        installed_size: u32,
        supports_differential: bool,
    ) -> Self {
        let Identity {
            device_id,
            app_id,
            link_offset,
        } = identity;
        let max_firmware_size = layout
            .slot(standard::SLOT_A)
            .map_or(0, |slot| slot.size.saturating_sub(FIRMWARE_OFFSET));
        Self {
            device_id,
            agent: UpdateAgent::new(
                backend.clone(),
                anchors,
                AgentConfig::new(device_id, app_id, supports_differential),
            ),
            layout,
            boot_config: BootConfig {
                device_id,
                app_id,
                allowed_link_offsets: vec![link_offset],
                max_firmware_size,
                mode: boot_mode,
                recovery_slot,
            },
            backend,
            anchors,
            running_slot: standard::SLOT_A,
            installed_version: Version(1),
            installed_size,
            nonce_counter: first_nonce(device_id),
        }
    }

    /// Factory-provisions an A/B device running `firmware` as version 1,
    /// signed by the given servers and trusting their keys. A device that
    /// does not `supports_differential` advertises version 0 in its tokens
    /// and always receives full images.
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
        supports_differential: bool,
    ) -> Self {
        let identity = Identity {
            device_id,
            app_id: APP_ID,
            link_offset: LINK_OFFSET,
        };
        let slot_size = slot_size_for(firmware.len());
        let internal = SimFlash::new(FlashGeometry::untimed(
            (slot_size * 2).next_power_of_two().max(64 * 1024),
            4096,
        ));
        let (mut layout, boot_mode) =
            slot_layout(SlotMode::AB, Box::new(internal), None, slot_size);
        install_signed(
            &mut layout,
            standard::SLOT_A,
            &identity,
            vendor,
            server,
            firmware,
            Version(1),
        );
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
        Self::new(
            identity,
            layout,
            boot_mode,
            None,
            (Arc::new(TinyCryptBackend), anchors),
            firmware.len() as u32,
            supports_differential,
        )
    }

    /// Version currently running.
    #[must_use]
    pub fn installed_version(&self) -> Version {
        self.installed_version
    }

    /// The plan of the next update: into the other A/B slot, or into the
    /// staging slot of a static device.
    #[must_use]
    pub fn plan(&self) -> UpdatePlan {
        let target_slot = match self.boot_config.mode {
            BootMode::AB { .. } if self.running_slot == standard::SLOT_B => standard::SLOT_A,
            _ => standard::SLOT_B,
        };
        UpdatePlan {
            target_slot,
            current_slot: self.running_slot,
            installed_version: self.installed_version,
            installed_size: self.installed_size,
            allowed_link_offsets: self.boot_config.allowed_link_offsets.clone(),
            max_firmware_size: self.boot_config.max_firmware_size,
        }
    }

    /// The device's bootloader.
    pub(crate) fn bootloader(&self) -> Bootloader {
        Bootloader::new(self.backend.clone(), self.anchors, self.boot_config.clone())
    }

    /// Reboots into the bootloader and runs whatever it booted: the booted
    /// slot, version and size become the base of the next [`plan`](Self::plan).
    pub(crate) fn reboot(&mut self) -> Result<BootOutcome, BootError> {
        let outcome = self.bootloader().boot(&mut self.layout)?;
        self.running_slot = outcome.booted_slot;
        self.installed_version = outcome.version;
        if let Ok(Some(signed)) = read_manifest(&self.layout, outcome.booted_slot) {
            self.installed_size = signed.manifest.size;
        }
        Ok(outcome)
    }

    /// Polls the server once: request a token, receive whatever it serves,
    /// verify, store, and reboot if an update landed.
    ///
    /// Runs a reliable pull session to completion — the same resumable
    /// machinery the event-driven fleet scheduler steps one event at a
    /// time.
    pub fn poll(&mut self, server: &UpdateServer) -> Result<PollOutcome, AgentError> {
        self.nonce_counter = next_nonce(self.nonce_counter);
        let plan = self.plan();
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
                let outcome = self
                    .reboot()
                    .expect("a verified update never bricks the device");
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
        let mut device = SimDevice::provision(0xD01, &v1, &vendor, &server, true);
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

        let mut a = SimDevice::provision(0xA, &v1, &vendor, &server, true);
        let mut b = SimDevice::provision(0xB, &v1, &vendor, &server, true);
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
