//! End-to-end update scenarios with phase-by-phase time and energy
//! accounting — the machinery behind the Fig. 8 experiments.
//!
//! A scenario assembles a complete world: vendor + update server, a device
//! (flash layout, update agent, bootloader, crypto backend) on a
//! [`PlatformProfile`], and a transport. Running it executes the real code
//! path — genuine signatures, genuine LZSS/bsdiff, genuine flash
//! semantics — and charges every byte and cycle to the paper's three
//! phases:
//!
//! * **Propagation** — radio time (from the transport accounting) plus the
//!   flash time of storing the stream through the pipeline.
//! * **Verification** — CPU time of the digest and signature checks in the
//!   agent *and* the bootloader (both verifications, per UpKit's design).
//! * **Loading** — reboot plus whatever the bootloader's loading strategy
//!   moves (nothing for A/B; a slot swap/copy for static mode).

use std::sync::Arc;

use upkit_core::agent::{AgentConfig, UpdateAgent, UpdatePlan};
use upkit_core::bootloader::{BootConfig, BootMode, BootOutcome, Bootloader};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::image::{write_manifest, FIRMWARE_OFFSET};
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::{SecurityBackend, TinyCryptBackend, TinyDtlsBackend};
use upkit_crypto::ecdsa::SigningKey;
use upkit_crypto::hsm::SimulatedHsm;
use upkit_crypto::sha256::sha256;
use upkit_flash::{
    configuration_a, configuration_b, standard, FlashDevice, MemoryLayout, SimFlash, SlotId,
};
use upkit_manifest::{Manifest, SignedManifest, Version};
use upkit_net::{
    BorderRouter, LossyLink, PullEndpoints, PullSession, PushEndpoints, PushSession, RetryPolicy,
    SessionEndpoints, SessionOutcome, SessionReport, Smartphone, Step, Tamper, TransferAccounting,
    Transport,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::firmware::FirmwareGenerator;
use crate::platform::{EnergyModel, PlatformProfile};

/// Constant device identity used by scenarios.
pub const DEVICE_ID: u32 = 0x1A2B_3C4D;
/// Constant application identifier.
pub const APP_ID: u32 = 0x5E6F_0001;
/// Link offset all synthetic firmware is "built" for.
pub const LINK_OFFSET: u32 = 0x0800_0000;

/// Distribution approach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// BLE push through a smartphone.
    Push,
    /// CoAP pull through a border router.
    Pull,
}

/// Slot configuration (Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotMode {
    /// Configuration A: two bootable slots, boot in place.
    AB,
    /// Configuration B: bootable + staging, moved at boot.
    Static {
        /// Swap (keep a rollback image) or copy.
        swap: bool,
    },
}

/// Crypto backend selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoChoice {
    /// Software ECC, tinycrypt profile.
    TinyCrypt,
    /// Software ECC, TinyDTLS profile.
    TinyDtls,
    /// ATECC508 hardware verification.
    Hsm,
}

/// What kind of update the server should end up serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// Full image (the device advertises no differential support).
    Full,
    /// Differential, OS-version-change similarity.
    DiffOsChange,
    /// Differential, small application change of about this many bytes.
    DiffAppChange {
        /// Approximate changed-byte count (the paper uses 1000).
        bytes: usize,
    },
}

/// A scenario specification.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Hardware platform.
    pub platform: PlatformProfile,
    /// Distribution approach.
    pub approach: Approach,
    /// Slot configuration.
    pub slot_mode: SlotMode,
    /// Crypto backend.
    pub crypto: CryptoChoice,
    /// New-firmware size in bytes (the paper's Fig. 8 uses 100 kB).
    pub firmware_size: usize,
    /// Full vs differential update.
    pub update_kind: UpdateKind,
    /// Optional in-transit tampering by the proxy.
    pub tamper: Option<Tamper>,
    /// Deterministic seed (keys, nonces, firmware content).
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's Fig. 8a baseline: 100 kB full image on the nRF52840.
    #[must_use]
    pub fn fig8a(approach: Approach) -> Self {
        Self {
            platform: PlatformProfile::nrf52840(),
            approach,
            slot_mode: SlotMode::Static { swap: true },
            crypto: CryptoChoice::TinyCrypt,
            firmware_size: 100_000,
            update_kind: UpdateKind::Full,
            tamper: None,
            seed: 0x8A,
        }
    }
}

/// Per-phase times in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Propagation phase.
    pub propagation_micros: u64,
    /// Verification phase (agent + bootloader).
    pub verification_micros: u64,
    /// Loading phase (reboot + slot moves).
    pub loading_micros: u64,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    #[must_use]
    pub fn total_micros(&self) -> u64 {
        self.propagation_micros + self.verification_micros + self.loading_micros
    }
}

/// Result of one scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// How the propagation session ended.
    pub outcome: SessionOutcome,
    /// Boot outcome, when the device got as far as rebooting.
    pub boot: Option<BootOutcome>,
    /// Phase times.
    pub phases: PhaseBreakdown,
    /// Radio accounting.
    pub accounting: TransferAccounting,
    /// Total device energy in microjoules.
    pub energy_uj: f64,
    /// Bytes that crossed the radio toward the device.
    pub payload_bytes: u64,
    /// Version running after the scenario.
    pub running_version: Option<Version>,
}

fn round_up(value: u32, to: u32) -> u32 {
    value.div_ceil(to) * to
}

/// Sums flash time across every device in the layout.
fn flash_micros(layout: &mut MemoryLayout) -> u64 {
    let mut total = 0u64;
    let mut i = 0;
    while let Some(geometry) = layout.device_geometry(i) {
        let stats = layout.device_mut(i).expect("device exists").stats();
        total += stats.bytes_written * geometry.write_micros_per_byte
            + stats.sectors_erased * geometry.erase_micros_per_sector;
        i += 1;
    }
    // Reads are tracked at the layout level; charge them at the internal
    // flash rate.
    let read_rate = layout
        .device_geometry(0)
        .map_or(0, |g| g.read_micros_per_byte);
    total + layout.total_stats().bytes_read * read_rate
}

/// Steps `session` until it finishes, or abandons it at the
/// `cut_after_events`-th event boundary (simulating the device dying
/// mid-session at an arbitrary link event, not merely a flash-byte
/// offset).
pub(crate) fn step_with_cut(
    session: &mut dyn Transport,
    endpoints: &mut dyn SessionEndpoints,
    cut_after_events: Option<u64>,
) -> SessionReport {
    let mut events = 0u64;
    loop {
        if let Some(cut) = cut_after_events {
            if events >= cut {
                return SessionReport {
                    outcome: SessionOutcome::Incomplete,
                    accounting: *session.accounting(),
                };
            }
        }
        match session.step(endpoints) {
            Step::Progress(_) => events += 1,
            Step::Done(report) => return report,
        }
    }
}

/// Runs one complete update scenario.
///
/// # Panics
///
/// Panics if the configuration is internally impossible (firmware larger
/// than any slot arrangement on the platform).
#[must_use]
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    run_scenario_with_cut(cfg, None)
}

/// [`run_scenario`], optionally abandoning the propagation session after
/// `cut_after_events` link events — the session-layer generalisation of
/// flash-byte power cuts. With `None` this is exactly [`run_scenario`].
///
/// # Panics
///
/// Panics if the configuration is internally impossible (firmware larger
/// than any slot arrangement on the platform).
#[must_use]
pub fn run_scenario_with_cut(
    cfg: &ScenarioConfig,
    cut_after_events: Option<u64>,
) -> ScenarioResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- Servers and keys -------------------------------------------------
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let mut server = UpdateServer::new(SigningKey::generate(&mut rng));

    // --- Crypto backend and trust anchors ---------------------------------
    let (backend, anchors): (Arc<dyn SecurityBackend>, TrustAnchors) = match cfg.crypto {
        CryptoChoice::TinyCrypt => (
            Arc::new(TinyCryptBackend),
            TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key()),
        ),
        CryptoChoice::TinyDtls => (
            Arc::new(TinyDtlsBackend),
            TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key()),
        ),
        CryptoChoice::Hsm => {
            let hsm = SimulatedHsm::new();
            hsm.provision(0, vendor.verifying_key()).expect("unlocked");
            hsm.provision(1, server.verifying_key()).expect("unlocked");
            hsm.lock_data_zone();
            (Arc::new(hsm), TrustAnchors::hsm(0, 1))
        }
    };

    // --- Firmware versions -------------------------------------------------
    let generator = FirmwareGenerator::new(cfg.seed ^ 0xF1F2);
    let v1 = generator.base(cfg.firmware_size);
    let v2 = match cfg.update_kind {
        UpdateKind::Full | UpdateKind::DiffOsChange => generator.os_version_change(&v1),
        UpdateKind::DiffAppChange { bytes } => generator.app_change(&v1, bytes),
    };

    // --- Flash layout -------------------------------------------------------
    let sector = cfg.platform.internal_flash.sector_size;
    let needed = (v1.len().max(v2.len()) as u32 + FIRMWARE_OFFSET).max(
        // Slots hold the full build in practice; size them to the bigger
        // of the transferred image and the platform's own build.
        build_flash_size(cfg),
    );
    let slot_size = round_up(needed, sector);
    let internal = Box::new(SimFlash::new(cfg.platform.internal_flash));
    let mut layout = match cfg.slot_mode {
        SlotMode::AB => configuration_a(internal, slot_size).expect("valid layout"),
        SlotMode::Static { .. } => {
            let external = cfg
                .platform
                .external_flash
                .map(|g| Box::new(SimFlash::new(g)) as Box<dyn FlashDevice>);
            configuration_b(internal, external, slot_size).expect("valid layout")
        }
    };

    // --- Install v1 --------------------------------------------------------
    install_signed(
        &mut layout,
        standard::SLOT_A,
        &vendor,
        &server,
        &v1,
        Version(1),
    );

    // --- Publish releases ---------------------------------------------------
    server.publish(vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID));
    server.publish(vendor.release(v2.clone(), Version(2), LINK_OFFSET, APP_ID));

    // --- Agent --------------------------------------------------------------
    let supports_differential = cfg.update_kind != UpdateKind::Full;
    let mut agent = UpdateAgent::new(
        backend.clone(),
        anchors,
        AgentConfig {
            device_id: DEVICE_ID,
            app_id: APP_ID,
            supports_differential,
            content_key: None,
        },
    );
    let plan = UpdatePlan {
        target_slot: standard::SLOT_B,
        current_slot: standard::SLOT_A,
        installed_version: Version(1),
        installed_size: v1.len() as u32,
        allowed_link_offsets: vec![LINK_OFFSET],
        max_firmware_size: slot_size - FIRMWARE_OFFSET,
    };
    let nonce = (cfg.seed as u32).wrapping_mul(2_654_435_761) | 1;

    // --- Propagation --------------------------------------------------------
    // Built directly on the stepped session machinery: the scenario owns
    // the event loop, so a cut can land on any link-event boundary.
    layout.reset_stats();
    let report = match cfg.approach {
        Approach::Push => {
            let link = cfg.platform.push_link;
            let mut phone = match &cfg.tamper {
                Some(t) => Smartphone::compromised(t.clone()),
                None => Smartphone::new(),
            };
            let mut session =
                PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
            let mut endpoints =
                PushEndpoints::new(&server, &mut phone, &mut agent, &mut layout, plan, nonce);
            step_with_cut(&mut session, &mut endpoints, cut_after_events)
        }
        Approach::Pull => {
            let link = cfg.platform.pull_link;
            let router = match &cfg.tamper {
                Some(t) => BorderRouter::compromised(t.clone()),
                None => BorderRouter::new(),
            };
            let mut session =
                PullSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
            let mut endpoints =
                PullEndpoints::new(&server, &router, &mut agent, &mut layout, plan, nonce);
            step_with_cut(&mut session, &mut endpoints, cut_after_events)
        }
    };
    let propagation_flash = flash_micros(&mut layout);
    let propagation_micros = report.accounting.elapsed_micros + propagation_flash;

    // --- Verification (agent side, analytic CPU time) -----------------------
    let profile = backend.profile();
    let manifest_bytes = upkit_manifest::SIGNED_MANIFEST_LEN as u64;
    let verify_once_micros = if profile.hardware_offload {
        profile.hw_verify_micros
    } else {
        profile.verify_cycles * 1_000_000 / cfg.platform.cpu_hz
    };
    let digest_micros = |bytes: u64| -> u64 {
        bytes * profile.digest_cycles_per_byte * 1_000_000 / cfg.platform.cpu_hz
    };
    let mut verification_micros = 0u64;
    // Manifest digest + two signature checks happen whenever the manifest
    // completed (accepted or reached firmware phases).
    let manifest_verified = !matches!(report.outcome, SessionOutcome::NoUpdateAvailable);
    if manifest_verified {
        verification_micros += digest_micros(manifest_bytes) + 2 * verify_once_micros;
    }
    // Firmware digest only when the whole payload arrived.
    let firmware_verified = matches!(report.outcome, SessionOutcome::Complete)
        || matches!(report.outcome, SessionOutcome::RejectedAtFirmware(_));
    if firmware_verified {
        verification_micros += digest_micros(v2.len() as u64);
    }

    // --- Reboot + bootloader -------------------------------------------------
    let mut loading_micros = 0u64;
    let mut boot_outcome = None;
    let mut running_version = Some(Version(1));
    if report.outcome.is_complete() {
        layout.reset_stats();
        let boot_mode = match cfg.slot_mode {
            SlotMode::AB => BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
            SlotMode::Static { swap } => BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap,
            },
        };
        let bootloader = Bootloader::new(
            backend.clone(),
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
        match bootloader.boot(&mut layout) {
            Ok(outcome) => {
                // Bootloader verification: both slots are checked — digest
                // over each stored firmware plus two signature checks each.
                verification_micros += digest_micros(v1.len() as u64)
                    + digest_micros(v2.len() as u64)
                    + 4 * verify_once_micros;
                running_version = Some(outcome.version);
                boot_outcome = Some(outcome);
            }
            Err(_) => {
                running_version = None;
            }
        }
        loading_micros = cfg.platform.reboot_micros + flash_micros(&mut layout);
    }

    // --- Energy ---------------------------------------------------------------
    let energy = &cfg.platform.energy;
    let energy_uj = EnergyModel::energy_uj(energy.radio_mw, report.accounting.elapsed_micros)
        + EnergyModel::energy_uj(energy.cpu_active_mw, verification_micros)
        + EnergyModel::energy_uj(energy.flash_mw, propagation_flash + loading_micros);

    ScenarioResult {
        payload_bytes: report.accounting.bytes_to_device,
        accounting: report.accounting,
        phases: PhaseBreakdown {
            propagation_micros,
            verification_micros,
            loading_micros,
        },
        energy_uj,
        outcome: report.outcome,
        boot: boot_outcome,
        running_version,
    }
}

/// Flash size of the device's own build, from the footprint model (the
/// slot must hold the whole installed image, whose size Table II reports).
fn build_flash_size(cfg: &ScenarioConfig) -> u32 {
    use upkit_footprint::{upkit_agent, AgentOptions, Approach as FpApproach, Os};
    let approach = match cfg.approach {
        Approach::Push => FpApproach::Push,
        Approach::Pull => FpApproach::Pull,
    };
    // The Fig. 8 experiments run Zephyr on the nRF52840; other platforms
    // fall back to the Contiki build size.
    let os = if cfg.platform.name == "nRF52840" {
        Os::Zephyr
    } else {
        Os::Contiki
    };
    upkit_agent(os, approach, AgentOptions::default())
        .or_else(|| upkit_agent(Os::Zephyr, approach, AgentOptions::default()))
        .map_or(100_000, |f| f.flash)
}

/// Installs `firmware` as the running `version` image in `slot`, with a
/// correctly double-signed manifest so the bootloader accepts it: erase
/// the slot, then write the header and the image.
pub(crate) fn install_signed(
    layout: &mut MemoryLayout,
    slot: SlotId,
    vendor: &VendorServer,
    server: &UpdateServer,
    firmware: &[u8],
    version: Version,
) {
    let manifest = Manifest {
        device_id: DEVICE_ID,
        nonce: 0,
        old_version: Version(0),
        version,
        size: firmware.len() as u32,
        payload_size: firmware.len() as u32,
        digest: sha256(firmware),
        link_offset: LINK_OFFSET,
        app_id: APP_ID,
    };
    let signed = SignedManifest {
        manifest,
        vendor_signature: vendor.sign_manifest_core(&manifest),
        server_signature: server.sign_manifest(&manifest),
    };
    layout.erase_slot(slot).expect("fresh flash");
    write_manifest(layout, slot, &signed).expect("fresh flash");
    layout
        .write_slot(slot, FIRMWARE_OFFSET, firmware)
        .expect("slot sized for firmware");
}
