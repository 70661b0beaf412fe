//! End-to-end update scenarios with phase-by-phase time and energy
//! accounting — the machinery behind the Fig. 8 experiments.
//!
//! A scenario assembles a complete world: vendor + update server, a
//! [`SimDevice`] (flash layout, update agent, bootloader, crypto backend)
//! on a [`PlatformProfile`], and a transport. Running it executes the
//! real code path — genuine signatures, genuine LZSS/bsdiff, genuine
//! flash semantics — and charges every byte and cycle to the paper's
//! three phases:
//!
//! * **Propagation** — radio time (from the transport accounting) plus the
//!   flash time of storing the stream through the pipeline.
//! * **Verification** — CPU time of the digest and signature checks in the
//!   agent *and* the bootloader (both verifications, per UpKit's design).
//! * **Loading** — reboot plus whatever the bootloader's loading strategy
//!   moves (nothing for A/B; a slot swap/copy for static mode).

use std::sync::Arc;

use upkit_core::bootloader::{BootMode, BootOutcome};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::image::FIRMWARE_OFFSET;
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::{SecurityBackend, TinyCryptBackend, TinyDtlsBackend};
use upkit_crypto::ecdsa::SigningKey;
use upkit_crypto::hsm::SimulatedHsm;
use upkit_flash::{
    configuration_a, configuration_b, standard, FlashDevice, FlashGeometry, MemoryLayout, SimFlash,
};
use upkit_manifest::Version;
use upkit_net::{
    forward, AgentEndpoints, FrameAdversary, FrameTamper, LossyLink, RetryPolicy, Session,
    SessionOutcome, TransferAccounting,
};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::device::{install_signed, Identity, SimDevice};
use crate::firmware::FirmwareGenerator;
use crate::platform::{EnergyModel, PlatformProfile};

/// Constant device identity used by scenarios.
pub const DEVICE_ID: u32 = 0x1A2B_3C4D;
/// Constant application identifier.
pub const APP_ID: u32 = 0x5E6F_0001;
/// Link offset all synthetic firmware is "built" for.
pub const LINK_OFFSET: u32 = 0x0800_0000;

/// The scenario device's identity, shared by the wear chain and the
/// failure worlds.
pub(crate) const IDENTITY: Identity = Identity {
    device_id: DEVICE_ID,
    app_id: APP_ID,
    link_offset: LINK_OFFSET,
};

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
    /// What the proxy does to the update in transit
    /// ([`FrameTamper::None`]: an honest proxy).
    pub tamper: FrameTamper,
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
            tamper: FrameTamper::None,
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

/// Builds Configuration A ([`SlotMode::AB`]) or B ([`SlotMode::Static`])
/// of Fig. 6 with `slot_size`-byte slots, and the boot mode that loads it.
/// Configuration B stages on `external` flash when given.
pub(crate) fn slot_layout(
    mode: SlotMode,
    internal: Box<dyn FlashDevice>,
    external: Option<FlashGeometry>,
    slot_size: u32,
) -> (MemoryLayout, BootMode) {
    let (layout, boot_mode) = match mode {
        SlotMode::AB => (
            configuration_a(internal, slot_size),
            BootMode::AB {
                slots: vec![standard::SLOT_A, standard::SLOT_B],
            },
        ),
        SlotMode::Static { swap } => (
            configuration_b(
                internal,
                external.map(|g| Box::new(SimFlash::new(g)) as Box<dyn FlashDevice>),
                slot_size,
            ),
            BootMode::Static {
                bootable: standard::SLOT_A,
                staging: standard::SLOT_B,
                swap,
            },
        ),
    };
    (layout.expect("valid layout"), boot_mode)
}

/// Runs one complete update scenario.
///
/// # Panics
///
/// Panics if the configuration is internally impossible (firmware larger
/// than any slot arrangement on the platform).
#[must_use]
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
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
    let (mut layout, boot_mode) = slot_layout(
        cfg.slot_mode,
        Box::new(SimFlash::new(cfg.platform.internal_flash)),
        cfg.platform.external_flash,
        slot_size,
    );

    // --- Device running v1 -------------------------------------------------
    install_signed(
        &mut layout,
        standard::SLOT_A,
        &IDENTITY,
        &vendor,
        &server,
        &v1,
        Version(1),
    );
    let profile = backend.profile();
    let mut device = SimDevice::new(
        IDENTITY,
        layout,
        boot_mode,
        None,
        (backend, anchors),
        v1.len() as u32,
        cfg.update_kind != UpdateKind::Full,
    );

    // --- Publish releases ---------------------------------------------------
    server.publish(vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID));
    server.publish(vendor.release(v2.clone(), Version(2), LINK_OFFSET, APP_ID));

    // --- Propagation --------------------------------------------------------
    let plan = device.plan();
    let nonce = (cfg.seed as u32).wrapping_mul(2_654_435_761) | 1;
    device.layout.reset_stats();
    let (open, link): (fn(_, _, _) -> Session, _) = match cfg.approach {
        Approach::Push => (Session::push, cfg.platform.push_link),
        Approach::Pull => (Session::pull, cfg.platform.pull_link),
    };
    let endpoints = AgentEndpoints::new(&mut device.agent, &mut device.layout, plan, nonce, |t| {
        forward(&server, t)
    });
    let report = open(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0)
        .run_to_completion(&mut FrameAdversary::new(endpoints, cfg.tamper.clone()));
    let propagation_flash = flash_micros(&mut device.layout);
    let propagation_micros = report.accounting.elapsed_micros + propagation_flash;

    // --- Verification (agent side, analytic CPU time) -----------------------
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
        // A plain boot, not `SimDevice::reboot`: loading charges every
        // flash read since the reset, and the device never re-reads the
        // booted manifest.
        device.layout.reset_stats();
        match device.bootloader().boot(&mut device.layout) {
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
        loading_micros = cfg.platform.reboot_micros + flash_micros(&mut device.layout);
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
