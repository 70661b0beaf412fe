//! UpKit: a portable, lightweight software-update framework for constrained
//! IoT devices — the core of the ICDCS 2019 paper's contribution.
//!
//! UpKit covers the *whole* update process in one coherent design instead
//! of stitching together independent tools (mcumgr + mcuboot, LwM2M +
//! mcuboot):
//!
//! * **Generation** — [`generation::VendorServer`] builds and vendor-signs
//!   releases.
//! * **Propagation** — [`generation::UpdateServer`] answers device tokens
//!   with double-signed, per-request update images (full or differential);
//!   the on-device [`agent::UpdateAgent`] FSM receives them through any
//!   push or pull transport.
//! * **Verification** — the shared [`verifier`] module runs in *both* the
//!   update agent (early rejection: invalid manifests stop the transfer,
//!   invalid firmware stops the reboot) and the bootloader.
//! * **Loading** — [`bootloader::Bootloader`] boots the newest valid image:
//!   in place for A/B slot configurations, via swap/copy for static ones.
//!
//! Supporting modules: [`pipeline`] (decompression → patching → buffer →
//! writer; differential updates stream through without a staging slot —
//! plus the future-work decryption stage), [`image`] (on-flash slot
//! layout), [`keys`] (trust anchors, inline or HSM-resident), and
//! [`freshness`] (the timestamp-vs-token policy comparison from the
//! paper's design discussion).
//!
//! # Example: a complete update, end to end
//!
//! ```
//! use std::sync::Arc;
//! use rand::SeedableRng;
//! use upkit_core::agent::{AgentConfig, AgentPhase, UpdateAgent, UpdatePlan};
//! use upkit_core::bootloader::{BootConfig, Bootloader, BootMode};
//! use upkit_core::generation::{UpdateServer, VendorServer};
//! use upkit_core::image::FIRMWARE_OFFSET;
//! use upkit_core::keys::TrustAnchors;
//! use upkit_crypto::backend::TinyCryptBackend;
//! use upkit_crypto::ecdsa::SigningKey;
//! use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
//! use upkit_manifest::Version;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let vendor = VendorServer::new(SigningKey::generate(&mut rng));
//! let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
//! let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
//!
//! // Vendor releases firmware v2; the update server publishes it.
//! server.publish(vendor.release(vec![0xAB; 1024], Version(2), 0x100, 0xA));
//!
//! // Device side: flash with two bootable slots, agent, bootloader.
//! let mut layout = configuration_a(
//!     Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
//!     4096 * 16,
//! ).unwrap();
//! let backend = Arc::new(TinyCryptBackend);
//! let mut agent = UpdateAgent::new(
//!     backend.clone(),
//!     anchors,
//!     AgentConfig::new(7, 0xA, true),
//! );
//!
//! // Request → token → server prepares a double-signed image → agent
//! // verifies and stores it.
//! let plan = UpdatePlan {
//!     target_slot: standard::SLOT_B,
//!     current_slot: standard::SLOT_A,
//!     installed_version: Version(0),
//!     installed_size: 0,
//!     allowed_link_offsets: vec![0x100],
//!     max_firmware_size: 4096 * 16 - FIRMWARE_OFFSET,
//! };
//! let token = agent.request_device_token(&mut layout, plan, 42).unwrap();
//! let prepared = server.prepare_update(&token).unwrap();
//! let mut phase = AgentPhase::NeedMore;
//! for chunk in prepared.image.to_bytes().chunks(200) {
//!     phase = agent.push_data(&mut layout, chunk).unwrap();
//! }
//! assert_eq!(phase, AgentPhase::Complete);
//!
//! // Reboot: the bootloader verifies again and jumps to the new image.
//! let boot = Bootloader::new(backend, anchors, BootConfig {
//!     device_id: 7,
//!     app_id: 0xA,
//!     allowed_link_offsets: vec![0x100],
//!     max_firmware_size: 4096 * 16 - FIRMWARE_OFFSET,
//!     mode: BootMode::AB { slots: vec![standard::SLOT_A, standard::SLOT_B] },
//!     recovery_slot: None,
//! });
//! let outcome = boot.boot(&mut layout).unwrap();
//! assert_eq!(outcome.version, Version(2));
//! ```

//! # `no_std` support
//!
//! With `--no-default-features` the crate builds as `no_std + alloc` and
//! keeps the device half: [`agent`], [`bootloader`], [`pipeline`],
//! [`verifier`], [`image`], [`keys`], and [`freshness`]. The server half —
//! [`generation`] (rand) and [`parallel`] (threads) — needs the `std`
//! feature.

#![cfg_attr(not(feature = "std"), no_std)]
#![warn(missing_docs)]
#![warn(clippy::std_instead_of_core)]
#![warn(clippy::std_instead_of_alloc)]
#![warn(clippy::alloc_instead_of_core)]

extern crate alloc;

pub mod agent;
pub mod bootloader;
pub mod components;
pub mod freshness;
#[cfg(feature = "std")]
pub mod generation;
pub mod image;
pub mod keys;
#[cfg(feature = "std")]
pub mod parallel;
pub mod pipeline;
pub mod verifier;

pub use agent::{AgentConfig, AgentError, AgentPhase, AgentState, UpdateAgent, UpdatePlan};
pub use bootloader::{BootAction, BootConfig, BootError, BootMode, BootOutcome, Bootloader};
pub use components::{
    ComponentImage, ComponentSlots, StageError, JOURNAL_COMPLETE_OFFSET, JOURNAL_DONE_OFFSET,
    JOURNAL_LEN, JOURNAL_RECORD_MAX,
};
#[cfg(feature = "std")]
pub use generation::{PreparedUpdate, Release, ServedKind, UpdateServer, VendorServer};
pub use keys::{KeyAnchor, TrustAnchors};
#[cfg(feature = "std")]
pub use parallel::ParallelGenerator;
pub use pipeline::{Decoder, FirmwareSink, Pipeline, PipelineError, VecSink};
pub use verifier::{FirmwareDigester, Verifier, VerifyContext, VerifyError};
