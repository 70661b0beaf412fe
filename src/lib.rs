//! # UpKit — reproduction of the ICDCS 2019 update framework
//!
//! A from-scratch Rust implementation of *UpKit: An Open-Source, Portable,
//! and Lightweight Update Framework for Constrained IoT Devices* (Langiu,
//! Boano, Schuß, Römer — ICDCS 2019), including every substrate the paper
//! depends on and the baselines it compares against.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `upkit-core` | update agent FSM, pipeline, verifier, bootloader, vendor/update servers |
//! | [`crypto`] | `upkit-crypto` | SHA-256, HMAC, ECDSA-P256, security backends, simulated HSM |
//! | [`compress`] | `upkit-compress` | LZSS (streaming decoder) |
//! | [`delta`] | `upkit-delta` | bsdiff/bspatch (streaming patcher) |
//! | [`flash`] | `upkit-flash` | NOR-flash simulator, slot tables, POSIX-like slot IO |
//! | [`manifest`] | `upkit-manifest` | manifest, device token, update-image container |
//! | [`net`] | `upkit-net` | one BLE-push / CoAP-pull session, the passive `forward` and the caching proxy, one compromised proxy (`FrameAdversary`) |
//! | [`baselines`] | `upkit-baselines` | mcuboot / mcumgr / LwM2M / Sparrow analogues |
//! | [`sim`] | `upkit-sim` | platform profiles, end-to-end scenarios, failure injection |
//! | [`chaos`] | `upkit-chaos` | crash-consistency explorer: per-boundary fault injection, never-brick proofs |
//! | [`adversary`] | `upkit-adversary` | adversarial-input explorer: mutation campaigns over every untrusted byte surface |
//! | [`footprint`] | `upkit-footprint` | calibrated flash/RAM footprint model (Tables I–II, Fig. 7) |
//! | [`trace`] | `upkit-trace` | structured event tracing, metrics counters, NDJSON sinks |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the complete flow; the short version:
//!
//! ```
//! use upkit::sim::{run_scenario, Approach, ScenarioConfig};
//!
//! let mut cfg = ScenarioConfig::fig8a(Approach::Push);
//! cfg.firmware_size = 8_192; // keep the doctest fast
//! let result = run_scenario(&cfg);
//! assert!(result.outcome.is_complete());
//! ```

#![warn(missing_docs)]

pub use upkit_adversary as adversary;
pub use upkit_baselines as baselines;
pub use upkit_chaos as chaos;
pub use upkit_compress as compress;
pub use upkit_core as core;
pub use upkit_crypto as crypto;
pub use upkit_delta as delta;
pub use upkit_flash as flash;
pub use upkit_footprint as footprint;
pub use upkit_manifest as manifest;
pub use upkit_net as net;
pub use upkit_sim as sim;
pub use upkit_trace as trace;
