//! State-of-the-art baselines the UpKit paper compares against.
//!
//! Each baseline reproduces the *security-relevant behaviour* of its
//! namesake, running over the same flash and manifest substrates as UpKit
//! so the comparison experiments are apples to apples:
//!
//! * [`unverified`] — the store-and-reboot agent of mcumgr (push, Fig. 7c
//!   comparison) and LwM2M (pull, Fig. 7b comparison): **no** agent-side
//!   verification, and freshness at most from a (terminable) end-to-end
//!   DTLS channel — none at all for mcumgr.
//! * [`mcuboot`] — boot-time single-signature verification with swap
//!   loading; accepts replays/downgrades by default (Fig. 7a comparison).
//! * [`sparrow`] — CRC-only integrity, the Sparrow/Deluge class of
//!   systems; demonstrates why checksums are not security.
//!
//! [`session`] adapts the store-and-reboot agent onto `upkit-net`'s
//! resumable session state machines, so baseline and UpKit updates run
//! under identical link, loss, and retry models.
//!
//! The flash/RAM *footprints* of these systems for Fig. 7 are modeled in
//! `upkit-footprint` (they come from the paper's measurements); this crate
//! models their *behaviour*.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod crc;
pub mod mcuboot;
pub mod session;
pub mod sparrow;
pub mod unverified;

pub use mcuboot::{McubootBootloader, McubootConfig, McubootError, McubootOutcome};
pub use session::UnverifiedEndpoints;
pub use sparrow::{SparrowAgent, SparrowError};
pub use unverified::{UnverifiedAgent, UnverifiedError};
