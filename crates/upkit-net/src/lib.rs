//! Simulated propagation for the UpKit reproduction.
//!
//! UpKit is agnostic to how update images reach the device: the paper
//! demonstrates a **push** configuration (a smartphone forwarding images
//! over BLE GATT) and a **pull** configuration (the device fetching blocks
//! over CoAP/6LoWPAN through a border router). Both are one Fig. 2 message
//! sequence through a passive proxy, and this crate simulates it once,
//! byte for byte:
//!
//! * [`profiles`] — link timing models ([`LinkProfile`]) and radio
//!   accounting ([`TransferAccounting`]).
//! * [`proxy`] — the passive proxy, one function ([`forward`]: the push
//!   smartphone and the pull border router alike), and the active caching
//!   gateway ([`CachingProxy`]): a bounded LRU block cache with
//!   single-flighted upstream fetches, so one upstream transfer serves any
//!   number of downstream devices, counting its work only on its tracer.
//!   Per the paper's threat model proxies forward bytes but hold no keys.
//! * [`tamper`] — the one compromised proxy, [`FrameAdversary`], wrapped
//!   around any endpoints: it flips a bit of, truncates or replaces the
//!   resolved stream, or corrupts, reorders, duplicates, injects or drops
//!   one frame in flight ([`FrameTamper`]).
//! * [`session`] — the event-driven core: one resumable [`Session`],
//!   built for push or pull, advancing one link event at a time with
//!   per-block timeout, bounded retries, and exponential backoff
//!   ([`RetryPolicy`]), against a real update agent ([`AgentEndpoints`])
//!   or any other [`SessionEndpoints`].
//! * [`lossy`] — seeded Bernoulli frame loss and retransmission cost
//!   models for harsh-environment links.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod lossy;
pub mod profiles;
pub mod proxy;
pub mod session;
pub mod tamper;

pub use lossy::LossyLink;
pub use profiles::{LinkProfile, TransferAccounting};
pub use proxy::{forward, CachedOrigin, CachingProxy};
pub use session::{
    AgentEndpoints, RetryPolicy, Session, SessionEndpoints, SessionEvent, SessionEventKind,
    SessionOutcome, SessionReport, SessionStream, Step, StreamResolution,
};
pub use tamper::{FrameAdversary, FrameTamper};
