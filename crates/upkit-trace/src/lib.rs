//! Structured event tracing and always-on metrics counters for UpKit.
//!
//! The paper's evaluation is entirely about *measured* behaviour — bytes
//! on the wire, flash erases, verification counts, update latency. This
//! crate is the substrate those measurements flow through:
//!
//! * [`Counters`] — a registry of relaxed atomics that is **always on**.
//!   Incrementing a counter is a single relaxed `fetch_add`; hot paths
//!   charge it unconditionally and benches read a [`CountersSnapshot`]
//!   at the end of a run.
//! * [`TraceSink`] + [`Event`] — a structured event stream that is
//!   **zero-cost when disabled**: [`Tracer::emit`] takes a closure and
//!   only builds the event when a sink is installed.
//!
//! Timestamps are *virtual time* in microseconds. The tracer's clock
//! only moves forward ([`Tracer::advance_now_to`] is a `fetch_max`), so
//! a merged trace from several interleaved sessions is monotone by
//! construction: each layer stamps the latest virtual time any driver
//! has announced.
//!
//! The crate is a leaf — every runtime crate depends on it and it
//! depends on nothing — so one [`Tracer`] handle can be threaded from
//! the fleet scheduler down through sessions, the agent pipeline, and
//! the flash layer, producing a single NDJSON stream for a whole update.
//!
//! # `no_std` support
//!
//! With `--no-default-features` the crate is `no_std + alloc`: counters,
//! events, and the [`Tracer`] handle stay available (they only need
//! `core::sync::atomic` and `alloc`), while the lock-based sinks
//! ([`MemorySink`], [`NdjsonSink`]) are host-only behind the `std`
//! feature.

#![cfg_attr(not(feature = "std"), no_std)]
#![warn(
    clippy::std_instead_of_core,
    clippy::std_instead_of_alloc,
    clippy::alloc_instead_of_core
)]

extern crate alloc;

use alloc::boxed::Box;
use alloc::format;
use alloc::string::{String, ToString};
use alloc::sync::Arc;
use alloc::vec::Vec;
use core::fmt::Write as _;
use core::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "std")]
use std::sync::Mutex;

/// Number of per-slot buckets tracked by [`Counters`]. Slot ids at or
/// above this saturate into the last bucket.
pub const SLOT_BUCKETS: usize = 4;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured trace event. Variants cover every instrumented layer:
/// transport sessions, the update agent, the streaming pipeline, the
/// flash layout, the bootloader, and the fleet scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// Session: device token handed to the proxy (one round trip).
    TokenExchange {
        /// Stream id of the session (device id in the fleet sims).
        stream: u64,
    },
    /// Session: proxy resolved the token against the update server.
    ProxyFetch {
        /// Stream id of the session.
        stream: u64,
        /// Serialized manifest region length.
        manifest_bytes: u64,
        /// Payload region length.
        payload_bytes: u64,
    },
    /// Session: one link-layer chunk arrived at the device.
    ChunkDelivered {
        /// Stream id of the session.
        stream: u64,
        /// Chunk length in bytes.
        bytes: u64,
    },
    /// Session: a chunk was lost and will be retransmitted.
    ChunkLost {
        /// Stream id of the session.
        stream: u64,
        /// Chunk length in bytes (charged to the air anyway).
        bytes: u64,
        /// Zero-based retransmission attempt index.
        attempt: u64,
    },
    /// Session: device acknowledged the manifest (pull go-ahead).
    GoAhead {
        /// Stream id of the session.
        stream: u64,
    },
    /// Session finished, successfully or not.
    SessionDone {
        /// Stream id of the session.
        stream: u64,
        /// Outcome label (`"complete"`, `"timed_out"`, ...).
        outcome: &'static str,
        /// Total bytes charged toward the device.
        bytes_to_device: u64,
    },
    /// Agent: update state machine moved between states.
    AgentTransition {
        /// Device id the agent is configured with.
        device: u64,
        /// State the agent left.
        from: &'static str,
        /// State the agent entered.
        to: &'static str,
    },
    /// Agent: an ECDSA signature verification ran.
    SignatureChecked {
        /// Device id the agent is configured with.
        device: u64,
        /// Whether the signature verified.
        ok: bool,
    },
    /// Pipeline: the streaming decrypt→decompress→patch chain finished.
    PipelineFinished {
        /// Compressed/encrypted bytes pushed in.
        bytes_in: u64,
        /// Plaintext firmware bytes produced.
        bytes_out: u64,
    },
    /// Flash: bytes read from a slot.
    FlashRead {
        /// Slot index.
        slot: u8,
        /// Bytes read.
        bytes: u64,
    },
    /// Flash: bytes programmed into a slot.
    FlashWrite {
        /// Slot index.
        slot: u8,
        /// Bytes written.
        bytes: u64,
    },
    /// Flash: sectors erased in a slot.
    FlashErase {
        /// Slot index.
        slot: u8,
        /// Sectors erased.
        sectors: u64,
    },
    /// Flash: two slots exchanged contents (A/B swap).
    SlotsSwapped {
        /// First slot index.
        a: u8,
        /// Second slot index.
        b: u8,
    },
    /// Bootloader: a slot was selected and booted.
    Boot {
        /// Slot index booted from.
        slot: u8,
        /// Firmware version found in the slot header.
        version: u64,
    },
    /// Scheduler: the virtual-clock event loop dispatched a device.
    SchedulerDispatch {
        /// Device id dispatched.
        device: u64,
        /// Virtual time of the dispatched event.
        at_micros: u64,
    },
    /// Scheduler: a device finished its campaign.
    DeviceComplete {
        /// Device id.
        device: u64,
        /// Outcome label (`"complete"`, `"gave_up"`, ...).
        outcome: &'static str,
    },
    /// Fleet rollout: one polling round completed.
    RolloutRound {
        /// Round number (1-based).
        round: u64,
        /// Devices converged so far.
        completed: u64,
    },
    /// Bootloader: a staged component was committed to its bootable slot
    /// during journal replay of a multi-component set.
    ComponentCommit {
        /// Component identifier from the manifest component table.
        component: u64,
        /// Bootable slot the component was committed to.
        slot: u8,
        /// Component version now active.
        version: u64,
    },
    /// Bootloader: a bootable component failed verification and was
    /// restored from its staging copy.
    ComponentRollback {
        /// Component identifier from the manifest component table.
        component: u64,
        /// Bootable slot that was restored.
        slot: u8,
    },
    /// Chaos explorer: a fault was injected at a flash-op boundary.
    FaultInjected {
        /// Zero-based mutating-op boundary index the fault fired at.
        boundary: u64,
        /// Fault class label (`"clean_cut"`, `"torn_write"`, ...).
        fault: &'static str,
    },
    /// Chaos explorer: the post-fault reboot loop finished and the
    /// never-brick invariant was checked.
    FaultChecked {
        /// Boundary index the fault fired at.
        boundary: u64,
        /// Fault class label.
        fault: &'static str,
        /// Boot attempts the recovery loop needed.
        boots: u64,
        /// Version stable after recovery (0 when the device bricked).
        version: u64,
        /// Whether the invariant held.
        ok: bool,
    },
    /// Adversarial explorer: one mutated input is about to run the
    /// acceptance path.
    MutationInjected {
        /// Case index within the surface's mutation universe.
        case: u64,
        /// Mutated surface label (`"lzss"`, `"frame_corrupt"`, ...).
        surface: &'static str,
    },
    /// Adversarial explorer: the mutated case finished and the
    /// never-accept / never-panic / bounded-memory invariant was checked.
    MutationChecked {
        /// Case index within the surface's mutation universe.
        case: u64,
        /// Mutated surface label.
        surface: &'static str,
        /// Whether the acceptance path panicked.
        panicked: bool,
        /// Whether the invariant held.
        ok: bool,
    },
    /// Generation: the server ran a fresh diff for a version transition
    /// and stored it in the content-addressed patch cache.
    PatchGenerated {
        /// First 8 bytes (big-endian) of the old image's SHA-256.
        old_digest: u64,
        /// First 8 bytes (big-endian) of the new image's SHA-256.
        new_digest: u64,
        /// Application/hardware identifier the transition belongs to.
        platform: u64,
        /// Patch container label (`"raw"`, `"framed"`).
        format: &'static str,
        /// Finished payload length in bytes.
        bytes: u64,
    },
    /// Campaign orchestrator: the staged rollout advanced to a new stage.
    CampaignStage {
        /// Zero-based stage index now in effect.
        stage: u64,
        /// Fraction of the target cohort admitted, in basis points
        /// (10000 = the whole cohort).
        fraction_bps: u64,
        /// Campaign round (1-based) at which the stage took effect.
        round: u64,
    },
    /// Campaign orchestrator: the fleet-health policy halted the campaign.
    CampaignHalted {
        /// Campaign round (1-based) at which serving stopped.
        round: u64,
        /// Which health counter regressed (`"boot_failures"`,
        /// `"forgeries"`, `"retry_storm"`).
        reason: &'static str,
    },
    /// Generation: a patch request was answered from the
    /// content-addressed cache without re-diffing.
    PatchCacheHit {
        /// First 8 bytes (big-endian) of the old image's SHA-256.
        old_digest: u64,
        /// First 8 bytes (big-endian) of the new image's SHA-256.
        new_digest: u64,
        /// Application/hardware identifier the transition belongs to.
        platform: u64,
        /// Patch container label (`"raw"`, `"framed"`).
        format: &'static str,
    },
    /// Proxy: a caching proxy assembled one downstream stream from its
    /// block cache plus whatever upstream fetches were still needed.
    ProxyServe {
        /// Proxy identifier (gateway index in the topology sims).
        proxy: u64,
        /// First 8 bytes (big-endian) of the stream's SHA-256.
        digest: u64,
        /// Blocks served straight from the cache.
        hits: u64,
        /// Blocks fetched upstream before serving.
        misses: u64,
        /// Blocks joined while another session's fetch was in flight.
        joins: u64,
        /// Bytes moved over the upstream link for this serve.
        upstream_bytes: u64,
        /// Virtual microseconds the downstream session waited for the
        /// stream to be ready.
        wait_micros: u64,
    },
    /// Scheduler: a duty-cycled device's wake event fell in a sleep
    /// window and was deferred to the next awake edge.
    DeviceSleep {
        /// Device id.
        device: u64,
        /// Virtual time the device resumes at.
        until_micros: u64,
    },
}

impl Event {
    /// Stable machine-readable name of the variant, used as the
    /// `"event"` field in NDJSON output.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TokenExchange { .. } => "token_exchange",
            Event::ProxyFetch { .. } => "proxy_fetch",
            Event::ChunkDelivered { .. } => "chunk_delivered",
            Event::ChunkLost { .. } => "chunk_lost",
            Event::GoAhead { .. } => "go_ahead",
            Event::SessionDone { .. } => "session_done",
            Event::AgentTransition { .. } => "agent_transition",
            Event::SignatureChecked { .. } => "signature_checked",
            Event::PipelineFinished { .. } => "pipeline_finished",
            Event::FlashRead { .. } => "flash_read",
            Event::FlashWrite { .. } => "flash_write",
            Event::FlashErase { .. } => "flash_erase",
            Event::SlotsSwapped { .. } => "slots_swapped",
            Event::Boot { .. } => "boot",
            Event::SchedulerDispatch { .. } => "scheduler_dispatch",
            Event::DeviceComplete { .. } => "device_complete",
            Event::RolloutRound { .. } => "rollout_round",
            Event::ComponentCommit { .. } => "component_commit",
            Event::ComponentRollback { .. } => "component_rollback",
            Event::FaultInjected { .. } => "fault_injected",
            Event::FaultChecked { .. } => "fault_checked",
            Event::MutationInjected { .. } => "mutation_injected",
            Event::MutationChecked { .. } => "mutation_checked",
            Event::PatchGenerated { .. } => "patch_generated",
            Event::PatchCacheHit { .. } => "patch_cache_hit",
            Event::CampaignStage { .. } => "campaign_stage",
            Event::CampaignHalted { .. } => "campaign_halted",
            Event::ProxyServe { .. } => "proxy_serve",
            Event::DeviceSleep { .. } => "device_sleep",
        }
    }

    /// Coarse layer the event belongs to (`"session"`, `"agent"`,
    /// `"pipeline"`, `"flash"`, `"boot"`, `"scheduler"`, `"chaos"`,
    /// `"adversary"`, `"generation"`, `"campaign"`, `"proxy"`).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        match self {
            Event::TokenExchange { .. }
            | Event::ProxyFetch { .. }
            | Event::ChunkDelivered { .. }
            | Event::ChunkLost { .. }
            | Event::GoAhead { .. }
            | Event::SessionDone { .. } => "session",
            Event::AgentTransition { .. } | Event::SignatureChecked { .. } => "agent",
            Event::PipelineFinished { .. } => "pipeline",
            Event::FlashRead { .. }
            | Event::FlashWrite { .. }
            | Event::FlashErase { .. }
            | Event::SlotsSwapped { .. } => "flash",
            Event::Boot { .. }
            | Event::ComponentCommit { .. }
            | Event::ComponentRollback { .. } => "boot",
            Event::SchedulerDispatch { .. }
            | Event::DeviceComplete { .. }
            | Event::RolloutRound { .. }
            | Event::DeviceSleep { .. } => "scheduler",
            Event::ProxyServe { .. } => "proxy",
            Event::FaultInjected { .. } | Event::FaultChecked { .. } => "chaos",
            Event::MutationInjected { .. } | Event::MutationChecked { .. } => "adversary",
            Event::PatchGenerated { .. } | Event::PatchCacheHit { .. } => "generation",
            Event::CampaignStage { .. } | Event::CampaignHalted { .. } => "campaign",
        }
    }

    fn write_fields(&self, out: &mut String) {
        // All field values are integers, booleans, or static strings
        // from a fixed vocabulary — no escaping is ever required.
        match self {
            Event::TokenExchange { stream } | Event::GoAhead { stream } => {
                let _ = write!(out, r#","stream":{stream}"#);
            }
            Event::ProxyFetch {
                stream,
                manifest_bytes,
                payload_bytes,
            } => {
                let _ = write!(
                    out,
                    r#","stream":{stream},"manifest_bytes":{manifest_bytes},"payload_bytes":{payload_bytes}"#
                );
            }
            Event::ChunkDelivered { stream, bytes } => {
                let _ = write!(out, r#","stream":{stream},"bytes":{bytes}"#);
            }
            Event::ChunkLost {
                stream,
                bytes,
                attempt,
            } => {
                let _ = write!(
                    out,
                    r#","stream":{stream},"bytes":{bytes},"attempt":{attempt}"#
                );
            }
            Event::SessionDone {
                stream,
                outcome,
                bytes_to_device,
            } => {
                let _ = write!(
                    out,
                    r#","stream":{stream},"outcome":"{outcome}","bytes_to_device":{bytes_to_device}"#
                );
            }
            Event::AgentTransition { device, from, to } => {
                let _ = write!(out, r#","device":{device},"from":"{from}","to":"{to}""#);
            }
            Event::SignatureChecked { device, ok } => {
                let _ = write!(out, r#","device":{device},"ok":{ok}"#);
            }
            Event::PipelineFinished {
                bytes_in,
                bytes_out,
            } => {
                let _ = write!(out, r#","bytes_in":{bytes_in},"bytes_out":{bytes_out}"#);
            }
            Event::FlashRead { slot, bytes } | Event::FlashWrite { slot, bytes } => {
                let _ = write!(out, r#","slot":{slot},"bytes":{bytes}"#);
            }
            Event::FlashErase { slot, sectors } => {
                let _ = write!(out, r#","slot":{slot},"sectors":{sectors}"#);
            }
            Event::SlotsSwapped { a, b } => {
                let _ = write!(out, r#","a":{a},"b":{b}"#);
            }
            Event::Boot { slot, version } => {
                let _ = write!(out, r#","slot":{slot},"version":{version}"#);
            }
            Event::SchedulerDispatch { device, at_micros } => {
                let _ = write!(out, r#","device":{device},"at_micros":{at_micros}"#);
            }
            Event::DeviceComplete { device, outcome } => {
                let _ = write!(out, r#","device":{device},"outcome":"{outcome}""#);
            }
            Event::RolloutRound { round, completed } => {
                let _ = write!(out, r#","round":{round},"completed":{completed}"#);
            }
            Event::ComponentCommit {
                component,
                slot,
                version,
            } => {
                let _ = write!(
                    out,
                    r#","component":{component},"slot":{slot},"version":{version}"#
                );
            }
            Event::ComponentRollback { component, slot } => {
                let _ = write!(out, r#","component":{component},"slot":{slot}"#);
            }
            Event::FaultInjected { boundary, fault } => {
                let _ = write!(out, r#","boundary":{boundary},"fault":"{fault}""#);
            }
            Event::FaultChecked {
                boundary,
                fault,
                boots,
                version,
                ok,
            } => {
                let _ = write!(
                    out,
                    r#","boundary":{boundary},"fault":"{fault}","boots":{boots},"version":{version},"ok":{ok}"#
                );
            }
            Event::MutationInjected { case, surface } => {
                let _ = write!(out, r#","case":{case},"surface":"{surface}""#);
            }
            Event::MutationChecked {
                case,
                surface,
                panicked,
                ok,
            } => {
                let _ = write!(
                    out,
                    r#","case":{case},"surface":"{surface}","panicked":{panicked},"ok":{ok}"#
                );
            }
            Event::PatchGenerated {
                old_digest,
                new_digest,
                platform,
                format,
                bytes,
            } => {
                let _ = write!(
                    out,
                    r#","old_digest":{old_digest},"new_digest":{new_digest},"platform":{platform},"format":"{format}","bytes":{bytes}"#
                );
            }
            Event::PatchCacheHit {
                old_digest,
                new_digest,
                platform,
                format,
            } => {
                let _ = write!(
                    out,
                    r#","old_digest":{old_digest},"new_digest":{new_digest},"platform":{platform},"format":"{format}""#
                );
            }
            Event::CampaignStage {
                stage,
                fraction_bps,
                round,
            } => {
                let _ = write!(
                    out,
                    r#","stage":{stage},"fraction_bps":{fraction_bps},"round":{round}"#
                );
            }
            Event::CampaignHalted { round, reason } => {
                let _ = write!(out, r#","round":{round},"reason":"{reason}""#);
            }
            Event::ProxyServe {
                proxy,
                digest,
                hits,
                misses,
                joins,
                upstream_bytes,
                wait_micros,
            } => {
                let _ = write!(
                    out,
                    r#","proxy":{proxy},"digest":{digest},"hits":{hits},"misses":{misses},"joins":{joins},"upstream_bytes":{upstream_bytes},"wait_micros":{wait_micros}"#
                );
            }
            Event::DeviceSleep {
                device,
                until_micros,
            } => {
                let _ = write!(out, r#","device":{device},"until_micros":{until_micros}"#);
            }
        }
    }
}

/// A timestamped, sequence-numbered event as handed to sinks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time in microseconds at which the event was stamped.
    pub ts_micros: u64,
    /// Monotone per-tracer sequence number (ties broken by emit order).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl TraceRecord {
    /// Render the record as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            r#"{{"ts":{},"seq":{},"layer":"{}","event":"{}""#,
            self.ts_micros,
            self.seq,
            self.event.layer(),
            self.event.kind()
        );
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for trace records. Implementations must tolerate calls
/// from multiple threads (the sharded rollout merges per-shard buffers,
/// but sinks are still shared behind `Arc`).
pub trait TraceSink: Send + Sync {
    /// Consume one record. Ordering across calls follows `seq`.
    fn record(&self, record: &TraceRecord);
}

impl<T: TraceSink + ?Sized> TraceSink for Arc<T> {
    fn record(&self, record: &TraceRecord) {
        (**self).record(record);
    }
}

/// Sink that renders each record as one NDJSON line into a writer.
#[cfg(feature = "std")]
pub struct NdjsonSink<W: std::io::Write + Send> {
    writer: Mutex<W>,
}

#[cfg(feature = "std")]
impl<W: std::io::Write + Send> NdjsonSink<W> {
    /// Wrap `writer`; each record becomes one `\n`-terminated line.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }

    /// Unwrap the writer (flushes buffered lines by dropping the lock).
    ///
    /// # Panics
    /// Panics if the sink mutex was poisoned.
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("ndjson sink poisoned")
    }
}

#[cfg(feature = "std")]
impl<W: std::io::Write + Send> TraceSink for NdjsonSink<W> {
    fn record(&self, record: &TraceRecord) {
        let mut guard = self.writer.lock().expect("ndjson sink poisoned");
        let _ = writeln!(guard, "{}", record.to_ndjson());
    }
}

/// Sink that buffers records in memory — the workhorse for tests and
/// for the per-shard buffers of the sharded rollout.
#[cfg(feature = "std")]
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

#[cfg(feature = "std")]
impl MemorySink {
    /// Empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything recorded so far.
    ///
    /// # Panics
    /// Panics if the sink mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Remove and return everything recorded so far.
    ///
    /// # Panics
    /// Panics if the sink mutex was poisoned.
    pub fn drain(&self) -> Vec<TraceRecord> {
        core::mem::take(&mut *self.records.lock().expect("memory sink poisoned"))
    }

    /// Number of records currently buffered.
    ///
    /// # Panics
    /// Panics if the sink mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(feature = "std")]
impl TraceSink for MemorySink {
    fn record(&self, record: &TraceRecord) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record.clone());
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

macro_rules! counters {
    ($(#[$doc:meta] $name:ident),+ $(,)?) => {
        /// Always-on metrics registry: relaxed atomics charged by the
        /// hot paths whether or not a trace sink is installed.
        ///
        /// Per-slot flash activity lands in [`SLOT_BUCKETS`] buckets
        /// indexed by slot id (ids past the last bucket saturate).
        #[derive(Default)]
        pub struct Counters {
            $(#[$doc] pub $name: AtomicU64,)+
            /// Bytes read, per slot bucket.
            pub flash_reads: [AtomicU64; SLOT_BUCKETS],
            /// Bytes written, per slot bucket.
            pub flash_writes: [AtomicU64; SLOT_BUCKETS],
            /// Sectors erased, per slot bucket.
            pub flash_erases: [AtomicU64; SLOT_BUCKETS],
        }

        /// Plain-integer copy of [`Counters`] for diffing and reports.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            $(#[$doc] pub $name: u64,)+
            /// Bytes read, per slot bucket.
            pub flash_reads: [u64; SLOT_BUCKETS],
            /// Bytes written, per slot bucket.
            pub flash_writes: [u64; SLOT_BUCKETS],
            /// Sectors erased, per slot bucket.
            pub flash_erases: [u64; SLOT_BUCKETS],
        }

        impl Counters {
            /// Read every counter (relaxed; exact once quiescent).
            #[must_use]
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    flash_reads: core::array::from_fn(|i| self.flash_reads[i].load(Ordering::Relaxed)),
                    flash_writes: core::array::from_fn(|i| self.flash_writes[i].load(Ordering::Relaxed)),
                    flash_erases: core::array::from_fn(|i| self.flash_erases[i].load(Ordering::Relaxed)),
                }
            }

            /// Add a snapshot into this registry (shard merge).
            pub fn absorb(&self, s: &CountersSnapshot) {
                $(self.$name.fetch_add(s.$name, Ordering::Relaxed);)+
                for i in 0..SLOT_BUCKETS {
                    self.flash_reads[i].fetch_add(s.flash_reads[i], Ordering::Relaxed);
                    self.flash_writes[i].fetch_add(s.flash_writes[i], Ordering::Relaxed);
                    self.flash_erases[i].fetch_add(s.flash_erases[i], Ordering::Relaxed);
                }
            }

            /// Zero every counter (relaxed). For draining per-shard deltas:
            /// snapshot, reset, absorb the snapshot elsewhere.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
                for i in 0..SLOT_BUCKETS {
                    self.flash_reads[i].store(0, Ordering::Relaxed);
                    self.flash_writes[i].store(0, Ordering::Relaxed);
                    self.flash_erases[i].store(0, Ordering::Relaxed);
                }
            }
        }

        impl CountersSnapshot {
            /// Flat `(name, value)` view over every field, per-slot
            /// buckets expanded as `flash_reads_slot0` etc. — the shape
            /// bench bins serialize into the `metrics` JSON section.
            #[must_use]
            pub fn fields(&self) -> Vec<(String, u64)> {
                let mut out = Vec::with_capacity(16 + 3 * SLOT_BUCKETS);
                $(out.push((stringify!($name).to_string(), self.$name));)+
                for i in 0..SLOT_BUCKETS {
                    out.push((format!("flash_reads_slot{i}"), self.flash_reads[i]));
                    out.push((format!("flash_writes_slot{i}"), self.flash_writes[i]));
                    out.push((format!("flash_erases_slot{i}"), self.flash_erases[i]));
                }
                out
            }
        }
    };
}

counters! {
    /// Link bytes charged toward the device (manifest + payload + overhead).
    link_bytes_to_device,
    /// Link bytes charged from the device (tokens, acks).
    link_bytes_from_device,
    /// Link frames/chunks sent (including ones that were then lost).
    frames_sent,
    /// Link frames/chunks lost to the loss model.
    frames_lost,
    /// Retransmission attempts after a loss.
    retries,
    /// Request/response round trips.
    round_trips,
    /// Virtual microseconds spent on the air.
    link_micros,
    /// Virtual microseconds spent waiting on retry backoff.
    wait_micros,
    /// ECDSA signature verifications performed.
    sig_verifications,
    /// Compressed/encrypted bytes entering the streaming pipeline.
    pipeline_bytes_in,
    /// Plaintext firmware bytes produced by the streaming pipeline.
    pipeline_bytes_out,
    /// Bootloader boot decisions taken.
    boots,
    /// A/B slot swaps performed.
    slot_swaps,
    /// Faults injected by the crash-consistency explorer.
    faults_injected,
    /// Never-brick invariant violations observed by the explorer.
    fault_violations,
    /// Update packages the agent rejected with a typed error.
    packages_rejected,
    /// Tampered packages a device accepted as valid (must stay zero).
    forgeries_accepted,
    /// Decoder inputs rejected for declaring output beyond the budget.
    decode_overruns,
    /// Patch requests answered from the content-addressed patch cache.
    patch_cache_hits,
    /// Patch requests that had to run a fresh diff (cache miss).
    patch_cache_misses,
    /// Verifications skipped by the per-shard signed-manifest memo.
    sig_verify_memo_hits,
    /// Devices whose post-install boot failed (fell back to the old slot).
    boots_failed,
    /// Devices rolled back to their previous version after a campaign halt.
    devices_rolled_back,
    /// Campaigns automatically halted by the fleet-health policy.
    campaign_halts,
    /// Blocks a caching proxy served straight from its block cache.
    proxy_cache_hits,
    /// Blocks a caching proxy had to fetch upstream before serving.
    proxy_cache_misses,
    /// Cache blocks evicted under LRU capacity pressure.
    proxy_evictions,
    /// Block fetches a caching proxy issued over its upstream link.
    upstream_fetches,
    /// Bytes moved over caching proxies' upstream (backhaul) links.
    upstream_bytes,
    /// Virtual microseconds upstream links were busy fetching blocks.
    upstream_micros,
    /// Downstream serves that joined an upstream fetch already in flight.
    single_flight_joins,
    /// Duty-cycle sleep deferrals applied to device wake events.
    devices_slept,
    /// Components committed to their bootable slots by the journal replay.
    components_installed,
    /// Components restored from staging after a failed health check.
    components_rolled_back,
    /// Never-mixed-set invariant violations observed by the explorer.
    mixed_set_violations,
}

impl Counters {
    /// Bucket index for a slot id (saturates into the last bucket).
    #[must_use]
    pub fn slot_bucket(slot: u8) -> usize {
        (slot as usize).min(SLOT_BUCKETS - 1)
    }

    /// Charge `n` to a counter (relaxed).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl CountersSnapshot {
    /// Total sectors erased across all slot buckets.
    #[must_use]
    pub fn total_erases(&self) -> u64 {
        self.flash_erases.iter().sum()
    }

    /// Total bytes written across all slot buckets.
    #[must_use]
    pub fn total_flash_writes(&self) -> u64 {
        self.flash_writes.iter().sum()
    }

    /// Total bytes read across all slot buckets.
    #[must_use]
    pub fn total_flash_reads(&self) -> u64 {
        self.flash_reads.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

struct TracerInner {
    counters: Counters,
    now_micros: AtomicU64,
    seq: AtomicU64,
    sink: Option<Box<dyn TraceSink>>,
}

/// Cheap-to-clone handle combining the always-on [`Counters`] with an
/// optional [`TraceSink`]. Every instrumented struct holds one; clones
/// share the same counters, clock, and sink.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("now_micros", &self.now_micros())
            .finish()
    }
}

impl Tracer {
    /// Counters only, no sink: [`Tracer::emit`] is a branch and nothing
    /// else. This is the default everywhere a tracer is not supplied.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            inner: Arc::new(TracerInner {
                counters: Counters::default(),
                now_micros: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                sink: None,
            }),
        }
    }

    /// Counters plus a sink receiving every emitted event.
    #[must_use]
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                counters: Counters::default(),
                now_micros: AtomicU64::new(0),
                seq: AtomicU64::new(0),
                sink: Some(sink),
            }),
        }
    }

    /// Convenience: a tracer writing NDJSON lines to `writer`.
    #[cfg(feature = "std")]
    #[must_use]
    pub fn to_ndjson<W: std::io::Write + Send + 'static>(writer: W) -> Self {
        Self::with_sink(Box::new(NdjsonSink::new(writer)))
    }

    /// Whether a sink is installed (event closures run only if so).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.sink.is_some()
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// Current virtual time in microseconds.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.inner.now_micros.load(Ordering::Relaxed)
    }

    /// Move the virtual clock forward to `t` (never backwards — this is
    /// a `fetch_max`, so interleaved drivers keep the merged trace
    /// monotone no matter who stamps last).
    pub fn advance_now_to(&self, t_micros: u64) {
        self.inner.now_micros.fetch_max(t_micros, Ordering::Relaxed);
    }

    /// Hard-reset the clock (tests and shard-local tracers only).
    pub fn reset_now(&self, t_micros: u64) {
        self.inner.now_micros.store(t_micros, Ordering::Relaxed);
    }

    /// Emit an event. The closure only runs when a sink is installed,
    /// so a disabled tracer pays one branch and no allocation.
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(sink) = &self.inner.sink {
            let record = TraceRecord {
                ts_micros: self.now_micros(),
                seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
                event: f(),
            };
            sink.record(&record);
        }
    }

    /// Re-emit a record captured elsewhere, keeping its timestamp but
    /// assigning a fresh sequence number. Used when merging per-shard
    /// memory buffers into a parent trace in deterministic shard order.
    pub fn emit_record(&self, record: &TraceRecord) {
        if let Some(sink) = &self.inner.sink {
            let renumbered = TraceRecord {
                ts_micros: record.ts_micros,
                seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
                event: record.event.clone(),
            };
            sink.record(&renumbered);
        }
    }

    /// Fold a shard-local tracer's counters and (optionally) its
    /// buffered records into this tracer. Records are appended in the
    /// order given, so callers merge shards in shard-index order to
    /// keep output independent of thread count.
    pub fn absorb(&self, counters: &CountersSnapshot, records: &[TraceRecord]) {
        self.inner.counters.absorb(counters);
        for record in records {
            self.emit_record(record);
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let tracer = Tracer::disabled();
        let mut ran = false;
        tracer.emit(|| {
            ran = true;
            Event::GoAhead { stream: 1 }
        });
        assert!(!ran);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn memory_sink_captures_in_order_with_monotone_seq() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(sink.clone()));
        tracer.advance_now_to(10);
        tracer.emit(|| Event::TokenExchange { stream: 7 });
        tracer.advance_now_to(25);
        tracer.emit(|| Event::ChunkDelivered {
            stream: 7,
            bytes: 64,
        });
        let records = sink.snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_micros, 10);
        assert_eq!(records[1].ts_micros, 25);
        assert!(records[0].seq < records[1].seq);
    }

    #[test]
    fn clock_never_moves_backwards() {
        let tracer = Tracer::disabled();
        tracer.advance_now_to(100);
        tracer.advance_now_to(40);
        assert_eq!(tracer.now_micros(), 100);
        tracer.reset_now(5);
        assert_eq!(tracer.now_micros(), 5);
    }

    #[test]
    fn ndjson_rendering_is_stable() {
        let record = TraceRecord {
            ts_micros: 42,
            seq: 3,
            event: Event::ChunkLost {
                stream: 9,
                bytes: 128,
                attempt: 1,
            },
        };
        assert_eq!(
            record.to_ndjson(),
            r#"{"ts":42,"seq":3,"layer":"session","event":"chunk_lost","stream":9,"bytes":128,"attempt":1}"#
        );
    }

    #[test]
    fn counters_snapshot_and_absorb_round_trip() {
        let a = Counters::default();
        Counters::add(&a.link_bytes_to_device, 1000);
        Counters::add(&a.frames_sent, 5);
        a.flash_erases[1].fetch_add(3, Ordering::Relaxed);

        let b = Counters::default();
        Counters::add(&b.link_bytes_to_device, 500);
        b.absorb(&a.snapshot());

        let merged = b.snapshot();
        assert_eq!(merged.link_bytes_to_device, 1500);
        assert_eq!(merged.frames_sent, 5);
        assert_eq!(merged.flash_erases[1], 3);
        assert_eq!(merged.total_erases(), 3);

        let fields = merged.fields();
        assert!(fields
            .iter()
            .any(|(k, v)| k == "flash_erases_slot1" && *v == 3));
    }

    #[test]
    fn slot_bucket_saturates() {
        assert_eq!(Counters::slot_bucket(0), 0);
        assert_eq!(Counters::slot_bucket(2), 2);
        assert_eq!(Counters::slot_bucket(200), SLOT_BUCKETS - 1);
    }
}
