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

/// A value an event field holds, as NDJSON renders it. Every value is an
/// integer, a boolean, or a static string from a fixed vocabulary, so no
/// escaping is ever required.
trait FieldValue {
    fn write_to(&self, out: &mut String);
}

macro_rules! display_field_values {
    ($($ty:ty),+) => {
        $(impl FieldValue for $ty {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })+
    };
}

display_field_values!(u64, u8, bool);

impl FieldValue for &'static str {
    fn write_to(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

/// Declares [`Event`] from one table. Each variant is written once, as
/// `Name = "kind" in "layer" { fields }`; the enum, [`Event::kind`],
/// [`Event::layer`] and the NDJSON field writer are all generated from it,
/// so a record's fields appear in declaration order.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $name:ident = $kind:literal in $layer:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)+
        }
    )+) => {
        /// One structured trace event. Variants cover every instrumented layer:
        /// transport sessions, the update agent, the streaming pipeline, the
        /// flash layout, the bootloader, and the fleet scheduler.
        #[derive(Clone, Debug, PartialEq, Eq)]
        #[non_exhaustive]
        pub enum Event {
            $($(#[$doc])* $name { $($(#[$field_doc])* $field: $ty,)+ },)+
        }

        impl Event {
            /// Stable machine-readable name of the variant, used as the
            /// `"event"` field in NDJSON output.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$name { .. } => $kind,)+
                }
            }

            /// Coarse layer the event belongs to (`"session"`, `"agent"`,
            /// `"pipeline"`, `"flash"`, `"boot"`, `"scheduler"`, `"chaos"`,
            /// `"adversary"`, `"generation"`, `"campaign"`, `"proxy"`).
            #[must_use]
            pub fn layer(&self) -> &'static str {
                match self {
                    $(Event::$name { .. } => $layer,)+
                }
            }

            /// Appends `,"field":value` for every field, in declaration order.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(Event::$name { $($field),+ } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.write_to(out);
                        )+
                    })+
                }
            }
        }
    };
}

events! {
    /// Session: device token handed to the proxy (one round trip).
    TokenExchange = "token_exchange" in "session" {
        /// Stream id of the session (device id in the fleet sims).
        stream: u64,
    }
    /// Session: proxy resolved the token against the update server.
    ProxyFetch = "proxy_fetch" in "session" {
        /// Stream id of the session.
        stream: u64,
        /// Serialized manifest region length.
        manifest_bytes: u64,
        /// Payload region length.
        payload_bytes: u64,
    }
    /// Session: one link-layer chunk arrived at the device.
    ChunkDelivered = "chunk_delivered" in "session" {
        /// Stream id of the session.
        stream: u64,
        /// Chunk length in bytes.
        bytes: u64,
    }
    /// Session: a chunk was lost and will be retransmitted.
    ChunkLost = "chunk_lost" in "session" {
        /// Stream id of the session.
        stream: u64,
        /// Chunk length in bytes (charged to the air anyway).
        bytes: u64,
        /// Zero-based retransmission attempt index.
        attempt: u64,
    }
    /// Session: device acknowledged the manifest (pull go-ahead).
    GoAhead = "go_ahead" in "session" {
        /// Stream id of the session.
        stream: u64,
    }
    /// Session finished, successfully or not.
    SessionDone = "session_done" in "session" {
        /// Stream id of the session.
        stream: u64,
        /// Outcome label (`"complete"`, `"timed_out"`, ...).
        outcome: &'static str,
        /// Total bytes charged toward the device.
        bytes_to_device: u64,
    }
    /// Agent: update state machine moved between states.
    AgentTransition = "agent_transition" in "agent" {
        /// Device id the agent is configured with.
        device: u64,
        /// State the agent left.
        from: &'static str,
        /// State the agent entered.
        to: &'static str,
    }
    /// Agent: an ECDSA signature verification ran.
    SignatureChecked = "signature_checked" in "agent" {
        /// Device id the agent is configured with.
        device: u64,
        /// Whether the signature verified.
        ok: bool,
    }
    /// Pipeline: the streaming decrypt→decompress→patch chain finished.
    PipelineFinished = "pipeline_finished" in "pipeline" {
        /// Compressed/encrypted bytes pushed in.
        bytes_in: u64,
        /// Plaintext firmware bytes produced.
        bytes_out: u64,
    }
    /// Flash: bytes read from a slot.
    FlashRead = "flash_read" in "flash" {
        /// Slot index.
        slot: u8,
        /// Bytes read.
        bytes: u64,
    }
    /// Flash: bytes programmed into a slot.
    FlashWrite = "flash_write" in "flash" {
        /// Slot index.
        slot: u8,
        /// Bytes written.
        bytes: u64,
    }
    /// Flash: sectors erased in a slot.
    FlashErase = "flash_erase" in "flash" {
        /// Slot index.
        slot: u8,
        /// Sectors erased.
        sectors: u64,
    }
    /// Flash: two slots exchanged contents (A/B swap).
    SlotsSwapped = "slots_swapped" in "flash" {
        /// First slot index.
        a: u8,
        /// Second slot index.
        b: u8,
    }
    /// Bootloader: a slot was selected and booted.
    Boot = "boot" in "boot" {
        /// Slot index booted from.
        slot: u8,
        /// Firmware version found in the slot header.
        version: u64,
    }
    /// Scheduler: the virtual-clock event loop dispatched a device.
    SchedulerDispatch = "scheduler_dispatch" in "scheduler" {
        /// Device id dispatched.
        device: u64,
        /// Virtual time of the dispatched event.
        at_micros: u64,
    }
    /// Scheduler: a device finished its campaign.
    DeviceComplete = "device_complete" in "scheduler" {
        /// Device id.
        device: u64,
        /// Outcome label (`"complete"`, `"gave_up"`, ...).
        outcome: &'static str,
    }
    /// Fleet rollout: one polling round completed.
    RolloutRound = "rollout_round" in "scheduler" {
        /// Round number (1-based).
        round: u64,
        /// Devices converged so far.
        completed: u64,
    }
    /// Bootloader: a staged component was committed to its bootable slot
    /// during journal replay of a multi-component set.
    ComponentCommit = "component_commit" in "boot" {
        /// Component identifier from the manifest component table.
        component: u64,
        /// Bootable slot the component was committed to.
        slot: u8,
        /// Component version now active.
        version: u64,
    }
    /// Bootloader: a bootable component failed verification and was
    /// restored from its staging copy.
    ComponentRollback = "component_rollback" in "boot" {
        /// Component identifier from the manifest component table.
        component: u64,
        /// Bootable slot that was restored.
        slot: u8,
    }
    /// Chaos explorer: a fault was injected at a flash-op boundary.
    FaultInjected = "fault_injected" in "chaos" {
        /// Zero-based mutating-op boundary index the fault fired at.
        boundary: u64,
        /// Fault class label (`"clean_cut"`, `"torn_write"`, ...).
        fault: &'static str,
    }
    /// Chaos explorer: the post-fault reboot loop finished and the
    /// never-brick invariant was checked.
    FaultChecked = "fault_checked" in "chaos" {
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
    }
    /// Adversarial explorer: one mutated input is about to run the
    /// acceptance path.
    MutationInjected = "mutation_injected" in "adversary" {
        /// Case index within the surface's mutation universe.
        case: u64,
        /// Mutated surface label (`"lzss"`, `"frame_corrupt"`, ...).
        surface: &'static str,
    }
    /// Adversarial explorer: the mutated case finished and the
    /// never-accept / never-panic / bounded-memory invariant was checked.
    MutationChecked = "mutation_checked" in "adversary" {
        /// Case index within the surface's mutation universe.
        case: u64,
        /// Mutated surface label.
        surface: &'static str,
        /// Whether the acceptance path panicked.
        panicked: bool,
        /// Whether the invariant held.
        ok: bool,
    }
    /// Generation: the server ran a fresh diff for a version transition
    /// and stored it in the content-addressed patch cache.
    PatchGenerated = "patch_generated" in "generation" {
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
    }
    /// Campaign orchestrator: the staged rollout advanced to a new stage.
    CampaignStage = "campaign_stage" in "campaign" {
        /// Zero-based stage index now in effect.
        stage: u64,
        /// Fraction of the target cohort admitted, in basis points
        /// (10000 = the whole cohort).
        fraction_bps: u64,
        /// Campaign round (1-based) at which the stage took effect.
        round: u64,
    }
    /// Campaign orchestrator: the fleet-health policy halted the campaign.
    CampaignHalted = "campaign_halted" in "campaign" {
        /// Campaign round (1-based) at which serving stopped.
        round: u64,
        /// Which health counter regressed (`"boot_failures"`,
        /// `"forgeries"`, `"retry_storm"`).
        reason: &'static str,
    }
    /// Generation: a patch request was answered from the
    /// content-addressed cache without re-diffing.
    PatchCacheHit = "patch_cache_hit" in "generation" {
        /// First 8 bytes (big-endian) of the old image's SHA-256.
        old_digest: u64,
        /// First 8 bytes (big-endian) of the new image's SHA-256.
        new_digest: u64,
        /// Application/hardware identifier the transition belongs to.
        platform: u64,
        /// Patch container label (`"raw"`, `"framed"`).
        format: &'static str,
    }
    /// Proxy: a caching proxy assembled one downstream stream from its
    /// block cache plus whatever upstream fetches were still needed.
    ProxyServe = "proxy_serve" in "proxy" {
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
    }
    /// Scheduler: a duty-cycled device's wake event fell in a sleep
    /// window and was deferred to the next awake edge.
    DeviceSleep = "device_sleep" in "scheduler" {
        /// Device id.
        device: u64,
        /// Virtual time the device resumes at.
        until_micros: u64,
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
        // One instance of every variant, each field a distinct value, so
        // the layer, kind, field names, field order and value formats of
        // all 29 lines are pinned byte for byte.
        let table = [
            (
                Event::TokenExchange { stream: 7 },
                r#"{"ts":42,"seq":3,"layer":"session","event":"token_exchange","stream":7}"#,
            ),
            (
                Event::ProxyFetch {
                    stream: 7,
                    manifest_bytes: 210,
                    payload_bytes: 6_000,
                },
                r#"{"ts":42,"seq":3,"layer":"session","event":"proxy_fetch","stream":7,"manifest_bytes":210,"payload_bytes":6000}"#,
            ),
            (
                Event::ChunkDelivered {
                    stream: 7,
                    bytes: 64,
                },
                r#"{"ts":42,"seq":3,"layer":"session","event":"chunk_delivered","stream":7,"bytes":64}"#,
            ),
            (
                Event::ChunkLost {
                    stream: 9,
                    bytes: 128,
                    attempt: 1,
                },
                r#"{"ts":42,"seq":3,"layer":"session","event":"chunk_lost","stream":9,"bytes":128,"attempt":1}"#,
            ),
            (
                Event::GoAhead { stream: 11 },
                r#"{"ts":42,"seq":3,"layer":"session","event":"go_ahead","stream":11}"#,
            ),
            (
                Event::SessionDone {
                    stream: 7,
                    outcome: "complete",
                    bytes_to_device: 6_210,
                },
                r#"{"ts":42,"seq":3,"layer":"session","event":"session_done","stream":7,"outcome":"complete","bytes_to_device":6210}"#,
            ),
            (
                Event::AgentTransition {
                    device: 5,
                    from: "idle",
                    to: "receiving",
                },
                r#"{"ts":42,"seq":3,"layer":"agent","event":"agent_transition","device":5,"from":"idle","to":"receiving"}"#,
            ),
            (
                Event::SignatureChecked {
                    device: 5,
                    ok: false,
                },
                r#"{"ts":42,"seq":3,"layer":"agent","event":"signature_checked","device":5,"ok":false}"#,
            ),
            (
                Event::PipelineFinished {
                    bytes_in: 900,
                    bytes_out: 4_096,
                },
                r#"{"ts":42,"seq":3,"layer":"pipeline","event":"pipeline_finished","bytes_in":900,"bytes_out":4096}"#,
            ),
            (
                Event::FlashRead {
                    slot: 1,
                    bytes: 256,
                },
                r#"{"ts":42,"seq":3,"layer":"flash","event":"flash_read","slot":1,"bytes":256}"#,
            ),
            (
                Event::FlashWrite {
                    slot: 2,
                    bytes: 512,
                },
                r#"{"ts":42,"seq":3,"layer":"flash","event":"flash_write","slot":2,"bytes":512}"#,
            ),
            (
                Event::FlashErase {
                    slot: 3,
                    sectors: 4,
                },
                r#"{"ts":42,"seq":3,"layer":"flash","event":"flash_erase","slot":3,"sectors":4}"#,
            ),
            (
                Event::SlotsSwapped { a: 0, b: 255 },
                r#"{"ts":42,"seq":3,"layer":"flash","event":"slots_swapped","a":0,"b":255}"#,
            ),
            (
                Event::Boot {
                    slot: 1,
                    version: 2,
                },
                r#"{"ts":42,"seq":3,"layer":"boot","event":"boot","slot":1,"version":2}"#,
            ),
            (
                Event::SchedulerDispatch {
                    device: 12,
                    at_micros: 1_508_458,
                },
                r#"{"ts":42,"seq":3,"layer":"scheduler","event":"scheduler_dispatch","device":12,"at_micros":1508458}"#,
            ),
            (
                Event::DeviceComplete {
                    device: 12,
                    outcome: "gave_up",
                },
                r#"{"ts":42,"seq":3,"layer":"scheduler","event":"device_complete","device":12,"outcome":"gave_up"}"#,
            ),
            (
                Event::RolloutRound {
                    round: 3,
                    completed: 17,
                },
                r#"{"ts":42,"seq":3,"layer":"scheduler","event":"rollout_round","round":3,"completed":17}"#,
            ),
            (
                Event::ComponentCommit {
                    component: 0xA1,
                    slot: 4,
                    version: 7,
                },
                r#"{"ts":42,"seq":3,"layer":"boot","event":"component_commit","component":161,"slot":4,"version":7}"#,
            ),
            (
                Event::ComponentRollback {
                    component: 0xA2,
                    slot: 6,
                },
                r#"{"ts":42,"seq":3,"layer":"boot","event":"component_rollback","component":162,"slot":6}"#,
            ),
            (
                Event::FaultInjected {
                    boundary: 19,
                    fault: "clean_cut",
                },
                r#"{"ts":42,"seq":3,"layer":"chaos","event":"fault_injected","boundary":19,"fault":"clean_cut"}"#,
            ),
            (
                Event::FaultChecked {
                    boundary: 19,
                    fault: "torn_write",
                    boots: 3,
                    version: 0,
                    ok: true,
                },
                r#"{"ts":42,"seq":3,"layer":"chaos","event":"fault_checked","boundary":19,"fault":"torn_write","boots":3,"version":0,"ok":true}"#,
            ),
            (
                Event::MutationInjected {
                    case: 88,
                    surface: "lzss",
                },
                r#"{"ts":42,"seq":3,"layer":"adversary","event":"mutation_injected","case":88,"surface":"lzss"}"#,
            ),
            (
                Event::MutationChecked {
                    case: 88,
                    surface: "frame_corrupt",
                    panicked: false,
                    ok: true,
                },
                r#"{"ts":42,"seq":3,"layer":"adversary","event":"mutation_checked","case":88,"surface":"frame_corrupt","panicked":false,"ok":true}"#,
            ),
            (
                Event::PatchGenerated {
                    old_digest: u64::MAX,
                    new_digest: 1 << 63,
                    platform: 10,
                    format: "framed",
                    bytes: 21_572,
                },
                r#"{"ts":42,"seq":3,"layer":"generation","event":"patch_generated","old_digest":18446744073709551615,"new_digest":9223372036854775808,"platform":10,"format":"framed","bytes":21572}"#,
            ),
            (
                Event::PatchCacheHit {
                    old_digest: 1,
                    new_digest: 2,
                    platform: 10,
                    format: "raw",
                },
                r#"{"ts":42,"seq":3,"layer":"generation","event":"patch_cache_hit","old_digest":1,"new_digest":2,"platform":10,"format":"raw"}"#,
            ),
            (
                Event::CampaignStage {
                    stage: 1,
                    fraction_bps: 2_500,
                    round: 4,
                },
                r#"{"ts":42,"seq":3,"layer":"campaign","event":"campaign_stage","stage":1,"fraction_bps":2500,"round":4}"#,
            ),
            (
                Event::CampaignHalted {
                    round: 6,
                    reason: "boot_failures",
                },
                r#"{"ts":42,"seq":3,"layer":"campaign","event":"campaign_halted","round":6,"reason":"boot_failures"}"#,
            ),
            (
                Event::ProxyServe {
                    proxy: 2,
                    digest: 0xDEAD_BEEF,
                    hits: 30,
                    misses: 12,
                    joins: 5,
                    upstream_bytes: 6_144,
                    wait_micros: 91_000,
                },
                r#"{"ts":42,"seq":3,"layer":"proxy","event":"proxy_serve","proxy":2,"digest":3735928559,"hits":30,"misses":12,"joins":5,"upstream_bytes":6144,"wait_micros":91000}"#,
            ),
            (
                Event::DeviceSleep {
                    device: 33,
                    until_micros: 2_000_000,
                },
                r#"{"ts":42,"seq":3,"layer":"scheduler","event":"device_sleep","device":33,"until_micros":2000000}"#,
            ),
        ];
        let mut kinds: Vec<&str> = table.iter().map(|(event, _)| event.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 29, "one row per variant");
        for (event, line) in table {
            let record = TraceRecord {
                ts_micros: 42,
                seq: 3,
                event,
            };
            assert_eq!(record.to_ndjson(), line);
        }
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
