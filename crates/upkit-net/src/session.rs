//! Event-driven, resumable propagation sessions.
//!
//! Push and pull are two configurations of one Fig. 2 message sequence
//! through a passive proxy. This module holds that sequence once, in
//! three pieces:
//!
//! * [`SessionEndpoints`] — what a session talks *to*: the device side
//!   plus whatever proxy path serves the update stream.
//!   [`AgentEndpoints`] is a real [`UpdateAgent`] behind any proxy path,
//!   given as a closure from the device token to a [`StreamResolution`]
//!   (the passive [`forward`](crate::proxy::forward) or a
//!   [`CachingProxy`](crate::proxy::CachingProxy)); the baseline agents
//!   and the simulator's lightweight fleet devices implement the trait
//!   too. A compromised proxy is a
//!   [`FrameAdversary`](crate::tamper::FrameAdversary) wrapped around any
//!   of them.
//! * [`Session`] — the one session driver, built by [`Session::push`] or
//!   [`Session::pull`] and advancing one link event at a time via
//!   [`Session::step`]. Each step returns the event kind and its
//!   virtual-time cost, so a scheduler can interleave any number of
//!   sessions on a shared virtual clock. Push and pull differ only in
//!   what the session charges.
//! * [`RetryPolicy`] — per-block timeout, bounded retries, exponential
//!   backoff. Loss is sampled per transmission attempt from the session's
//!   [`LossyLink`] stream; a block that exhausts its retry budget ends the
//!   session with [`SessionOutcome::TimedOut`].
//!
//! `tests/session_regression.rs` pins the reports and traces of stepped
//! sessions charge for charge.

use upkit_core::agent::{AgentError, AgentPhase, AgentState, UpdateAgent, UpdatePlan};
use upkit_flash::MemoryLayout;
use upkit_manifest::{DeviceToken, UpdateImage, DEVICE_TOKEN_LEN, SIGNED_MANIFEST_LEN};
use upkit_trace::{Counters, Event, Tracer};

use crate::lossy::LossyLink;
use crate::profiles::{LinkProfile, TransferAccounting};

/// Terminal state of a propagation session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The update was fully transferred and verified; reboot may proceed.
    Complete,
    /// The server had no newer image for this device.
    NoUpdateAvailable,
    /// The agent rejected the manifest before any firmware transfer.
    RejectedAtManifest(AgentError),
    /// The agent rejected the firmware after transfer, before reboot.
    RejectedAtFirmware(AgentError),
    /// The stream ended prematurely (proxy truncation / link drop).
    Incomplete,
    /// The proxy reported a fetched update but had no bytes to forward.
    ProxyEmpty,
    /// A block exhausted its retransmission budget on a lossy link.
    TimedOut,
}

impl SessionOutcome {
    /// `true` only for a fully verified update.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Self::Complete)
    }

    /// Stable lowercase label for trace output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Complete => "complete",
            Self::NoUpdateAvailable => "no_update",
            Self::RejectedAtManifest(_) => "rejected_at_manifest",
            Self::RejectedAtFirmware(_) => "rejected_at_firmware",
            Self::Incomplete => "incomplete",
            Self::ProxyEmpty => "proxy_empty",
            Self::TimedOut => "timed_out",
        }
    }
}

/// Outcome of a propagation session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionReport {
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// Radio accounting for the whole session.
    pub accounting: TransferAccounting,
}

/// What one [`Session::step`] did on the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEventKind {
    /// Token request round trip plus the token upload.
    TokenExchange,
    /// Proxy/server stream resolution. Costs no device radio; a caching
    /// proxy that had to fetch upstream first charges the wait as
    /// radio-idle time ([`StreamResolution::Deferred`]).
    ProxyFetch,
    /// One link chunk transmitted and delivered to the agent.
    ChunkDelivered {
        /// Payload bytes in the chunk.
        bytes: usize,
    },
    /// One link chunk transmitted and lost; the sender waited out a
    /// retransmission timeout before retrying.
    ChunkLost {
        /// Payload bytes in the lost transmission.
        bytes: usize,
        /// Timeout waited before the retry (exponential backoff).
        timeout_micros: u64,
    },
    /// Push only: the agent's go-ahead notification after manifest
    /// acceptance (steps 10–11 of Fig. 2).
    GoAhead,
}

/// One advanced link event: what happened and what it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionEvent {
    /// The event kind.
    pub kind: SessionEventKind,
    /// Virtual time the event consumed, in microseconds.
    pub cost_micros: u64,
}

/// Result of one [`Session::step`].
#[derive(Clone, Debug)]
pub enum Step {
    /// The session advanced by one event and has more work to do.
    Progress(SessionEvent),
    /// The session reached a terminal state. Charges incurred during the
    /// final event (e.g. the chunk whose rejection ended the session) are
    /// included in the report's accounting.
    Done(SessionReport),
}

/// Per-block timeout, bounded retries, exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmission attempts allowed per block after the initial one.
    pub max_retries: u32,
    /// Timeout before the first retransmission, in microseconds.
    pub base_timeout_micros: u64,
    /// Multiplier applied to the timeout after each consecutive loss.
    pub backoff_factor: u32,
}

impl RetryPolicy {
    /// A conservative default for `link`: first timeout at twice the RTT,
    /// doubling per consecutive loss, up to six retries per block.
    #[must_use]
    pub fn for_link(link: &LinkProfile) -> Self {
        Self {
            max_retries: 6,
            base_timeout_micros: 2 * link.rtt_micros,
            backoff_factor: 2,
        }
    }

    /// Timeout waited after a loss, given how many consecutive failed
    /// attempts the block has already seen (0 for the first loss).
    #[must_use]
    pub fn timeout_after(&self, failed_attempts: u32) -> u64 {
        let exponent = failed_attempts.min(16);
        self.base_timeout_micros
            .saturating_mul(u64::from(self.backoff_factor).saturating_pow(exponent))
    }
}

/// The update stream a proxy resolved for one session: the signed manifest
/// region followed by the payload region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionStream {
    /// The signed-manifest bytes, transferred and verified first.
    pub manifest: Vec<u8>,
    /// The payload bytes, transferred after the manifest is accepted.
    pub payload: Vec<u8>,
}

impl SessionStream {
    /// The stream of a prepared update image, built from its parts: the
    /// serialized signed manifest and the payload, which moves in without
    /// a copy or a serialization of the whole image.
    #[must_use]
    pub fn from_image(image: UpdateImage) -> Self {
        Self {
            manifest: image.signed_manifest.to_bytes().to_vec(),
            payload: image.payload,
        }
    }

    /// Cuts a serialized update image into its signed-manifest region and
    /// its payload region (a stream shorter than a manifest is all
    /// manifest). The manifest is copied out and the payload shifted down
    /// in place, so the manifest holds only its own bytes.
    #[must_use]
    pub fn split(mut wire: Vec<u8>) -> Self {
        let cut = SIGNED_MANIFEST_LEN.min(wire.len());
        let manifest = wire[..cut].to_vec();
        wire.drain(..cut);
        Self {
            manifest,
            payload: wire,
        }
    }
}

/// What the proxy path answered when asked for an update.
#[derive(Debug)]
pub enum StreamResolution {
    /// The server had nothing newer.
    NoUpdate,
    /// The proxy claimed success but produced no bytes (a broken proxy).
    ProxyEmpty,
    /// The stream to transfer.
    Stream(SessionStream),
    /// The stream to transfer, after the proxy spent `wait_micros` of
    /// virtual time resolving it upstream (cache misses on a caching
    /// proxy, queueing behind other sessions on a shared backhaul). The
    /// wait is charged to the session as radio-idle time; the transfer
    /// itself is then charged chunk by chunk as usual.
    Deferred {
        /// The resolved stream.
        stream: SessionStream,
        /// Radio-idle virtual time spent waiting for the proxy.
        wait_micros: u64,
    },
}

/// The two parties a session mediates between: the device-side agent and
/// the server-side stream source. Implementations exist for UpKit's agent
/// ([`AgentEndpoints`]), the mcumgr/LwM2M baselines, and the event
/// simulator's lightweight devices.
pub trait SessionEndpoints {
    /// Asks the device agent for a fresh device token (steps 4–5).
    fn request_token(&mut self) -> Result<DeviceToken, AgentError>;
    /// Resolves the update stream for `token` (steps 6–7; proxy ↔ server
    /// over the Internet, not charged to the device radio).
    fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution;
    /// Delivers one link chunk to the device agent.
    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError>;
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    Push,
    Pull,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Region {
    Manifest,
    Firmware,
}

impl Region {
    fn stage(self) -> Stage {
        match self {
            Self::Manifest => Stage::Manifest,
            Self::Firmware => Stage::Firmware,
        }
    }
}

#[derive(Debug)]
enum Stage {
    Token,
    Fetch { token: DeviceToken },
    Manifest,
    GoAhead,
    Firmware,
    Finished,
}

/// A resumable propagation session: Fig. 2's message sequence as a state
/// machine advancing one link event per [`step`](Self::step).
///
/// The push flow (a smartphone over BLE) and the pull flow (CoAP
/// blockwise through a border router) differ only in what they charge:
/// push charges the token round trip up front and one go-ahead round trip
/// between manifest and payload; pull charges a confirmed round trip per
/// block and no go-ahead.
#[derive(Debug)]
pub struct Session {
    flavor: Flavor,
    link: LossyLink,
    retry: RetryPolicy,
    stream_id: u64,
    stage: Stage,
    stream: Option<SessionStream>,
    cursor: usize,
    attempts: u32,
    tx_attempts: u64,
    manifest_accepted: bool,
    firmware_complete: bool,
    acc: TransferAccounting,
    outcome: Option<SessionOutcome>,
    tracer: Tracer,
}

impl Session {
    /// A push session over `link`, sampling losses from the session's
    /// `stream_id` stream and retrying per `retry`.
    #[must_use]
    pub fn push(link: LossyLink, retry: RetryPolicy, stream_id: u64) -> Self {
        Self::new(Flavor::Push, link, retry, stream_id)
    }

    /// A pull session over `link`, sampling losses from the session's
    /// `stream_id` stream and retrying per `retry`.
    #[must_use]
    pub fn pull(link: LossyLink, retry: RetryPolicy, stream_id: u64) -> Self {
        Self::new(Flavor::Pull, link, retry, stream_id)
    }

    fn new(flavor: Flavor, link: LossyLink, retry: RetryPolicy, stream_id: u64) -> Self {
        Self {
            flavor,
            link,
            retry,
            stream_id,
            stage: Stage::Token,
            stream: None,
            cursor: 0,
            attempts: 0,
            tx_attempts: 0,
            manifest_accepted: false,
            firmware_complete: false,
            acc: TransferAccounting::default(),
            outcome: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Routes this session's counters and events through `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether the session reached a terminal state.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.stage, Stage::Finished)
    }

    /// Radio accounting so far.
    #[must_use]
    pub fn accounting(&self) -> &TransferAccounting {
        &self.acc
    }

    /// Virtual time consumed so far, in microseconds.
    #[must_use]
    pub fn virtual_elapsed_micros(&self) -> u64 {
        self.acc.elapsed_micros
    }

    /// Steps until done and returns the final report.
    pub fn run_to_completion(&mut self, endpoints: &mut dyn SessionEndpoints) -> SessionReport {
        loop {
            if let Step::Done(report) = self.step(endpoints) {
                return report;
            }
        }
    }

    fn done(&mut self, outcome: SessionOutcome) -> Step {
        // A finished session may be stepped again (it repeats its
        // report); only the first termination is traced and counted.
        if self.outcome.is_none() {
            Counters::add(&self.tracer.counters().link_micros, self.acc.elapsed_micros);
            self.tracer.advance_now_to(self.acc.elapsed_micros);
            let stream = self.stream_id;
            let label = outcome.label();
            let bytes_to_device = self.acc.bytes_to_device;
            self.tracer.emit(|| Event::SessionDone {
                stream,
                outcome: label,
                bytes_to_device,
            });
        }
        self.stage = Stage::Finished;
        self.outcome = Some(outcome.clone());
        Step::Done(SessionReport {
            outcome,
            accounting: self.acc,
        })
    }

    fn progress(&self, kind: SessionEventKind, elapsed_before: u64) -> Step {
        Step::Progress(SessionEvent {
            kind,
            cost_micros: self.acc.elapsed_micros - elapsed_before,
        })
    }

    /// Advances the session by one link event.
    pub fn step(&mut self, io: &mut dyn SessionEndpoints) -> Step {
        let before = self.acc.elapsed_micros;
        // Stamp events at the virtual time the step begins. The clock is
        // a fetch-max, so interleaved sessions sharing one tracer keep
        // the merged trace monotone.
        self.tracer.advance_now_to(before);
        match std::mem::replace(&mut self.stage, Stage::Finished) {
            Stage::Finished => {
                let outcome = self.outcome.clone().unwrap_or(SessionOutcome::Incomplete);
                self.done(outcome)
            }
            Stage::Token => {
                // Push: the phone's token request costs a round trip even
                // when the agent refuses. Pull: the device initiates, so a
                // refusal costs no radio at all.
                if self.flavor == Flavor::Push {
                    self.acc.charge_round_trip(&self.link.link);
                    Counters::add(&self.tracer.counters().round_trips, 1);
                }
                match io.request_token() {
                    Ok(token) => {
                        if self.flavor == Flavor::Pull {
                            self.acc.charge_round_trip(&self.link.link);
                            Counters::add(&self.tracer.counters().round_trips, 1);
                        }
                        self.acc
                            .charge_from_device(&self.link.link, DEVICE_TOKEN_LEN as u64);
                        Counters::add(
                            &self.tracer.counters().link_bytes_from_device,
                            DEVICE_TOKEN_LEN as u64,
                        );
                        let stream = self.stream_id;
                        self.tracer.emit(|| Event::TokenExchange { stream });
                        self.stage = Stage::Fetch { token };
                        self.progress(SessionEventKind::TokenExchange, before)
                    }
                    Err(e) => self.done(SessionOutcome::RejectedAtManifest(e)),
                }
            }
            Stage::Fetch { token } => match io.resolve_stream(&token) {
                StreamResolution::NoUpdate => self.done(SessionOutcome::NoUpdateAvailable),
                StreamResolution::ProxyEmpty => self.done(SessionOutcome::ProxyEmpty),
                StreamResolution::Stream(stream) => self.accept_stream(stream, 0, before),
                StreamResolution::Deferred {
                    stream,
                    wait_micros,
                } => self.accept_stream(stream, wait_micros, before),
            },
            Stage::GoAhead => {
                self.acc.charge_round_trip(&self.link.link);
                Counters::add(&self.tracer.counters().round_trips, 1);
                let stream = self.stream_id;
                self.tracer.emit(|| Event::GoAhead { stream });
                self.stage = Stage::Firmware;
                self.cursor = 0;
                self.progress(SessionEventKind::GoAhead, before)
            }
            Stage::Manifest => self.chunk_step(io, Region::Manifest, before),
            Stage::Firmware => self.chunk_step(io, Region::Firmware, before),
        }
    }

    /// Installs a resolved stream and transitions to the manifest region.
    /// `wait_micros` is the radio-idle time the proxy took to produce the
    /// stream (zero for passive forwarders).
    fn accept_stream(&mut self, stream: SessionStream, wait_micros: u64, before: u64) -> Step {
        if wait_micros > 0 {
            self.acc.charge_wait(wait_micros);
            Counters::add(&self.tracer.counters().wait_micros, wait_micros);
        }
        let stream_id = self.stream_id;
        let manifest_bytes = stream.manifest.len() as u64;
        let payload_bytes = stream.payload.len() as u64;
        self.tracer.emit(|| Event::ProxyFetch {
            stream: stream_id,
            manifest_bytes,
            payload_bytes,
        });
        self.stream = Some(stream);
        self.cursor = 0;
        self.stage = Stage::Manifest;
        self.progress(SessionEventKind::ProxyFetch, before)
    }

    fn chunk_step(&mut self, io: &mut dyn SessionEndpoints, region: Region, before: u64) -> Step {
        // The chunk stages are only entered after Fetch installed the
        // stream; a missing stream here means the state machine was
        // corrupted. Assert in debug builds, terminate cleanly otherwise
        // instead of panicking mid-fleet.
        let Some(stream_ref) = self.stream.as_ref() else {
            debug_assert!(false, "chunk step before stream resolution");
            return self.done(SessionOutcome::Incomplete);
        };
        let len = match region {
            Region::Manifest => stream_ref.manifest.len(),
            Region::Firmware => stream_ref.payload.len(),
        };
        if self.cursor >= len {
            // Only reachable when the region is empty (truncated stream or
            // zero-byte payload): nothing was delivered, nothing accepted.
            return self.done(SessionOutcome::Incomplete);
        }
        let start = self.cursor;
        let end = (start + self.link.link.mtu).min(len);
        let bytes = end - start;

        // Pull confirms every block with a round trip; push pipelines
        // notifications without per-chunk round trips. Both charge the
        // attempted transmission whether or not it arrives.
        let attempt_index = self.tx_attempts;
        self.tx_attempts += 1;
        if self.flavor == Flavor::Pull {
            self.acc.charge_round_trip(&self.link.link);
            Counters::add(&self.tracer.counters().round_trips, 1);
        }
        self.acc.charge_to_device(&self.link.link, bytes as u64);
        Counters::add(&self.tracer.counters().frames_sent, 1);
        Counters::add(&self.tracer.counters().link_bytes_to_device, bytes as u64);

        if self.link.drops(self.stream_id, attempt_index) {
            let timeout_micros = self.retry.timeout_after(self.attempts);
            self.attempts += 1;
            self.acc.charge_wait(timeout_micros);
            Counters::add(&self.tracer.counters().frames_lost, 1);
            Counters::add(&self.tracer.counters().wait_micros, timeout_micros);
            let stream_id = self.stream_id;
            let attempt = u64::from(self.attempts - 1);
            self.tracer.emit(|| Event::ChunkLost {
                stream: stream_id,
                bytes: bytes as u64,
                attempt,
            });
            if self.attempts > self.retry.max_retries {
                return self.done(SessionOutcome::TimedOut);
            }
            Counters::add(&self.tracer.counters().retries, 1);
            self.stage = region.stage();
            return self.progress(
                SessionEventKind::ChunkLost {
                    bytes,
                    timeout_micros,
                },
                before,
            );
        }
        self.attempts = 0;

        let delivery = {
            let Some(stream) = self.stream.as_ref() else {
                debug_assert!(false, "chunk step before stream resolution");
                return self.done(SessionOutcome::Incomplete);
            };
            let chunk = match region {
                Region::Manifest => &stream.manifest[start..end],
                Region::Firmware => &stream.payload[start..end],
            };
            io.deliver(chunk)
        };
        let stream_id = self.stream_id;
        self.tracer.emit(|| Event::ChunkDelivered {
            stream: stream_id,
            bytes: bytes as u64,
        });
        let phase = match delivery {
            Ok(phase) => phase,
            Err(e) => {
                return self.done(match region {
                    Region::Manifest => SessionOutcome::RejectedAtManifest(e),
                    Region::Firmware => SessionOutcome::RejectedAtFirmware(e),
                });
            }
        };
        self.cursor = end;
        match region {
            Region::Manifest => {
                if phase == AgentPhase::ManifestAccepted {
                    self.manifest_accepted = true;
                }
            }
            Region::Firmware => self.firmware_complete = phase == AgentPhase::Complete,
        }

        if self.cursor < len {
            self.stage = region.stage();
            return self.progress(SessionEventKind::ChunkDelivered { bytes }, before);
        }
        // Region complete: transition or terminate.
        match region {
            Region::Manifest => {
                if !self.manifest_accepted {
                    // Manifest stream was too short to complete
                    // verification.
                    return self.done(SessionOutcome::Incomplete);
                }
                match self.flavor {
                    Flavor::Push => self.stage = Stage::GoAhead,
                    Flavor::Pull => {
                        self.stage = Stage::Firmware;
                        self.cursor = 0;
                    }
                }
                self.progress(SessionEventKind::ChunkDelivered { bytes }, before)
            }
            Region::Firmware => {
                let outcome = if self.firmware_complete {
                    SessionOutcome::Complete
                } else {
                    SessionOutcome::Incomplete
                };
                self.done(outcome)
            }
        }
    }
}

/// [`SessionEndpoints`] for a real [`UpdateAgent`]: the agent issues its
/// token for a plan taken once and stores every delivered chunk, while
/// `resolve` is the proxy path that answers the token — such as
/// `|t| forward(&server, t)` for the passive proxy
/// ([`forward`](crate::proxy::forward)) or
/// `|_| gateway.resolve(&origin, now)` for a
/// [`CachingProxy`](crate::proxy::CachingProxy).
pub struct AgentEndpoints<'a, F> {
    agent: &'a mut UpdateAgent,
    layout: &'a mut MemoryLayout,
    plan: Option<UpdatePlan>,
    nonce: u32,
    resolve: F,
}

impl<'a, F: FnMut(&DeviceToken) -> StreamResolution> AgentEndpoints<'a, F> {
    /// Wires `agent` to the proxy path `resolve` for one session.
    pub fn new(
        agent: &'a mut UpdateAgent,
        layout: &'a mut MemoryLayout,
        plan: UpdatePlan,
        nonce: u32,
        resolve: F,
    ) -> Self {
        Self {
            agent,
            layout,
            plan: Some(plan),
            nonce,
            resolve,
        }
    }
}

impl<F: FnMut(&DeviceToken) -> StreamResolution> SessionEndpoints for AgentEndpoints<'_, F> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        let plan = self
            .plan
            .take()
            .ok_or(AgentError::WrongState(AgentState::Waiting))?;
        self.agent
            .request_device_token(self.layout, plan, self.nonce)
    }

    fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution {
        (self.resolve)(token)
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        self.agent.push_data(self.layout, chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted device/proxy pair: accepts the manifest once `manifest`
    /// bytes arrived and completes once all bytes arrived. Lets the state
    /// machine be tested without any crypto in the loop.
    struct StubEndpoints {
        resolution: Option<StreamResolution>,
        manifest_len: usize,
        total_len: usize,
        fed: usize,
    }

    impl StubEndpoints {
        fn serving(manifest: Vec<u8>, payload: Vec<u8>) -> Self {
            Self {
                manifest_len: manifest.len(),
                total_len: manifest.len() + payload.len(),
                resolution: Some(StreamResolution::Stream(SessionStream {
                    manifest,
                    payload,
                })),
                fed: 0,
            }
        }

        fn with_resolution(resolution: StreamResolution) -> Self {
            Self {
                resolution: Some(resolution),
                manifest_len: 0,
                total_len: 0,
                fed: 0,
            }
        }
    }

    impl SessionEndpoints for StubEndpoints {
        fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
            Ok(DeviceToken {
                device_id: 1,
                nonce: 1,
                current_version: upkit_manifest::Version(1),
            })
        }
        fn resolve_stream(&mut self, _token: &DeviceToken) -> StreamResolution {
            // A second resolve means the stub was driven past its script;
            // answer NoUpdate so the session terminates instead of panicking.
            self.resolution.take().unwrap_or(StreamResolution::NoUpdate)
        }
        fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
            self.fed += chunk.len();
            Ok(if self.fed == self.total_len {
                AgentPhase::Complete
            } else if self.fed == self.manifest_len {
                AgentPhase::ManifestAccepted
            } else {
                AgentPhase::NeedMore
            })
        }
    }

    fn link() -> LinkProfile {
        LinkProfile::ieee802154_6lowpan()
    }

    #[test]
    fn stepped_session_completes_and_reports_every_event() {
        let manifest = vec![1u8; 196];
        let payload = vec![2u8; 1000];
        let mut io = StubEndpoints::serving(manifest, payload);
        let mut session = Session::pull(
            LossyLink::reliable(link()),
            RetryPolicy::for_link(&link()),
            0,
        );
        let mut kinds = Vec::new();
        let report = loop {
            match session.step(&mut io) {
                Step::Progress(event) => {
                    assert!(!session.is_done());
                    kinds.push(event.kind);
                }
                Step::Done(report) => break report,
            }
        };
        assert!(session.is_done());
        assert_eq!(report.outcome, SessionOutcome::Complete);
        assert_eq!(kinds[0], SessionEventKind::TokenExchange);
        assert_eq!(kinds[1], SessionEventKind::ProxyFetch);
        assert!(kinds[2..]
            .iter()
            .all(|k| matches!(k, SessionEventKind::ChunkDelivered { .. })));
        // 196 B manifest = 4 blocks, 1000 B payload = 16 blocks; the final
        // payload block's delivery is folded into the Done step.
        assert_eq!(kinds.len() - 2, 4 + 16 - 1);
        assert_eq!(report.accounting.bytes_to_device, 196 + 1000);
        assert_eq!(
            report.accounting.elapsed_micros,
            session.virtual_elapsed_micros()
        );
    }

    #[test]
    fn push_session_charges_goahead_between_regions() {
        let mut io = StubEndpoints::serving(vec![1u8; 196], vec![2u8; 500]);
        let ble = LinkProfile::ble_gatt();
        let mut session = Session::push(LossyLink::reliable(ble), RetryPolicy::for_link(&ble), 0);
        let mut kinds = Vec::new();
        let report = loop {
            match session.step(&mut io) {
                Step::Progress(event) => kinds.push(event.kind),
                Step::Done(report) => break report,
            }
        };
        assert_eq!(report.outcome, SessionOutcome::Complete);
        assert!(kinds.contains(&SessionEventKind::GoAhead));
        // Push: token RTT + go-ahead RTT only.
        assert_eq!(report.accounting.round_trips, 2);
    }

    #[test]
    fn timeout_retry_backoff_give_up_progression() {
        // A link that loses everything: the first block is attempted
        // 1 + max_retries times with doubling timeouts, then the session
        // gives up.
        let retry = RetryPolicy {
            max_retries: 3,
            base_timeout_micros: 1_000,
            backoff_factor: 2,
        };
        let mut io = StubEndpoints::serving(vec![1u8; 196], vec![2u8; 500]);
        let mut session = Session::pull(LossyLink::bernoulli(link(), 1.0, 7), retry, 0);
        let mut timeouts = Vec::new();
        let report = loop {
            match session.step(&mut io) {
                Step::Progress(SessionEvent {
                    kind: SessionEventKind::ChunkLost { timeout_micros, .. },
                    ..
                }) => timeouts.push(timeout_micros),
                Step::Progress(_) => {}
                Step::Done(report) => break report,
            }
        };
        assert_eq!(report.outcome, SessionOutcome::TimedOut);
        // 3 lost events reported; the 4th loss exceeds the budget and is
        // folded into the Done step.
        assert_eq!(timeouts, vec![1_000, 2_000, 4_000]);
        // All four attempted transmissions and all four timeouts (the
        // give-up attempt included) are charged, plus the token chunk.
        assert_eq!(report.accounting.chunks, 1 + 4);
        let expected_waits = 1_000 + 2_000 + 4_000 + 8_000;
        let mut base = TransferAccounting::default();
        base.charge_round_trip(&link());
        base.charge_from_device(&link(), DEVICE_TOKEN_LEN as u64);
        for _ in 0..4 {
            base.charge_round_trip(&link());
            base.charge_to_device(&link(), 64);
        }
        assert_eq!(
            report.accounting.elapsed_micros,
            base.elapsed_micros + expected_waits
        );
        assert_eq!(io.fed, 0, "no chunk was ever delivered");
    }

    #[test]
    fn retries_reset_after_a_successful_delivery() {
        // ~30 % loss: the session must still complete, with every loss
        // charged as a full attempted transmission plus a timeout.
        let lossy = LossyLink::bernoulli(link(), 0.3, 99);
        let mut io = StubEndpoints::serving(vec![1u8; 196], vec![2u8; 2_000]);
        let mut session = Session::pull(lossy, RetryPolicy::for_link(&link()), 5);
        let mut lost = 0u64;
        let mut delivered = 0u64;
        let report = loop {
            match session.step(&mut io) {
                Step::Progress(SessionEvent { kind, .. }) => match kind {
                    SessionEventKind::ChunkLost { .. } => lost += 1,
                    SessionEventKind::ChunkDelivered { .. } => delivered += 1,
                    _ => {}
                },
                Step::Done(report) => break report,
            }
        };
        assert_eq!(report.outcome, SessionOutcome::Complete);
        assert!(lost > 0, "seed 99 should sample at least one loss");
        assert_eq!(io.fed, 196 + 2_000);
        // Attempted transmissions = delivered (incl. the final one folded
        // into Done) + lost, plus the token chunk.
        assert_eq!(report.accounting.chunks, 1 + delivered + 1 + lost);
        // A reliable run of the same stream is strictly cheaper.
        let mut reliable_io = StubEndpoints::serving(vec![1u8; 196], vec![2u8; 2_000]);
        let mut reliable = Session::pull(
            LossyLink::reliable(link()),
            RetryPolicy::for_link(&link()),
            5,
        );
        let reliable_report = reliable.run_to_completion(&mut reliable_io);
        assert!(report.accounting.elapsed_micros > reliable_report.accounting.elapsed_micros);
    }

    #[test]
    fn deferred_resolution_charges_exactly_the_upstream_wait() {
        let make = || StubEndpoints::serving(vec![1u8; 196], vec![2u8; 1000]);
        let mut plain_io = make();
        let mut deferred_io = make();
        let Some(StreamResolution::Stream(stream)) = deferred_io.resolution.take() else {
            panic!("stub serves a stream");
        };
        deferred_io.resolution = Some(StreamResolution::Deferred {
            stream,
            wait_micros: 123_456,
        });
        let new_session = || {
            Session::pull(
                LossyLink::reliable(link()),
                RetryPolicy::for_link(&link()),
                0,
            )
        };
        let plain = new_session().run_to_completion(&mut plain_io);
        let deferred = new_session().run_to_completion(&mut deferred_io);
        assert_eq!(plain.outcome, SessionOutcome::Complete);
        assert_eq!(deferred.outcome, SessionOutcome::Complete);
        // Same bytes on the radio, only the proxy wait separates them.
        assert_eq!(
            plain.accounting.bytes_to_device,
            deferred.accounting.bytes_to_device
        );
        assert_eq!(plain.accounting.chunks, deferred.accounting.chunks);
        assert_eq!(
            deferred.accounting.elapsed_micros,
            plain.accounting.elapsed_micros + 123_456
        );
    }

    #[test]
    fn proxy_empty_resolution_ends_the_session() {
        let mut io = StubEndpoints::with_resolution(StreamResolution::ProxyEmpty);
        let ble = LinkProfile::ble_gatt();
        let mut session = Session::push(LossyLink::reliable(ble), RetryPolicy::for_link(&ble), 0);
        let report = session.run_to_completion(&mut io);
        assert_eq!(report.outcome, SessionOutcome::ProxyEmpty);
        // The token exchange already happened.
        assert_eq!(report.accounting.round_trips, 1);
    }

    #[test]
    fn stepping_a_finished_session_repeats_the_report() {
        let mut io = StubEndpoints::with_resolution(StreamResolution::NoUpdate);
        let mut session = Session::pull(
            LossyLink::reliable(link()),
            RetryPolicy::for_link(&link()),
            0,
        );
        let first = session.run_to_completion(&mut io);
        assert_eq!(first.outcome, SessionOutcome::NoUpdateAvailable);
        match session.step(&mut io) {
            Step::Done(again) => assert_eq!(again, first),
            Step::Progress(_) => panic!("finished session must not progress"),
        }
    }

    #[test]
    fn backoff_timeouts_are_capped_against_overflow() {
        let retry = RetryPolicy {
            max_retries: 200,
            base_timeout_micros: u64::MAX / 2,
            backoff_factor: 10,
        };
        assert_eq!(retry.timeout_after(100), u64::MAX);
    }
    /// A device agent running v1 behind a proxy [`forward`]ing the update
    /// server's releases, as the push and pull flows of Fig. 2 see it; a
    /// [`FrameAdversary`] around it applies each attack.
    mod agent {
        use super::*;
        use crate::proxy::forward;
        use crate::tamper::{FrameAdversary, FrameTamper};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;
        use upkit_core::agent::AgentConfig;
        use upkit_core::generation::{UpdateServer, VendorServer};
        use upkit_core::image::FIRMWARE_OFFSET;
        use upkit_core::keys::TrustAnchors;
        use upkit_core::verifier::VerifyError;
        use upkit_crypto::backend::TinyCryptBackend;
        use upkit_crypto::ecdsa::SigningKey;
        use upkit_flash::{configuration_a, standard, FlashGeometry, SimFlash};
        use upkit_manifest::{Version, SIGNED_MANIFEST_LEN};

        const SLOT_SIZE: u32 = 4096 * 32;

        struct World {
            server: UpdateServer,
            agent: UpdateAgent,
            layout: MemoryLayout,
        }

        /// A device with `installed` in slot A (when not empty) and a
        /// server publishing `releases` as `(version, firmware)` pairs.
        fn world(seed: u64, installed: &[u8], releases: &[(u16, &[u8])]) -> World {
            let mut rng = StdRng::seed_from_u64(seed);
            let vendor = VendorServer::new(SigningKey::generate(&mut rng));
            let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
            for &(version, fw) in releases {
                server.publish(vendor.release(fw.to_vec(), Version(version), 0x100, 0xA));
            }
            let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
            let mut layout = configuration_a(
                Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 256, 4096))),
                SLOT_SIZE,
            )
            .unwrap();
            if !installed.is_empty() {
                layout.erase_slot(standard::SLOT_A).unwrap();
                layout
                    .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, installed)
                    .unwrap();
            }
            let agent = UpdateAgent::new(
                Arc::new(TinyCryptBackend),
                anchors,
                AgentConfig {
                    device_id: 0xD,
                    app_id: 0xA,
                    supports_differential: true,
                    content_key: None,
                },
            );
            World {
                server,
                agent,
                layout,
            }
        }

        /// A v1 device and a server publishing only v2 = `fw`.
        fn v2_world(seed: u64, fw: Vec<u8>) -> World {
            world(seed, &[], &[(2, &fw)])
        }

        fn plan(installed: &[u8]) -> UpdatePlan {
            UpdatePlan {
                target_slot: standard::SLOT_B,
                current_slot: standard::SLOT_A,
                installed_version: Version(1),
                installed_size: installed.len() as u32,
                allowed_link_offsets: vec![0x100],
                max_firmware_size: SLOT_SIZE - FIRMWARE_OFFSET,
            }
        }

        /// A push or pull session, per `session`, over a reliable `link`.
        fn reliable(
            session: fn(LossyLink, RetryPolicy, u64) -> Session,
            link: LinkProfile,
        ) -> Session {
            session(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0)
        }

        /// Runs one reliable session of `w`'s agent behind a proxy that
        /// forwards the server's image and applies `tamper`.
        fn run(
            w: &mut World,
            mut session: Session,
            tamper: FrameTamper,
            plan: UpdatePlan,
            nonce: u32,
        ) -> SessionReport {
            let server = &w.server;
            let endpoints = AgentEndpoints::new(&mut w.agent, &mut w.layout, plan, nonce, |t| {
                forward(server, t)
            });
            session.run_to_completion(&mut FrameAdversary::new(endpoints, tamper))
        }

        fn push(w: &mut World, tamper: FrameTamper, nonce: u32) -> SessionReport {
            let session = reliable(Session::push, LinkProfile::ble_gatt());
            run(w, session, tamper, plan(&[]), nonce)
        }

        #[test]
        fn push_session_completes_and_accounts() {
            let mut w = v2_world(150, vec![0x77; 50_000]);
            let report = push(&mut w, FrameTamper::None, 42);
            assert!(report.outcome.is_complete(), "{:?}", report.outcome);
            assert!(report.accounting.bytes_to_device > 50_000);
            assert!(report.accounting.elapsed_micros > 0);
        }

        #[test]
        fn pull_session_completes_with_round_trips_per_block() {
            let mut w = v2_world(151, vec![0x66; 20_000]);
            let session = reliable(Session::pull, LinkProfile::ieee802154_6lowpan());
            let report = run(&mut w, session, FrameTamper::None, plan(&[]), 43);
            assert!(report.outcome.is_complete(), "{:?}", report.outcome);
            // Every block is confirmed: round trips ≈ chunks.
            assert!(report.accounting.round_trips >= report.accounting.chunks / 2);
        }

        #[test]
        fn tampered_manifest_is_rejected_before_payload_bytes_flow() {
            let mut w = v2_world(152, vec![0x55; 40_000]);
            // Flip a bit inside the manifest region.
            let report = push(&mut w, FrameTamper::FlipBit { offset: 30 }, 44);
            match report.outcome {
                SessionOutcome::RejectedAtManifest(_) => {}
                other => panic!("expected manifest rejection, got {other:?}"),
            }
            // Early rejection: only manifest-sized data ever hit the radio.
            assert!(
                report.accounting.bytes_to_device <= SIGNED_MANIFEST_LEN as u64,
                "{} bytes flowed",
                report.accounting.bytes_to_device
            );
        }

        #[test]
        fn tampered_firmware_is_rejected_before_reboot() {
            let mut w = v2_world(153, vec![0x44; 30_000]);
            let flipped = FrameTamper::FlipBit {
                offset: SIGNED_MANIFEST_LEN + 15_000,
            };
            match push(&mut w, flipped, 45).outcome {
                SessionOutcome::RejectedAtFirmware(AgentError::Verify(
                    VerifyError::DigestMismatch,
                )) => {}
                other => panic!("expected firmware digest rejection, got {other:?}"),
            }
        }

        #[test]
        fn truncating_proxy_leaves_session_incomplete() {
            let mut w = v2_world(154, vec![0x33; 10_000]);
            let truncating = FrameTamper::Truncate {
                keep: SIGNED_MANIFEST_LEN + 2_000,
            };
            let report = push(&mut w, truncating, 46);
            assert!(matches!(report.outcome, SessionOutcome::Incomplete));
        }

        #[test]
        fn replayed_image_from_previous_request_is_rejected() {
            // Run one honest session and capture the stream it was served;
            // replay it to a new request with a fresh nonce. The
            // update-server signature binds the old nonce, so the agent
            // must reject it at the manifest.
            let mut w = v2_world(155, vec![0x22; 5_000]);
            let mut captured = None;
            let server = &w.server;
            let report = reliable(Session::push, LinkProfile::ble_gatt()).run_to_completion(
                &mut AgentEndpoints::new(&mut w.agent, &mut w.layout, plan(&[]), 100, |t| {
                    let served = forward(server, t);
                    if let StreamResolution::Stream(stream) = &served {
                        captured = Some(stream.clone());
                    }
                    served
                }),
            );
            assert!(report.outcome.is_complete());

            // Fresh device state for a second update attempt, with a
            // different nonce than the captured image's 100.
            let mut w2 = v2_world(155, vec![0x22; 5_000]);
            let captured = captured.expect("the honest session was served a stream");
            let report = push(&mut w2, FrameTamper::ReplaceStream(captured), 101);
            match report.outcome {
                SessionOutcome::RejectedAtManifest(AgentError::Verify(VerifyError::WrongNonce)) => {
                }
                other => panic!("expected nonce rejection, got {other:?}"),
            }
        }

        #[test]
        fn no_update_available_short_circuits() {
            let mut w = v2_world(156, vec![0x11; 1_000]);
            let mut current = plan(&[]);
            current.installed_version = Version(2); // already newest
            let session = reliable(Session::push, LinkProfile::ble_gatt());
            let report = run(&mut w, session, FrameTamper::None, current, 47);
            assert!(matches!(report.outcome, SessionOutcome::NoUpdateAvailable));
            assert_eq!(report.accounting.bytes_to_device, 0);
        }

        #[test]
        fn differential_pull_transfers_fraction_of_image() {
            // Publish v1 and a similar v2; the device at v1 pulls a delta.
            let v1: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
            let mut v2 = v1.clone();
            v2[1000..1050].fill(0xEE);
            let mut w = world(157, &v1, &[(1, &v1), (2, &v2)]);
            let session = reliable(Session::pull, LinkProfile::ieee802154_6lowpan());
            let report = run(&mut w, session, FrameTamper::None, plan(&v1), 48);
            assert!(report.outcome.is_complete(), "{:?}", report.outcome);
            assert!(
                report.accounting.bytes_to_device < v2.len() as u64 / 4,
                "delta transfer should be small: {}",
                report.accounting.bytes_to_device
            );
            // The reconstructed firmware is v2.
            let mut stored = vec![0u8; v2.len()];
            w.layout
                .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored)
                .unwrap();
            assert_eq!(stored, v2);
        }
    }
}
