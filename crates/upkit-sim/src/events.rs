//! Virtual-clock session scheduler: thousands of in-flight update sessions
//! interleaved on one simulated timeline.
//!
//! The round-based fleet loop ([`crate::fleet`]) advances every device one
//! whole update per round — adoption is measured in "rounds", not time,
//! and no two transfers ever overlap. This module replaces that model for
//! timing studies: every device runs a resumable [`PullSession`], and a
//! binary-heap virtual clock pops whichever session's next link event is
//! earliest, steps it once, and re-inserts it at `now + cost`. Thousands
//! of sessions are genuinely concurrent on the virtual timeline, with
//! per-session Bernoulli loss and retransmission backoff interleaving
//! naturally.
//!
//! That loop, `run_sessions`, is the one event loop of both timing
//! engines. It owns poll spread, duty-cycle sleep, session opening and
//! stepping, re-polls and give-ups; its only seam is a `StreamSource`,
//! which names what each device checks updates against and which stream
//! it is served. [`run_event_rollout`] serves devices straight from the
//! update server; [`crate::topology`] serves them through a gateway's
//! caching proxy, and runs its loss-free reference fetch on the same loop.
//!
//! **Determinism guarantee.** The final [`EventFleetReport`] is a pure
//! function of the [`EventFleetConfig`] — independent of heap tie-breaking
//! order (covered by a test that flips the tie-break direction). This
//! holds because sessions never share mutable state, each session's loss
//! pattern is a pure function of `(seed, stream, attempt)`
//! ([`upkit_net::LossyLink::drops`]), and every report field is an
//! order-independent aggregate (sums, maxima, and a post-hoc sweep over
//! per-session spans).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use upkit_core::agent::{AgentError, AgentPhase};
use upkit_core::generation::UpdateServer;
use upkit_manifest::{DeviceToken, Version};
use upkit_net::lossy::splitmix64;
use upkit_net::{
    LinkProfile, LossyLink, PullSession, RetryPolicy, SessionEndpoints, SessionOutcome,
    SessionStream, Step, StreamResolution, Transport,
};
use upkit_trace::{Counters, Event, Tracer};

use crate::lite::{LiteDevice, LiteEnv, SignatureCheck, UpgradeWorld};
use crate::topology::DutyCycle;

/// Parameters of an event-driven v1→v2 update campaign.
#[derive(Clone, Copy, Debug)]
pub struct EventFleetConfig {
    /// Number of devices.
    pub devices: u32,
    /// Firmware size in bytes.
    pub firmware_size: usize,
    /// Whether devices advertise differential support.
    pub differential: bool,
    /// Per-attempt Bernoulli loss probability on every device's link.
    pub loss_rate: f64,
    /// Retransmission policy for every session.
    pub retry: RetryPolicy,
    /// Devices start their first poll uniformly inside this window
    /// (microseconds of virtual time).
    pub poll_window_micros: u64,
    /// Delay before a device whose session failed polls again.
    pub retry_poll_delay_micros: u64,
    /// Sessions a device attempts before giving up entirely.
    pub max_poll_attempts: u32,
    /// Whether devices check both manifest signatures.
    pub verify_signatures: bool,
    /// `true` = full protocol fidelity: every device requests its own
    /// device/nonce-bound manifest from the server (one ECDSA signature
    /// per request). `false` = scale mode: one canonical manifest for
    /// device id 0 is prepared up front and served to every session, and
    /// devices check it as a broadcast manifest (device id 0, no nonce) —
    /// the wire protocol, chunking, loss, and every other check stay
    /// exact, enabling 10k–1M-session campaigns.
    pub device_bound_manifests: bool,
    /// Bucket width of the adoption histogram (0 = no histogram).
    pub adoption_bucket_micros: u64,
    /// Flips the heap's tie-breaking direction for equal timestamps.
    /// Exists to *prove* determinism (the report must not change), not to
    /// configure behaviour.
    pub reverse_tie_break: bool,
    /// Deterministic seed (keys, firmware content, loss streams, poll
    /// spread).
    pub seed: u64,
}

impl Default for EventFleetConfig {
    fn default() -> Self {
        Self {
            devices: 100,
            firmware_size: 4_000,
            differential: false,
            loss_rate: 0.0,
            retry: RetryPolicy::for_link(&LinkProfile::ieee802154_6lowpan()),
            poll_window_micros: 100_000,
            retry_poll_delay_micros: 5_000_000,
            max_poll_attempts: 5,
            verify_signatures: true,
            device_bound_manifests: true,
            adoption_bucket_micros: 0,
            reverse_tie_break: false,
            seed: 0xE7E7,
        }
    }
}

/// Result of an event-driven campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventFleetReport {
    /// Devices that completed the update.
    pub completed: u32,
    /// Devices that exhausted every poll attempt without completing.
    pub gave_up: u32,
    /// Total bytes that crossed any radio (both directions, all attempts).
    pub total_wire_bytes: u64,
    /// Link events processed across all sessions.
    pub events: u64,
    /// Virtual time at which the last session ended.
    pub makespan_micros: u64,
    /// Maximum number of sessions simultaneously in flight.
    pub peak_in_flight: u32,
    /// Cumulative completions per `adoption_bucket_micros` bucket (empty
    /// when no bucket width was configured).
    pub adoption: Vec<u32>,
}

/// Where a scheduled device's update stream comes from: the one seam
/// between [`run_sessions`] and the engines that run it.
pub(crate) trait StreamSource {
    /// What device `index` (fleet-wide) checks its updates against.
    fn lite(&self, index: usize) -> &LiteEnv;
    /// The stream device `index` is served for `token` at virtual time
    /// `now`.
    fn resolve(
        &mut self,
        index: usize,
        device: &LiteDevice,
        token: &DeviceToken,
        now: u64,
    ) -> StreamResolution;
}

/// One scheduled device's session endpoints: its lite device on one side,
/// the stream source on the other.
struct LiteEndpoints<'a, S> {
    source: &'a mut S,
    index: usize,
    device: &'a mut LiteDevice,
    verify_signatures: bool,
    now_micros: u64,
    counters: &'a Counters,
}

impl<S: StreamSource> SessionEndpoints for LiteEndpoints<'_, S> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        Ok(self.device.next_token())
    }

    fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution {
        self.source
            .resolve(self.index, self.device, token, self.now_micros)
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let mut signatures = if self.verify_signatures {
            SignatureCheck::Uncounted
        } else {
            SignatureCheck::Skip
        };
        self.device.deliver(
            self.source.lite(self.index),
            &mut signatures,
            self.counters,
            chunk,
        )
    }
}

/// How [`run_sessions`] paces one fleet's sessions.
pub(crate) struct Schedule {
    /// The link every session runs over. Its seed also derives the poll
    /// spread and the duty phases.
    pub(crate) link: LossyLink,
    pub(crate) retry: RetryPolicy,
    /// Fleet-wide index of the first scheduled device: poll spreads, duty
    /// phases and loss streams derive from the fleet-wide index.
    pub(crate) first_index: usize,
    pub(crate) poll_window_micros: u64,
    pub(crate) retry_poll_delay_micros: u64,
    pub(crate) max_poll_attempts: u32,
    pub(crate) verify_signatures: bool,
    pub(crate) duty: Option<DutyCycle>,
    /// Flips the heap's tie-breaking direction for equal wake times.
    pub(crate) reverse_tie_break: bool,
}

/// How one scheduled device ended.
#[derive(Clone, Copy, Default)]
pub(crate) struct DeviceOutcome {
    /// When the session that completed it ended.
    pub(crate) completed_at: Option<u64>,
    /// Exhausted every poll attempt without completing.
    pub(crate) gave_up: bool,
    /// Sleep deferrals applied to it.
    pub(crate) slept: u64,
}

/// Everything [`run_sessions`] measured.
pub(crate) struct SessionRun {
    /// Per device, in device order.
    pub(crate) outcomes: Vec<DeviceOutcome>,
    /// Link events stepped.
    pub(crate) events: u64,
    /// Bytes that crossed the radio (both directions, all attempts).
    pub(crate) wire_bytes: u64,
    /// Virtual time the last session ended.
    pub(crate) makespan_micros: u64,
    /// `(start, end)` of every session, failed ones included.
    pub(crate) spans: Vec<(u64, u64)>,
}

/// One device's scheduler-side bookkeeping.
#[derive(Default)]
struct Slot {
    session: Option<PullSession>,
    started_at: u64,
    /// Sleep time accumulated inside the current session (its end shifts
    /// by this; radio accounting does not).
    sleep_micros: u64,
    poll_attempts: u32,
    duty_phase: u64,
    outcome: DeviceOutcome,
}

/// The virtual-clock session scheduler both timing engines run: a heap of
/// `(wake, tie)` keys pops whichever device's next link event is
/// earliest, opens a session when its poll fires, steps it once, and
/// re-inserts it at `now + cost` (deferred past any sleep window). A
/// failed session re-polls after `retry_poll_delay_micros` until
/// `max_poll_attempts` are spent. `tie` is the device index, reversed
/// under `reverse_tie_break`.
pub(crate) fn run_sessions<S: StreamSource>(
    schedule: &Schedule,
    devices: &mut [LiteDevice],
    source: &mut S,
    tracer: &Tracer,
) -> SessionRun {
    let seed = schedule.link.seed;
    let duty_period = match schedule.duty {
        Some(DutyCycle::Periodic {
            awake_micros,
            asleep_micros,
        }) => awake_micros.saturating_add(asleep_micros),
        _ => 0,
    };
    let mut slots: Vec<Slot> = (schedule.first_index..schedule.first_index + devices.len())
        .map(|i| Slot {
            duty_phase: splitmix64(seed ^ 0xD07A_0000u64.wrapping_add(i as u64))
                .checked_rem(duty_period)
                .unwrap_or(0),
            ..Slot::default()
        })
        .collect();

    // Defers a wake to the device's next awake instant, charging the
    // sleep to the slot and the counters.
    let defer = |slot: &mut Slot, device: &LiteDevice, t: u64, in_session: bool| -> u64 {
        let Some(duty) = schedule.duty else { return t };
        let wake = duty.defer(slot.duty_phase, t);
        if wake > t {
            slot.outcome.slept += 1;
            if in_session {
                slot.sleep_micros += wake - t;
            }
            Counters::add(&tracer.counters().devices_slept, 1);
            let device = u64::from(device.device_id);
            tracer.emit(|| Event::DeviceSleep {
                device,
                until_micros: wake,
            });
        }
        wake
    };

    // Reversing is an involution, so `tie` also recovers the index.
    let tie = |idx: u32| -> u32 {
        if schedule.reverse_tie_break {
            u32::MAX - idx
        } else {
            idx
        }
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(devices.len());
    for (i, (slot, device)) in slots.iter_mut().zip(devices.iter()).enumerate() {
        // Deterministic per-device first poll, uniform over the window.
        let spread =
            splitmix64(seed ^ 0x57A2_7000u64.wrapping_add((schedule.first_index + i) as u64))
                .checked_rem(schedule.poll_window_micros)
                .unwrap_or(0);
        heap.push(Reverse((defer(slot, device, spread, false), tie(i as u32))));
    }

    let mut run = SessionRun {
        outcomes: Vec::new(),
        events: 0,
        wire_bytes: 0,
        makespan_micros: 0,
        spans: Vec::with_capacity(devices.len()),
    };
    while let Some(Reverse((now, t))) = heap.pop() {
        let idx = tie(t) as usize;
        let (slot, device) = (&mut slots[idx], &mut devices[idx]);
        let index = schedule.first_index + idx;
        // The heap pops in non-decreasing time order, so this only ever
        // pushes the trace clock forward.
        tracer.advance_now_to(now);

        let session = match &mut slot.session {
            Some(session) => session,
            none @ None => {
                // A poll fires: open a fresh session. The loss stream is
                // unique per (device, attempt) so no session's pattern
                // depends on any other's, or on when it runs.
                let stream_id = (index as u64) << 16 | u64::from(slot.poll_attempts);
                let mut session = PullSession::new(schedule.link, schedule.retry, stream_id);
                session.set_tracer(tracer.clone());
                slot.started_at = now;
                slot.sleep_micros = 0;
                slot.poll_attempts += 1;
                device.reset_transfer();
                let device = u64::from(device.device_id);
                tracer.emit(|| Event::SchedulerDispatch {
                    device,
                    at_micros: now,
                });
                none.insert(session)
            }
        };
        let step = session.step(&mut LiteEndpoints {
            source: &mut *source,
            index,
            device: &mut *device,
            verify_signatures: schedule.verify_signatures,
            now_micros: now,
            counters: tracer.counters(),
        });
        match step {
            Step::Progress(event) => {
                run.events += 1;
                let wake = defer(slot, device, now + event.cost_micros, true);
                heap.push(Reverse((wake, t)));
            }
            Step::Done(report) => {
                let end = slot.started_at + session.virtual_elapsed_micros() + slot.sleep_micros;
                slot.session = None;
                run.spans.push((slot.started_at, end));
                run.makespan_micros = run.makespan_micros.max(end);
                run.wire_bytes +=
                    report.accounting.bytes_to_device + report.accounting.bytes_from_device;
                let id = u64::from(device.device_id);
                if matches!(
                    report.outcome,
                    SessionOutcome::Complete | SessionOutcome::NoUpdateAvailable
                ) {
                    slot.outcome.completed_at = Some(end);
                    tracer.emit(|| Event::DeviceComplete {
                        device: id,
                        outcome: "complete",
                    });
                } else if slot.poll_attempts < schedule.max_poll_attempts {
                    let wake = defer(slot, device, end + schedule.retry_poll_delay_micros, false);
                    heap.push(Reverse((wake, t)));
                } else {
                    slot.outcome.gave_up = true;
                    tracer.emit(|| Event::DeviceComplete {
                        device: id,
                        outcome: "gave_up",
                    });
                }
            }
        }
    }
    run.outcomes = slots.iter().map(|slot| slot.outcome).collect();
    run
}

/// The one canonical broadcast stream of `world`'s v2, prepared for
/// device id 0: devices check it as a broadcast manifest (device id 0, no
/// nonce), so a whole campaign costs one ECDSA signature instead of one
/// per device.
pub(crate) fn broadcast_stream(world: &UpgradeWorld, differential: bool) -> SessionStream {
    let token = DeviceToken {
        device_id: 0,
        nonce: 1,
        current_version: if differential { Version(1) } else { Version(0) },
    };
    let prepared = world
        .server
        .prepare_update(&token)
        .expect("v2 is published and newer");
    SessionStream::split(prepared.image.to_bytes())
}

/// The event engine's stream source: the update server answers each
/// request directly, or (scale mode) every session is served the one
/// canonical broadcast stream.
struct DirectSource {
    server: UpdateServer,
    lite: LiteEnv,
    canonical: Option<SessionStream>,
}

impl StreamSource for DirectSource {
    fn lite(&self, _: usize) -> &LiteEnv {
        &self.lite
    }

    fn resolve(
        &mut self,
        _: usize,
        device: &LiteDevice,
        token: &DeviceToken,
        _: u64,
    ) -> StreamResolution {
        match &self.canonical {
            // Scale mode: serve the canonical stream unless the device is
            // already current.
            Some(_) if device.installed >= Version(2) => StreamResolution::NoUpdate,
            Some(canonical) => StreamResolution::Stream(canonical.clone()),
            None => match self.server.prepare_update(token) {
                Some(prepared) => {
                    StreamResolution::Stream(SessionStream::split(prepared.image.to_bytes()))
                }
                None => StreamResolution::NoUpdate,
            },
        }
    }
}

/// Runs an event-driven v1→v2 campaign: every device's pull session is
/// stepped one link event at a time on a shared virtual clock, so
/// thousands of transfers are concurrently in flight.
///
/// # Panics
///
/// Panics on internally impossible configurations (zero devices is fine;
/// firmware must fit in memory).
#[must_use]
pub fn run_event_rollout(config: &EventFleetConfig) -> EventFleetReport {
    run_event_rollout_traced(config, &Tracer::disabled())
}

/// [`run_event_rollout`] with observability: scheduler dispatches, session
/// events, and link counters are routed through `tracer`. The tracer's
/// virtual clock is pushed forward (never back) to the heap's event times,
/// so merged traces stay monotone.
#[must_use]
pub fn run_event_rollout_traced(config: &EventFleetConfig, tracer: &Tracer) -> EventFleetReport {
    // Same world derivation scheme as the round-based fleet.
    let world = UpgradeWorld::build(config.seed, config.firmware_size);
    let mut source = DirectSource {
        canonical: (!config.device_bound_manifests)
            .then(|| broadcast_stream(&world, config.differential)),
        lite: LiteEnv::new(&world, config.device_bound_manifests),
        server: world.server,
    };
    let schedule = Schedule {
        link: LossyLink::bernoulli(
            LinkProfile::ieee802154_6lowpan(),
            config.loss_rate,
            config.seed,
        ),
        retry: config.retry,
        first_index: 0,
        poll_window_micros: config.poll_window_micros,
        retry_poll_delay_micros: config.retry_poll_delay_micros,
        max_poll_attempts: config.max_poll_attempts,
        verify_signatures: config.verify_signatures,
        duty: None,
        reverse_tie_break: config.reverse_tie_break,
    };
    let mut devices: Vec<LiteDevice> = (0..config.devices)
        .map(|i| LiteDevice::new(0x1000 + i, config.differential))
        .collect();
    let run = run_sessions(&schedule, &mut devices, &mut source, tracer);

    // --- Post-hoc aggregates (order-independent by construction) ----------
    let completion_times: Vec<u64> = run.outcomes.iter().filter_map(|o| o.completed_at).collect();
    let gave_up = run.outcomes.iter().filter(|o| o.gave_up).count() as u32;

    // Peak concurrency: sweep the session spans. At equal timestamps ends
    // sort before starts (delta -1 < +1), so back-to-back sessions don't
    // double-count.
    let mut sweep: Vec<(u64, i32)> = Vec::with_capacity(run.spans.len() * 2);
    for &(start, end) in &run.spans {
        sweep.push((start, 1));
        sweep.push((end, -1));
    }
    sweep.sort_unstable();
    let mut in_flight = 0i64;
    let mut peak_in_flight = 0i64;
    for &(_, delta) in &sweep {
        in_flight += i64::from(delta);
        peak_in_flight = peak_in_flight.max(in_flight);
    }

    let adoption = if let Some(full_buckets) = run
        .makespan_micros
        .checked_div(config.adoption_bucket_micros)
    {
        let mut histogram = vec![0u32; full_buckets as usize + 1];
        for &at in &completion_times {
            histogram[(at / config.adoption_bucket_micros) as usize] += 1;
        }
        // Cumulative adoption curve.
        for i in 1..histogram.len() {
            histogram[i] += histogram[i - 1];
        }
        histogram
    } else {
        Vec::new()
    };

    EventFleetReport {
        completed: completion_times.len() as u32,
        gave_up,
        total_wire_bytes: run.wire_bytes,
        events: run.events,
        makespan_micros: run.makespan_micros,
        peak_in_flight: peak_in_flight.max(0) as u32,
        adoption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scale_config() -> EventFleetConfig {
        EventFleetConfig {
            devices: 200,
            firmware_size: 1_000,
            differential: false,
            loss_rate: 0.1,
            poll_window_micros: 200_000,
            verify_signatures: false,
            device_bound_manifests: false,
            adoption_bucket_micros: 1_000_000,
            seed: 0xE001,
            ..EventFleetConfig::default()
        }
    }

    #[test]
    fn report_ignores_tie_break_order_and_repeats_exactly() {
        let base = small_scale_config();
        let forward = run_event_rollout(&base);
        let again = run_event_rollout(&base);
        assert_eq!(forward, again, "same config must repeat exactly");
        let reversed = run_event_rollout(&EventFleetConfig {
            reverse_tie_break: true,
            ..base
        });
        assert_eq!(
            forward, reversed,
            "tie-break direction must not affect the report"
        );
        assert_eq!(forward.completed, 200);
        assert_eq!(forward.gave_up, 0);
    }

    #[test]
    fn loss_costs_wire_bytes_and_time_but_not_completions() {
        let reliable = run_event_rollout(&EventFleetConfig {
            loss_rate: 0.0,
            ..small_scale_config()
        });
        let lossy = run_event_rollout(&EventFleetConfig {
            loss_rate: 0.2,
            ..small_scale_config()
        });
        assert_eq!(reliable.completed, 200);
        assert_eq!(lossy.completed, 200, "retries must absorb 20 % loss");
        assert!(lossy.total_wire_bytes > reliable.total_wire_bytes);
        assert!(lossy.makespan_micros > reliable.makespan_micros);
        assert!(lossy.events > reliable.events, "losses add events");
    }

    #[test]
    fn certain_loss_exhausts_polls_and_gives_up() {
        let report = run_event_rollout(&EventFleetConfig {
            devices: 5,
            loss_rate: 1.0,
            max_poll_attempts: 3,
            ..small_scale_config()
        });
        assert_eq!(report.completed, 0);
        assert_eq!(report.gave_up, 5);
    }

    #[test]
    fn fidelity_mode_serves_device_bound_manifests() {
        // Full protocol: per-device signed manifests, both signatures
        // checked, differential payloads patched against v1.
        let full = run_event_rollout(&EventFleetConfig {
            devices: 12,
            firmware_size: 6_000,
            differential: false,
            loss_rate: 0.05,
            poll_window_micros: 50_000,
            verify_signatures: true,
            device_bound_manifests: true,
            seed: 0xE002,
            ..EventFleetConfig::default()
        });
        assert_eq!(full.completed, 12);
        assert_eq!(full.gave_up, 0);
        let diff = run_event_rollout(&EventFleetConfig {
            devices: 12,
            firmware_size: 6_000,
            differential: true,
            loss_rate: 0.05,
            poll_window_micros: 50_000,
            verify_signatures: true,
            device_bound_manifests: true,
            seed: 0xE002,
            ..EventFleetConfig::default()
        });
        assert_eq!(diff.completed, 12);
        assert!(
            diff.total_wire_bytes * 2 < full.total_wire_bytes,
            "differential {} vs full {}",
            diff.total_wire_bytes,
            full.total_wire_bytes
        );
    }

    #[test]
    fn ten_thousand_sessions_interleave_concurrently() {
        // The acceptance bar: ≥ 10k sessions in flight at once, and the
        // report deterministic regardless of tie-breaking.
        let base = EventFleetConfig {
            devices: 10_000,
            firmware_size: 600,
            differential: false,
            loss_rate: 0.0,
            poll_window_micros: 100_000,
            verify_signatures: false,
            device_bound_manifests: false,
            seed: 0xE003,
            ..EventFleetConfig::default()
        };
        let report = run_event_rollout(&base);
        assert_eq!(report.completed, 10_000);
        assert!(
            report.peak_in_flight >= 10_000,
            "peak in flight {}",
            report.peak_in_flight
        );
        let reversed = run_event_rollout(&EventFleetConfig {
            reverse_tie_break: true,
            ..base
        });
        assert_eq!(report, reversed);
    }

    #[test]
    fn adoption_curve_is_cumulative_and_converges() {
        let report = run_event_rollout(&small_scale_config());
        assert!(!report.adoption.is_empty());
        for pair in report.adoption.windows(2) {
            assert!(pair[1] >= pair[0], "adoption regressed");
        }
        assert_eq!(*report.adoption.last().unwrap(), report.completed);
    }
}
