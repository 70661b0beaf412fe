//! Virtual-clock event scheduler: thousands of in-flight update sessions
//! interleaved on one simulated timeline.
//!
//! The round-based fleet loop ([`crate::fleet`]) advances every device one
//! whole update per round — adoption is measured in "rounds", not time,
//! and no two transfers ever overlap. This module replaces that model for
//! timing studies: every device runs a resumable
//! [`PullSession`](upkit_net::PullSession), and a binary-heap virtual
//! clock pops whichever session's next link event is earliest, steps it
//! once, and re-inserts it at `now + cost`. Thousands of sessions are
//! genuinely concurrent on the virtual timeline, with per-session Bernoulli
//! loss and retransmission backoff interleaving naturally.
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

/// Immutable campaign-wide context every session endpoint reads.
struct CampaignEnv {
    server: UpdateServer,
    lite: LiteEnv,
    latest: Version,
    verify_signatures: bool,
    /// Scale mode: the one canonical stream served to every session.
    canonical: Option<SessionStream>,
}

struct LiteEndpoints<'a> {
    env: &'a CampaignEnv,
    state: &'a mut LiteDevice,
    counters: &'a Counters,
}

impl SessionEndpoints for LiteEndpoints<'_> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        Ok(self.state.next_token())
    }

    fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution {
        if let Some(canonical) = &self.env.canonical {
            // Scale mode: serve the canonical stream unless the device is
            // already current.
            if self.state.installed >= self.env.latest {
                return StreamResolution::NoUpdate;
            }
            return StreamResolution::Stream(canonical.clone());
        }
        let Some(prepared) = self.env.server.prepare_update(token) else {
            return StreamResolution::NoUpdate;
        };
        StreamResolution::Stream(SessionStream::split(prepared.image.to_bytes()))
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        let mut signatures = SignatureCheck::uncounted(self.env.verify_signatures);
        self.state
            .deliver(&self.env.lite, &mut signatures, self.counters, chunk)
    }
}

/// One device's scheduler-side bookkeeping.
struct DeviceSlot {
    state: LiteDevice,
    session: Option<PullSession>,
    session_started_at: u64,
    poll_attempts: u32,
    completed_at: Option<u64>,
    gave_up: bool,
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
    // --- World: same derivation scheme as the round-based fleet ----------
    let world = UpgradeWorld::build(config.seed, config.firmware_size);
    let canonical = if config.device_bound_manifests {
        None
    } else {
        // Scale mode: prepare one stream up front (one ECDSA signature for
        // the whole campaign instead of one per device).
        let token = DeviceToken {
            device_id: 0,
            nonce: 1,
            current_version: if config.differential {
                Version(1)
            } else {
                Version(0)
            },
        };
        let prepared = world
            .server
            .prepare_update(&token)
            .expect("v2 is published and newer");
        Some(SessionStream::split(prepared.image.to_bytes()))
    };

    let env = CampaignEnv {
        lite: LiteEnv::new(&world, config.device_bound_manifests),
        server: world.server,
        latest: Version(2),
        verify_signatures: config.verify_signatures,
        canonical,
    };

    let link = LinkProfile::ieee802154_6lowpan();
    let lossy = LossyLink::bernoulli(link, config.loss_rate, config.seed);

    // --- Devices and their first poll times -------------------------------
    let device_count = config.devices as usize;
    let mut slots: Vec<DeviceSlot> = (0..config.devices)
        .map(|i| DeviceSlot {
            state: LiteDevice::new(0x1000 + i, config.differential),
            session: None,
            session_started_at: 0,
            poll_attempts: 0,
            completed_at: None,
            gave_up: false,
        })
        .collect();

    // Heap of (wake time, tie) — tie encodes the device index, optionally
    // reversed, purely to prove the report ignores tie-break order.
    let tie = |idx: u32| -> u32 {
        if config.reverse_tie_break {
            u32::MAX - idx
        } else {
            idx
        }
    };
    let untie = |t: u32| -> u32 {
        if config.reverse_tie_break {
            u32::MAX - t
        } else {
            t
        }
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(device_count);
    for (i, _) in slots.iter().enumerate() {
        let spread = if config.poll_window_micros == 0 {
            0
        } else {
            // Deterministic per-device start, uniform over the window.
            splitmix64(config.seed ^ 0x57A2_7000u64.wrapping_add(i as u64))
                % config.poll_window_micros
        };
        heap.push(Reverse((spread, tie(i as u32))));
    }

    // --- Event loop --------------------------------------------------------
    let mut events = 0u64;
    let mut total_wire_bytes = 0u64;
    let mut makespan_micros = 0u64;
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(device_count);
    let mut completion_times: Vec<u64> = Vec::new();

    while let Some(Reverse((now, t))) = heap.pop() {
        let idx = untie(t) as usize;
        let slot = &mut slots[idx];
        // The heap pops in non-decreasing time order, so this only ever
        // pushes the trace clock forward.
        tracer.advance_now_to(now);

        if slot.session.is_none() {
            // A poll fires: open a fresh session. The loss stream is unique
            // per (device, attempt) so no session's pattern depends on any
            // other's, or on when it runs.
            let stream_id = (idx as u64) << 16 | u64::from(slot.poll_attempts);
            let mut session = PullSession::new(lossy, config.retry, stream_id);
            session.set_tracer(tracer.clone());
            slot.session = Some(session);
            slot.session_started_at = now;
            slot.poll_attempts += 1;
            slot.state.reset_transfer();
            let device = u64::from(slot.state.device_id);
            tracer.emit(|| Event::SchedulerDispatch {
                device,
                at_micros: now,
            });
        }

        let Some(session) = slot.session.as_mut() else {
            debug_assert!(false, "session just ensured above");
            continue;
        };
        let step = {
            let mut endpoints = LiteEndpoints {
                env: &env,
                state: &mut slot.state,
                counters: tracer.counters(),
            };
            session.step(&mut endpoints)
        };
        match step {
            Step::Progress(event) => {
                events += 1;
                heap.push(Reverse((now + event.cost_micros, t)));
            }
            Step::Done(report) => {
                let Some(session) = slot.session.take() else {
                    debug_assert!(false, "session was stepped above");
                    continue;
                };
                let end = slot.session_started_at + session.virtual_elapsed_micros();
                spans.push((slot.session_started_at, end));
                makespan_micros = makespan_micros.max(end);
                total_wire_bytes +=
                    report.accounting.bytes_to_device + report.accounting.bytes_from_device;
                let device = u64::from(slot.state.device_id);
                match report.outcome {
                    SessionOutcome::Complete | SessionOutcome::NoUpdateAvailable => {
                        slot.completed_at = Some(end);
                        completion_times.push(end);
                        tracer.emit(|| Event::DeviceComplete {
                            device,
                            outcome: "complete",
                        });
                    }
                    _ => {
                        if slot.poll_attempts < config.max_poll_attempts {
                            heap.push(Reverse((end + config.retry_poll_delay_micros, t)));
                        } else {
                            slot.gave_up = true;
                            tracer.emit(|| Event::DeviceComplete {
                                device,
                                outcome: "gave_up",
                            });
                        }
                    }
                }
            }
        }
    }

    // --- Post-hoc aggregates (order-independent by construction) ----------
    let completed = slots.iter().filter(|s| s.completed_at.is_some()).count() as u32;
    let gave_up = slots.iter().filter(|s| s.gave_up).count() as u32;

    // Peak concurrency: sweep the session spans. At equal timestamps ends
    // sort before starts (delta -1 < +1), so back-to-back sessions don't
    // double-count.
    let mut sweep: Vec<(u64, i32)> = Vec::with_capacity(spans.len() * 2);
    for &(start, end) in &spans {
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

    let adoption =
        if let Some(full_buckets) = makespan_micros.checked_div(config.adoption_bucket_micros) {
            completion_times.sort_unstable();
            let buckets = full_buckets + 1;
            let mut histogram = vec![0u32; buckets as usize];
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
        completed,
        gave_up,
        total_wire_bytes,
        events,
        makespan_micros,
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
