//! Regression lock: the Fig. 8a / Fig. 8c scenario numbers, the zero-loss
//! `loss_sweep` row, and the reports and traces of the stepped sessions
//! and the engines built on them.
//!
//! The asserts pin every charge: any reordering of token, round-trip, or
//! chunk accounting inside the session state machine shows up here as a
//! one-microsecond diff.

use upkit::net::{LinkProfile, LossyLink, TransferAccounting};
use upkit::sim::{run_scenario, Approach, ScenarioConfig, SlotMode};

/// SHA-256 (hex) of a captured trace's NDJSON lines joined by `\n`.
fn ndjson_sha256(sink: &upkit::trace::MemorySink) -> String {
    let lines: Vec<String> = sink
        .snapshot()
        .iter()
        .map(upkit::trace::TraceRecord::to_ndjson)
        .collect();
    upkit::crypto::sha256::sha256(lines.join("\n").as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn fig8a_push_numbers_are_unchanged() {
    let push = run_scenario(&ScenarioConfig::fig8a(Approach::Push));
    assert_eq!(push.phases.propagation_micros, 47_139_356);
    assert_eq!(push.phases.verification_micros, 588_734);
    assert_eq!(push.phases.loading_micros, 12_000_336);
    assert_eq!(
        push.accounting,
        TransferAccounting {
            bytes_to_device: 101_724,
            bytes_from_device: 10,
            chunks: 419,
            round_trips: 2,
            elapsed_micros: 41_861_100,
        }
    );
}

#[test]
fn fig8a_pull_numbers_are_unchanged() {
    let pull = run_scenario(&ScenarioConfig::fig8a(Approach::Pull));
    assert_eq!(pull.phases.propagation_micros, 44_519_976);
    assert_eq!(pull.phases.verification_micros, 588_734);
    assert_eq!(pull.phases.loading_micros, 24_294_944);
    assert_eq!(
        pull.accounting,
        TransferAccounting {
            bytes_to_device: 101_724,
            bytes_from_device: 10,
            chunks: 1_591,
            round_trips: 1_591,
            elapsed_micros: 36_776_720,
        }
    );
}

#[test]
fn fig8c_ab_loading_number_is_unchanged() {
    let mut cfg = ScenarioConfig::fig8a(Approach::Push);
    cfg.slot_mode = SlotMode::AB;
    let ab = run_scenario(&cfg);
    // Propagation/verification identical to the static run; only loading
    // changes (Fig. 8c's ~92 % reduction).
    assert_eq!(ab.phases.propagation_micros, 47_139_356);
    assert_eq!(ab.phases.verification_micros, 588_734);
    assert_eq!(ab.phases.loading_micros, 1_401_536);
}

#[test]
fn loss_sweep_zero_loss_row_is_unchanged() {
    // The analytic `loss_sweep` accounting at rate 0 must equal the old
    // `drop_every_nth = 0` behaviour exactly.
    let link = LossyLink::bernoulli(LinkProfile::ieee802154_6lowpan(), 0.0, 0);
    let mut acc = TransferAccounting::default();
    link.charge_to_device(&mut acc, 100_000);
    for _ in 0..link.link.chunks_for(100_000) {
        acc.charge_round_trip(&link.link);
    }
    assert_eq!(
        acc,
        TransferAccounting {
            bytes_to_device: 100_000,
            bytes_from_device: 0,
            chunks: 1_563,
            round_trips: 1_563,
            elapsed_micros: 36_134_000,
        }
    );
}

mod lossy_pins {
    use std::sync::Arc;

    use upkit::core::image::FIRMWARE_OFFSET;
    use upkit::flash::{standard, SimFlash};
    use upkit::net::{
        forward, AgentEndpoints, LinkProfile, LossyLink, RetryPolicy, Session, SessionOutcome, Step,
    };
    use upkit::sim::{update_world, world_geometry, WorldConfig};
    use upkit::trace::{MemorySink, Tracer};

    const LOSS_RATE: f64 = 0.10;
    const SEED: u64 = 4242;

    struct LossyRun {
        outcome: SessionOutcome,
        frames_sent: u64,
        frames_lost: u64,
        retries: u64,
        digest_ok: bool,
        records: usize,
        trace_sha256: String,
    }

    fn run(pull: bool) -> LossyRun {
        let config = WorldConfig::ab(SEED);
        let mut world = update_world(&config, Box::new(SimFlash::new(world_geometry(&config))));
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        world.layout.set_tracer(tracer.clone());

        let (open, link): (fn(_, _, _) -> Session, _) = if pull {
            (Session::pull, LinkProfile::ieee802154_6lowpan())
        } else {
            (Session::push, LinkProfile::ble_gatt())
        };
        let mut session = open(
            LossyLink::bernoulli(link, LOSS_RATE, SEED),
            RetryPolicy::for_link(&link),
            0,
        );
        session.set_tracer(tracer.clone());
        let server = &world.server;
        let mut endpoints = AgentEndpoints::new(
            &mut world.agent,
            &mut world.layout,
            world.plan.clone(),
            SEED as u32 | 1,
            |t| forward(server, t),
        );
        let outcome = loop {
            if let Step::Done(report) = session.step(&mut endpoints) {
                break report.outcome;
            }
        };

        let snapshot = tracer.counters().snapshot();
        let mut installed = vec![0u8; world.firmware_v2.len()];
        world
            .layout
            .read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut installed)
            .expect("slot B readable");
        LossyRun {
            outcome,
            frames_sent: snapshot.frames_sent,
            frames_lost: snapshot.frames_lost,
            retries: snapshot.retries,
            digest_ok: installed == world.firmware_v2,
            records: sink.len(),
            trace_sha256: super::ndjson_sha256(&sink),
        }
    }

    // The two pins below freeze the seeded loss stream end to end: the
    // Bernoulli sampler, the retry policy, and the frame accounting. Any
    // change to sampling order or retry bookkeeping moves these integers.

    #[test]
    fn seeded_ten_percent_loss_push_run_is_pinned() {
        let run = run(false);
        assert!(matches!(run.outcome, SessionOutcome::Complete));
        assert!(run.digest_ok, "slot B must hold the exact v2 image");
        assert_eq!(
            (run.frames_sent, run.frames_lost, run.retries),
            (188, 16, 16),
            "push frame accounting moved"
        );
        assert_eq!(run.records, 224, "trace record count moved");
        assert_eq!(
            run.trace_sha256, "6382ecdade7726f397d0955156305981ccfb0c061d20993c7c6c844bbf122c04",
            "trace bytes moved"
        );
    }

    #[test]
    fn seeded_ten_percent_loss_pull_run_is_pinned() {
        let run = run(true);
        assert!(matches!(run.outcome, SessionOutcome::Complete));
        assert!(run.digest_ok, "slot B must hold the exact v2 image");
        assert_eq!(
            (run.frames_sent, run.frames_lost, run.retries),
            (738, 86, 86),
            "pull frame accounting moved"
        );
        assert_eq!(run.records, 773, "trace record count moved");
        assert_eq!(
            run.trace_sha256, "e59ef8c047383f8f4e19162e20304bb19ecd0d9a42656aab46ac45303aa17488",
            "trace bytes moved"
        );
    }
}

mod dissemination_pins {
    use std::sync::Arc;

    use upkit::sim::{run_dissemination_traced, TopologyConfig};
    use upkit::trace::{MemorySink, Tracer};

    fn tree() -> TopologyConfig {
        TopologyConfig {
            firmware_size: 1_200,
            block_size: 256,
            ..TopologyConfig::default()
        }
    }

    // The two pins below freeze the dissemination stack end to end: the
    // poll-spread schedule, the caching proxy's hit/miss/single-flight
    // bookkeeping, the backhaul transfer model, and the per-session frame
    // accounting. Any reordering inside the topology event loop or the
    // proxy cache moves these integers.

    #[test]
    fn zero_loss_tree_fan_out_is_pinned() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_dissemination_traced(&tree(), &tracer);
        let counters = tracer.counters().snapshot();
        assert_eq!(report.completed, 8);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.image_mismatches, 0);
        assert_eq!(
            report.downstream_wire_bytes, 23_472,
            "access-mesh wire bytes moved"
        );
        assert_eq!(report.upstream_bytes, 2_924, "backhaul bytes moved");
        assert_eq!(
            (
                report.upstream_fetches,
                report.cache_hits,
                report.cache_misses,
                report.single_flight_joins,
            ),
            (12, 11, 12, 73),
            "proxy cache bookkeeping moved"
        );
        assert_eq!(report.events, 376);
        assert_eq!(report.makespan_micros, 1_344_288);
        assert_eq!(
            (counters.frames_sent, counters.frames_lost, counters.retries),
            (368, 0, 0),
            "zero-loss frame accounting moved"
        );
        assert_eq!(sink.len(), 416, "trace record count moved");
        assert_eq!(
            super::ndjson_sha256(&sink),
            "f6306e9228e25dee8e3fd9e13e92c3d368fe07b566463c3a091657d728746184",
            "trace bytes moved"
        );
    }

    #[test]
    fn seeded_ten_percent_loss_dissemination_is_pinned() {
        let config = TopologyConfig {
            loss_rate: 0.10,
            seed: 4242,
            max_poll_attempts: 24,
            ..tree()
        };
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_dissemination_traced(&config, &tracer);
        let counters = tracer.counters().snapshot();
        assert_eq!(report.completed, 8);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.image_mismatches, 0);
        assert_eq!(report.downstream_wire_bytes, 26_160);
        // Loss costs downstream retransmissions, never extra upstream
        // fetches: the cache still pulls each block once.
        assert_eq!(report.upstream_bytes, 2_924);
        assert_eq!(report.upstream_fetches, 12);
        assert_eq!(report.makespan_micros, 1_908_094);
        assert_eq!(
            (counters.frames_sent, counters.frames_lost, counters.retries),
            (410, 42, 42),
            "seeded loss stream accounting moved"
        );
        assert_eq!(sink.len(), 458, "trace record count moved");
        assert_eq!(
            super::ndjson_sha256(&sink),
            "76ae047b044510f96f2a9fd035157ee8ba0e86494532fe2c187346fbee555cc5",
            "trace bytes moved"
        );
    }

    /// The `dissemination` bin's smoke determinism matrix: two gateways of
    /// eight devices two mesh hops deep, 8 % loss, two campaigns through
    /// 16-block caches. The bin compares its three thread counts only with
    /// each other; this pins the bytes themselves.
    #[test]
    fn smoke_matrix_dissemination_is_pinned() {
        for threads in [1, 2, 8] {
            let config = TopologyConfig {
                gateways: 2,
                devices_per_gateway: 8,
                mesh_hops: 2,
                loss_rate: 0.08,
                campaigns: 2,
                firmware_size: 2_000,
                block_size: 512,
                cache_blocks: 16,
                max_poll_attempts: 32,
                threads,
                seed: 0xD15E_BE2C,
                ..TopologyConfig::default()
            };
            let sink = Arc::new(MemorySink::new());
            let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
            let report = run_dissemination_traced(&config, &tracer);
            assert_eq!(report.image_mismatches, 0);
            assert_eq!(
                sink.len(),
                1_230,
                "{threads} threads: trace record count moved"
            );
            assert_eq!(
                super::ndjson_sha256(&sink),
                "e816525e03edf744972ecf214e1d3dc16cd85afc101a007cb6d5a97f86a100a3",
                "{threads} threads: trace bytes moved"
            );
        }
    }
}

mod event_rollout_pins {
    use std::sync::Arc;

    use upkit::sim::{run_event_rollout_traced, EventFleetConfig, EventFleetReport};
    use upkit::trace::{MemorySink, Tracer};

    struct EventRun {
        report: EventFleetReport,
        frames: (u64, u64, u64),
        records: usize,
        trace_sha256: String,
    }

    fn run(config: &EventFleetConfig) -> EventRun {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_event_rollout_traced(config, &tracer);
        let counters = tracer.counters().snapshot();
        EventRun {
            report,
            frames: (counters.frames_sent, counters.frames_lost, counters.retries),
            records: sink.len(),
            trace_sha256: super::ndjson_sha256(&sink),
        }
    }

    // The two pins below freeze the event engine end to end: the poll
    // spread, the virtual-clock heap, session opening, re-polls and
    // give-ups, the per-session loss streams, and the trace each emits.
    // Any reordering inside the scheduler moves these integers.

    #[test]
    fn fidelity_mode_rollout_is_pinned() {
        let run = run(&EventFleetConfig {
            devices: 12,
            firmware_size: 6_000,
            differential: true,
            loss_rate: 0.10,
            poll_window_micros: 50_000,
            verify_signatures: true,
            device_bound_manifests: true,
            adoption_bucket_micros: 1_000_000,
            seed: 0xE002,
            ..EventFleetConfig::default()
        });
        assert_eq!(
            run.report,
            EventFleetReport {
                completed: 12,
                gave_up: 0,
                total_wire_bytes: 38_320,
                events: 620,
                makespan_micros: 1_508_458,
                peak_in_flight: 12,
                adoption: vec![0, 12],
            }
        );
        assert_eq!(
            run.frames,
            (608, 68, 68),
            "seeded loss stream accounting moved"
        );
        assert_eq!(run.records, 668, "trace record count moved");
        assert_eq!(
            run.trace_sha256, "044c0b57e017d7c871ca0f328b7f792500ab71fc1e07f294e13aa75a5369fcd1",
            "trace bytes moved"
        );
    }

    #[test]
    fn scale_mode_repolls_and_give_ups_are_pinned() {
        let run = run(&EventFleetConfig {
            devices: 40,
            firmware_size: 1_000,
            loss_rate: 0.45,
            max_poll_attempts: 3,
            verify_signatures: true,
            device_bound_manifests: false,
            adoption_bucket_micros: 1_000_000,
            seed: 0xE004,
            ..EventFleetConfig::default()
        });
        assert_eq!(
            run.report,
            EventFleetReport {
                completed: 35,
                gave_up: 5,
                total_wire_bytes: 217_820,
                events: 3_474,
                makespan_micros: 30_317_347,
                peak_in_flight: 40,
                adoption: [
                    [0, 0, 4, 16, 23, 30, 33, 33, 34, 34].as_slice(),
                    &[34; 12],
                    &[35; 9],
                ]
                .concat(),
            }
        );
        assert_eq!(
            run.frames,
            (3_422, 1_614, 1_597),
            "seeded loss stream accounting moved"
        );
        assert_eq!(run.records, 3_670, "trace record count moved");
        assert_eq!(
            run.trace_sha256, "ac66c1d5e790742eeab3f6f4231a9e18c4815fd69f50da19b1e79c3777da608c",
            "trace bytes moved"
        );
    }
}

mod fleet_rollout_pins {
    use std::sync::Arc;

    use upkit::sim::{run_rollout_traced, FleetConfig, FleetReport};
    use upkit::trace::{MemorySink, Tracer};

    struct FleetRun {
        report: FleetReport,
        link_bytes_to_device: u64,
        sig_verifications: u64,
        records: usize,
        trace_sha256: String,
    }

    fn run(differential: bool) -> FleetRun {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
        let report = run_rollout_traced(
            &FleetConfig {
                devices: 30,
                poll_fraction: 0.25,
                firmware_size: 8_000,
                differential,
                seed: 0x0110,
            },
            &tracer,
        );
        let counters = tracer.counters().snapshot();
        FleetRun {
            report,
            link_bytes_to_device: counters.link_bytes_to_device,
            sig_verifications: counters.sig_verifications,
            records: sink.len(),
            trace_sha256: super::ndjson_sha256(&sink),
        }
    }

    /// Rounds as `(updated, wire_bytes)` pairs.
    fn rounds(report: &FleetReport) -> Vec<(u32, u64)> {
        report
            .rounds
            .iter()
            .map(|r| (r.updated, r.wire_bytes))
            .collect()
    }

    // The two pins below freeze the faithful rollout end to end: the
    // master RNG stream the single shard continues, the poll sampler,
    // every device's pull session, and the trace the rounds and the
    // devices' agents, flash and bootloaders emit. The adoption curve is
    // the same in both settings; the bytes, the checks and the trace
    // differ.

    const UPDATED: [u32; 12] = [8, 12, 17, 22, 25, 26, 28, 28, 28, 28, 29, 30];

    #[test]
    fn differential_faithful_rollout_is_pinned() {
        let run = run(true);
        let wire = [
            33_240, 16_620, 20_775, 20_775, 12_465, 4_155, 8_310, 0, 0, 0, 4_155, 4_155,
        ];
        assert_eq!(
            rounds(&run.report),
            UPDATED.into_iter().zip(wire).collect::<Vec<_>>()
        );
        assert_eq!(run.report.total_wire_bytes, 124_650);
        assert_eq!(run.link_bytes_to_device, 124_650);
        assert_eq!(run.sig_verifications, 180);
        assert_eq!(run.records, 1_026, "trace record count moved");
        assert_eq!(
            run.trace_sha256, "3e15f406e6e13ca26cc4f8779e29ace889f2e003b6f0d52bb60a5dfea3495489",
            "trace bytes moved"
        );
    }

    #[test]
    fn full_image_faithful_rollout_is_pinned() {
        let run = run(false);
        let wire = [
            77_792, 38_896, 48_620, 48_620, 29_172, 9_724, 19_448, 0, 0, 0, 9_724, 9_724,
        ];
        assert_eq!(
            rounds(&run.report),
            UPDATED.into_iter().zip(wire).collect::<Vec<_>>()
        );
        assert_eq!(run.report.total_wire_bytes, 291_720);
        assert_eq!(run.link_bytes_to_device, 291_720);
        assert_eq!(run.sig_verifications, 312);
        assert_eq!(run.records, 1_260, "trace record count moved");
        assert_eq!(
            run.trace_sha256, "8ae6dc71999eaf1a1bcf66c225fc6b2d7c2e80ede68926f368f32ffce32ddfda",
            "trace bytes moved"
        );
    }

    #[test]
    fn faithful_traces_tell_differential_from_full_image() {
        // The devices' own agent and flash work is in the trace, so the two
        // settings, with equal rounds and adoption, trace differently.
        assert_ne!(run(true).trace_sha256, run(false).trace_sha256);
    }
}

mod lifetime_pins {
    use upkit::sim::{run_lifetime, LifetimeReport, SlotMode};

    fn run(mode: SlotMode) -> (u32, u32, u64) {
        let LifetimeReport {
            updates_applied,
            max_sector_wear,
            total_erases,
        } = run_lifetime(mode, 40, 777);
        (updates_applied, max_sector_wear, total_erases)
    }

    // The `wear` bin's two runs. `total_erases` counts slot A's
    // provisioning erase (4 sectors), so A/B reads 4 + 40 × 4 = 164.

    #[test]
    fn ab_wear_chain_is_pinned() {
        assert_eq!(run(SlotMode::AB), (40, 21, 164));
    }

    #[test]
    fn static_swap_wear_chain_is_pinned() {
        assert_eq!(run(SlotMode::Static { swap: true }), (40, 80, 484));
    }
}

mod scenario_pins {
    use upkit::core::agent::AgentError;
    use upkit::core::bootloader::BootAction;
    use upkit::core::verifier::VerifyError;
    use upkit::manifest::Version;
    use upkit::net::{FrameTamper, SessionOutcome, TransferAccounting};
    use upkit::sim::{
        run_scenario, Approach, CryptoChoice, PhaseBreakdown, PlatformProfile, ScenarioConfig,
        SlotMode, UpdateKind,
    };

    fn phases(propagation: u64, verification: u64, loading: u64) -> PhaseBreakdown {
        PhaseBreakdown {
            propagation_micros: propagation,
            verification_micros: verification,
            loading_micros: loading,
        }
    }

    fn pull_accounting(bytes: u64, blocks: u64, elapsed_micros: u64) -> TransferAccounting {
        TransferAccounting {
            bytes_to_device: bytes,
            bytes_from_device: 10,
            chunks: blocks,
            round_trips: blocks,
            elapsed_micros,
        }
    }

    // The three pins below freeze the scenario device on the
    // configurations whose other tests check only the rough shape: the
    // HSM with external staging, TinyDTLS with an A/B differential, and
    // the tampered push of the `ablations` bin.

    #[test]
    fn cc2650_static_copy_with_external_staging_is_pinned() {
        let result = run_scenario(&ScenarioConfig {
            platform: PlatformProfile::cc2650(),
            approach: Approach::Pull,
            slot_mode: SlotMode::Static { swap: false },
            crypto: CryptoChoice::Hsm,
            firmware_size: 40_000,
            update_kind: UpdateKind::Full,
            tamper: FrameTamper::None,
            seed: 0xCC26,
        });
        assert_eq!(result.outcome, SessionOutcome::Complete);
        assert_eq!(result.phases, phases(20_177_356, 489_234, 5_838_016));
        assert_eq!(result.accounting, pull_accounting(41_724, 653, 15_092_720));
        assert_eq!(result.running_version, Some(Version(2)));
        assert_eq!(
            result.boot.map(|b| b.action),
            Some(BootAction::CopiedAndBooted)
        );
    }

    #[test]
    fn cc2538_ab_differential_is_pinned() {
        let result = run_scenario(&ScenarioConfig {
            platform: PlatformProfile::cc2538(),
            approach: Approach::Pull,
            slot_mode: SlotMode::AB,
            crypto: CryptoChoice::TinyDtls,
            firmware_size: 30_000,
            update_kind: UpdateKind::DiffOsChange,
            tamper: FrameTamper::None,
            seed: 0x2538,
        });
        assert_eq!(result.outcome, SessionOutcome::Complete);
        assert_eq!(result.phases, phases(7_734_176, 1_179_006, 1_161_536));
        assert_eq!(result.accounting, pull_accounting(9_667, 153, 3_528_160));
        assert_eq!(result.running_version, Some(Version(2)));
        assert_eq!(
            result.boot.map(|b| b.action),
            Some(BootAction::JumpedInPlace)
        );
    }

    #[test]
    fn tampered_fig8a_push_is_pinned() {
        let mut cfg = ScenarioConfig::fig8a(Approach::Push);
        cfg.tamper = FrameTamper::FlipBit { offset: 40 };
        let result = run_scenario(&cfg);
        assert_eq!(
            result.outcome,
            SessionOutcome::RejectedAtManifest(AgentError::Verify(VerifyError::VendorSignature))
        );
        assert_eq!(result.phases, phases(2_269_200, 109_535, 0));
        assert_eq!(
            result.accounting,
            TransferAccounting {
                bytes_to_device: 188,
                bytes_from_device: 10,
                chunks: 2,
                round_trips: 1,
                elapsed_micros: 144_200,
            }
        );
        assert_eq!(result.running_version, Some(Version(1)));
        assert!(result.boot.is_none());
    }
}
