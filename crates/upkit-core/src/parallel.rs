//! Deterministic parallel execution, and parallel multi-target update
//! generation on top of it.
//!
//! Every parallel loop in the workspace runs on the one index-ordered
//! worker pool in [`upkit_delta::pool`]. This module adds the tracing half
//! of that discipline: [`map_traced`] runs each item under a task-private
//! [`TaskTracer`] and absorbs the per-task counters and records into the
//! caller's tracer in item-index order, so the merged trace never depends
//! on the thread count or on which worker ran which item. Engines that
//! keep a task tracer across several merge points (the fleet and campaign
//! shards in `upkit-sim`) build the same [`TaskTracer`] and drain it
//! themselves.
//!
//! The server-side hot path — diff → compress → hash → double-sign, once
//! per device token — is embarrassingly parallel across tokens: every job
//! reads the shared [`UpdateServer`] immutably (its delta and patch caches
//! are internally synchronized) and touches nothing owned by another job.
//! [`ParallelGenerator`] runs a campaign batch in two phases of
//! [`map_traced`]:
//!
//! 1. **Warm**: each *distinct* base version in the batch is diffed against
//!    the newest release exactly once, in sorted base order, populating the
//!    server's content-addressed patch cache. This is where the heavy work
//!    (suffix array, bsdiff, compression) happens — one job per transition,
//!    never one per device.
//! 2. **Prepare**: one job per token assembles and signs its manifest. All
//!    diffs are cache hits by construction, so this phase is signature
//!    bound and scales with the token count.
//!
//! Output is *byte-identical* to running [`UpdateServer::prepare_update`]
//! sequentially over the same batch: manifests are pure functions of token
//! and release, signatures use deterministic RFC 6979 nonces, and the
//! cached diff/compression results are deterministic functions of the two
//! images. Traces are deterministic too, by [`map_traced`] (the same two
//! phases run even at one thread). Tests assert both identities end to
//! end.

use alloc::collections::BTreeSet;
use alloc::sync::Arc;

use upkit_delta::pool::parallel_map;
use upkit_manifest::{DeviceToken, Version};
use upkit_trace::{CountersSnapshot, MemorySink, TraceRecord, Tracer};

use crate::generation::{PreparedUpdate, UpdateServer};

/// What one task contributed to a merged trace: its counter totals and,
/// when the parent tracer has a sink, its buffered records.
pub type TaskTrace = (CountersSnapshot, Vec<TraceRecord>);

/// A task-private tracer whose output is merged into a parent tracer
/// later, in an order the caller fixes.
///
/// Counters always accumulate; records are buffered only when the parent
/// tracer is enabled, so a disabled parent costs the task no allocation
/// per event. Dereferences to the [`Tracer`] the task charges.
pub struct TaskTracer {
    tracer: Tracer,
    sink: Option<Arc<MemorySink>>,
}

impl TaskTracer {
    /// A task tracer that buffers records exactly when `parent` would
    /// keep them.
    #[must_use]
    pub fn new(parent: &Tracer) -> Self {
        if parent.is_enabled() {
            let sink = Arc::new(MemorySink::new());
            Self {
                tracer: Tracer::with_sink(Box::new(Arc::clone(&sink))),
                sink: Some(sink),
            }
        } else {
            Self {
                tracer: Tracer::disabled(),
                sink: None,
            }
        }
    }

    /// Takes the counters and records accumulated since the last drain,
    /// leaving the task tracer empty.
    pub fn drain(&self) -> TaskTrace {
        let records = self
            .sink
            .as_ref()
            .map_or_else(Vec::new, |sink| sink.drain());
        let counters = self.tracer.counters().snapshot();
        self.tracer.counters().reset();
        (counters, records)
    }
}

impl core::ops::Deref for TaskTracer {
    type Target = Tracer;

    fn deref(&self) -> &Tracer {
        &self.tracer
    }
}

/// Maps `f` over `items` on up to `threads` workers of the
/// [`parallel_map`] pool, each item under its own [`TaskTracer`], and
/// returns the results in input order.
///
/// After the join, every task's counters and records are absorbed into
/// `tracer` in item-index order, each task's records contiguous. Results,
/// counter totals, and the record sequence a sink sees are therefore the
/// same at any thread count.
pub fn map_traced<T, R, F>(items: &[T], threads: usize, tracer: &Tracer, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &Tracer) -> R + Sync,
{
    parallel_map(items, threads, |index, item| {
        let task = TaskTracer::new(tracer);
        let result = f(index, item, &task);
        (result, task.drain())
    })
    .into_iter()
    .map(|(result, (counters, records))| {
        tracer.absorb(&counters, &records);
        result
    })
    .collect()
}

/// Fans [`UpdateServer::prepare_update`] calls for a batch of device
/// tokens out across worker threads.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use upkit_core::generation::{UpdateServer, VendorServer};
/// use upkit_core::parallel::ParallelGenerator;
/// use upkit_crypto::ecdsa::SigningKey;
/// use upkit_manifest::{DeviceToken, Version};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let vendor = VendorServer::new(SigningKey::generate(&mut rng));
/// let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
/// server.publish(vendor.release(vec![0xAB; 4096], Version(1), 0, 0xF1));
///
/// let tokens: Vec<DeviceToken> = (0..8)
///     .map(|i| DeviceToken { device_id: i, nonce: i + 1, current_version: Version(0) })
///     .collect();
/// let prepared = ParallelGenerator::with_threads(&server, 4).prepare_updates(&tokens);
/// assert!(prepared.iter().all(|p| p.is_some()));
/// ```
pub struct ParallelGenerator<'s> {
    server: &'s UpdateServer,
    threads: usize,
}

impl<'s> ParallelGenerator<'s> {
    /// Creates a generator sized to the host's available parallelism.
    #[must_use]
    pub fn new(server: &'s UpdateServer) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, core::num::NonZeroUsize::get);
        Self::with_threads(server, threads)
    }

    /// Creates a generator with an explicit worker count (min 1).
    #[must_use]
    pub fn with_threads(server: &'s UpdateServer, threads: usize) -> Self {
        Self {
            server,
            threads: threads.max(1),
        }
    }

    /// Number of worker threads this generator runs on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Prepares one update per token, in parallel, tracing into the
    /// server's own tracer (see [`UpdateServer::set_tracer`]).
    ///
    /// `result[i]` corresponds to `tokens[i]` and equals — byte for byte —
    /// what `server.prepare_update(&tokens[i])` returns.
    #[must_use]
    pub fn prepare_updates(&self, tokens: &[DeviceToken]) -> Vec<Option<PreparedUpdate>> {
        self.prepare_updates_traced(tokens, self.server.tracer())
    }

    /// [`Self::prepare_updates`] tracing into an explicit tracer.
    ///
    /// The merged trace is deterministic: warm jobs are absorbed in sorted
    /// base-version order, prepare jobs in token order, and each job's
    /// records are contiguous — so the bytes a sink sees do not depend on
    /// the thread count. (One caveat: two base versions publishing
    /// byte-identical firmware share a cache key, and which of the two
    /// warm jobs scores the miss is then a race; distinct images — the
    /// normal case — cannot race because their keys differ.)
    #[must_use]
    pub fn prepare_updates_traced(
        &self,
        tokens: &[DeviceToken],
        tracer: &Tracer,
    ) -> Vec<Option<PreparedUpdate>> {
        // Phase 1: warm each distinct base version once, in sorted order.
        // `warm` no-ops for bases with nothing to diff (unknown version,
        // already newest), so no further filtering is needed here.
        let bases: Vec<Version> = tokens
            .iter()
            .filter(|t| t.supports_differential())
            .map(|t| t.current_version)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        map_traced(&bases, self.threads, tracer, |_, &base, job_tracer| {
            self.server.warm(base, job_tracer)
        });

        // Phase 2: per-token manifest assembly and signing. Every diff the
        // batch needs is cached now, so these jobs only hit.
        map_traced(tokens, self.threads, tracer, |_, token, job_tracer| {
            self.server.prepare_update_traced(token, job_tracer)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::VendorServer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_delta::PatchFormat;
    use upkit_manifest::Version;

    fn campaign_server(seed: u64, versions: u16, size: usize) -> (VendorServer, UpdateServer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        let mut state = seed as u32 | 1;
        let base: Vec<u8> = (0..size)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        for v in 1..=versions {
            let mut firmware = base.clone();
            let at = (usize::from(v) * 131) % (size - 64);
            for byte in &mut firmware[at..at + 64] {
                *byte = byte.wrapping_add(v as u8);
            }
            server.publish(vendor.release(firmware, Version(v), 0, 0xF1));
        }
        (vendor, server)
    }

    fn tokens(count: u32, max_base: u16) -> Vec<DeviceToken> {
        (0..count)
            .map(|i| DeviceToken {
                device_id: 0x2000 + i,
                nonce: i.wrapping_mul(0x9E37_79B9) | 1,
                current_version: Version((i as u16) % (max_base + 1)),
            })
            .collect()
    }

    #[test]
    fn parallel_output_is_byte_identical_to_sequential() {
        let (_, server) = campaign_server(900, 4, 6_000);
        let batch = tokens(12, 3);
        let sequential: Vec<_> = batch.iter().map(|t| server.prepare_update(t)).collect();
        let parallel = ParallelGenerator::with_threads(&server, 4).prepare_updates(&batch);
        assert_eq!(sequential.len(), parallel.len());
        for (i, (s, p)) in sequential.iter().zip(parallel.iter()).enumerate() {
            match (s, p) {
                (Some(s), Some(p)) => {
                    assert_eq!(s.image.to_bytes(), p.image.to_bytes(), "token {i}");
                    assert_eq!(s.kind, p.kind, "token {i}");
                }
                (None, None) => {}
                _ => panic!("token {i}: sequential and parallel disagree on Some/None"),
            }
        }
    }

    #[test]
    fn result_order_matches_token_order() {
        let (_, server) = campaign_server(901, 2, 3_000);
        let batch = tokens(9, 1);
        let prepared = ParallelGenerator::with_threads(&server, 3).prepare_updates(&batch);
        for (token, update) in batch.iter().zip(prepared.iter()) {
            let update = update.as_ref().expect("campaign serves everyone");
            let manifest = update.image.signed_manifest.manifest;
            assert_eq!(manifest.device_id, token.device_id);
            assert_eq!(manifest.nonce, token.nonce);
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let (_, server) = campaign_server(902, 3, 4_000);
        let batch = tokens(10, 2);
        let reference: Vec<_> = ParallelGenerator::with_threads(&server, 1)
            .prepare_updates(&batch)
            .into_iter()
            .map(|p| p.map(|p| p.image.to_bytes()))
            .collect();
        for threads in [2usize, 5, 16] {
            let out: Vec<_> = ParallelGenerator::with_threads(&server, threads)
                .prepare_updates(&batch)
                .into_iter()
                .map(|p| p.map(|p| p.image.to_bytes()))
                .collect();
            assert_eq!(reference, out, "{threads} threads");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, server) = campaign_server(903, 1, 1_000);
        assert!(ParallelGenerator::new(&server)
            .prepare_updates(&[])
            .is_empty());
    }

    #[test]
    fn more_threads_than_tokens_is_fine() {
        let (_, server) = campaign_server(904, 1, 1_000);
        let batch = tokens(2, 0);
        let prepared = ParallelGenerator::with_threads(&server, 64).prepare_updates(&batch);
        assert_eq!(prepared.len(), 2);
        assert!(prepared.iter().all(Option::is_some));
    }

    #[test]
    fn campaign_diffs_each_transition_exactly_once() {
        // 12 devices across 3 differential bases: the warm phase pays for
        // 3 diffs, every per-token job is a pure cache hit.
        let (_, server) = campaign_server(905, 4, 6_000);
        let batch = tokens(12, 3);
        let tracer = Tracer::disabled();
        let prepared =
            ParallelGenerator::with_threads(&server, 4).prepare_updates_traced(&batch, &tracer);
        assert!(prepared.iter().all(Option::is_some));
        let counters = tracer.counters().snapshot();
        // Bases 1..=3 warm and diff; base 0 has no release and serves full.
        assert_eq!(counters.patch_cache_misses, 3, "one diff per transition");
        let differential = batch
            .iter()
            .filter(|t| t.current_version.0 != 0 && t.current_version.0 != 4)
            .count() as u64;
        assert_eq!(counters.patch_cache_hits, differential, "repeats all hit");
    }

    #[test]
    fn repeated_campaign_performs_zero_re_diffs() {
        // The regression the content-addressed cache exists to prevent:
        // running the same campaign twice (a retry storm, a second poll
        // wave) must not diff anything again. The counters pin it.
        let (_, server) = campaign_server(907, 3, 5_000);
        let generator = ParallelGenerator::with_threads(&server, 4);
        let batch = tokens(10, 2);

        let first = Tracer::disabled();
        let warmup = generator.prepare_updates_traced(&batch, &first);
        assert!(warmup.iter().all(Option::is_some));
        assert_eq!(first.counters().snapshot().patch_cache_misses, 2);

        let second = Tracer::disabled();
        let prepared = generator.prepare_updates_traced(&batch, &second);
        assert!(prepared.iter().all(Option::is_some));
        let counters = second.counters().snapshot();
        assert_eq!(counters.patch_cache_misses, 0, "zero re-diffs on repeat");
        assert!(counters.patch_cache_hits > 0);
    }

    /// Runs [`map_traced`] over 40 items that emit events and bump
    /// counters. With more than one thread, item 0 finishes only after the
    /// last item, so workers complete out of index order. Returns the
    /// results, the merged counters, and the merged records as NDJSON.
    fn traced_items(threads: usize, enabled: bool) -> (Vec<u64>, CountersSnapshot, Vec<String>) {
        let sink = Arc::new(MemorySink::new());
        let tracer = if enabled {
            Tracer::with_sink(Box::new(Arc::clone(&sink)))
        } else {
            Tracer::disabled()
        };
        let items: Vec<u64> = (0..40).collect();
        let first_and_last = std::sync::Barrier::new(2);
        let results = map_traced(&items, threads, &tracer, |index, &item, task| {
            for chunk in 0..=item % 3 {
                task.advance_now_to(item * 100 + chunk);
                task.emit(|| upkit_trace::Event::ChunkDelivered {
                    stream: item,
                    bytes: chunk,
                });
            }
            upkit_trace::Counters::add(&task.counters().frames_sent, item);
            if threads > 1 && (item == 0 || item == 39) {
                first_and_last.wait();
            }
            index as u64 * 1_000 + item
        });
        let records = sink.drain();
        assert!(
            records.windows(2).all(|w| w[0].ts_micros < w[1].ts_micros),
            "records merge in item order, each item's records contiguous"
        );
        let lines = records.iter().map(TraceRecord::to_ndjson).collect();
        (results, tracer.counters().snapshot(), lines)
    }

    #[test]
    fn map_traced_returns_results_in_input_order() {
        let expected: Vec<u64> = (0..40).map(|i| i * 1_001).collect();
        for threads in [1usize, 2, 8] {
            assert_eq!(traced_items(threads, true).0, expected, "{threads} threads");
        }
    }

    #[test]
    fn map_traced_merge_is_identical_across_thread_counts() {
        for enabled in [true, false] {
            let reference = traced_items(1, enabled);
            for threads in [2usize, 8] {
                assert_eq!(
                    reference,
                    traced_items(threads, enabled),
                    "{threads} threads (parent enabled: {enabled})"
                );
            }
            let (_, counters, lines) = reference;
            assert_eq!(counters.frames_sent, (0..40).sum::<u64>());
            let events = (0..40u64).map(|item| item % 3 + 1).sum::<u64>();
            assert_eq!(lines.len() as u64, if enabled { events } else { 0 });
        }
    }

    #[test]
    fn merged_trace_is_identical_across_thread_counts() {
        use upkit_trace::MemorySink;

        // Fresh identically-seeded server per thread count; the merged
        // trace (records and counters) must not depend on scheduling.
        let render = |threads: usize, format: PatchFormat| {
            let (_, mut server) = campaign_server(906, 3, 5_000);
            server.set_patch_format(format);
            let sink = Arc::new(MemorySink::new());
            let tracer = Tracer::with_sink(Box::new(Arc::clone(&sink)));
            let batch = tokens(10, 2);
            let prepared = ParallelGenerator::with_threads(&server, threads)
                .prepare_updates_traced(&batch, &tracer);
            assert!(prepared.iter().all(Option::is_some));
            let lines: Vec<String> = sink.drain().iter().map(TraceRecord::to_ndjson).collect();
            (lines, tracer.counters().snapshot())
        };
        for format in [PatchFormat::Raw, PatchFormat::Framed] {
            let (reference_lines, reference_counters) = render(1, format);
            assert!(
                reference_lines
                    .iter()
                    .any(|l| l.contains("patch_generated")),
                "warm phase emits generation events"
            );
            for threads in [2usize, 8] {
                let (lines, counters) = render(threads, format);
                assert_eq!(reference_lines, lines, "{threads} threads ({format:?})");
                assert_eq!(
                    reference_counters, counters,
                    "{threads} threads ({format:?})"
                );
            }
        }
    }
}
