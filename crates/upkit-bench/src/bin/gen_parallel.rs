//! Multi-target update generation: three paths, one set of wire images.
//!
//! Prepares double-signed updates for a batch of device requests spread
//! over several target platforms (one base release per platform, one new
//! release), three ways:
//!
//! 1. **baseline_sequential** — the pre-optimization path: every request
//!    rebuilds the old image's suffix array, re-diffs, re-compresses, and
//!    signs, exactly like the seed's `prepare_update`.
//! 2. **optimized_sequential** — `UpdateServer::prepare_update` with the
//!    SA-IS delta engine and the per-base `DeltaContext`/payload caches.
//! 3. **optimized_parallel** — the same server driven by
//!    `ParallelGenerator`, two-phase: warm the content-addressed patch
//!    cache once per transition, then sign per token. The campaign's
//!    cache hit/miss counters land in `metrics`.
//!
//! All three must produce byte-identical wire images (asserted). A second
//! section builds the *chunked framed diff* (windowed container, windows
//! diffed concurrently) at 1, 2, and 8 worker threads against one image
//! pair and asserts the container bytes are identical at every thread
//! count. Results go to `BENCH_generation.json`, which holds no clock
//! reading or host fact: host time is measured by perfbench's
//! `generation` workload and its `delta.*` layer metrics. CI compares the
//! `--smoke` output byte for byte with
//! `crates/upkit-bench/baselines/BENCH_generation_smoke.json`.
//!
//! ```text
//! cargo run --release -p upkit-bench --bin gen_parallel [-- --smoke]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_bench::{metrics_json, Json};
use upkit_compress::{compress, Params as LzssParams};
use upkit_core::generation::{Release, UpdateServer, VendorServer};
use upkit_core::parallel::ParallelGenerator;
use upkit_crypto::ecdsa::SigningKey;
use upkit_delta::{patch_framed, DeltaContext, FramedDiffOptions};
use upkit_manifest::{server_sign, DeviceToken, Manifest, SignedManifest, UpdateImage, Version};
use upkit_sim::FirmwareGenerator;

const APP_ID: u32 = 0xF1;
const LINK_OFFSET: u32 = 0;

/// The seed's per-request generation path: suffix array rebuilt per call,
/// no context or payload reuse. Kept here as the reference; its output
/// must stay byte-identical to the optimized server's.
fn prepare_baseline(
    server_key: &SigningKey,
    base: &Release,
    latest: &Release,
    token: &DeviceToken,
) -> UpdateImage {
    let context = DeltaContext::new(&base.firmware);
    let patch = context.diff(&base.firmware, &latest.firmware);
    let mut payload = compress(&patch, LzssParams::default());
    if let Ok(sparse) = LzssParams::new(8) {
        let alt = compress(&patch, sparse);
        if alt.len() < payload.len() {
            payload = alt;
        }
    }
    let old_version = if payload.len() < latest.firmware.len() {
        base.version
    } else {
        payload = latest.firmware.clone();
        Version(0)
    };
    let manifest = Manifest {
        device_id: token.device_id,
        nonce: token.nonce,
        old_version,
        version: latest.version,
        size: latest.firmware.len() as u32,
        payload_size: payload.len() as u32,
        digest: latest.digest,
        link_offset: latest.link_offset,
        app_id: latest.app_id,
    };
    UpdateImage {
        signed_manifest: SignedManifest {
            manifest,
            vendor_signature: latest.vendor_signature,
            server_signature: server_sign(&manifest, server_key),
        },
        payload,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (image_size, platforms, requests_per_platform) = if smoke {
        (32 * 1024, 2u16, 1u32)
    } else {
        (256 * 1024, 4u16, 4u32)
    };

    let mut rng = StdRng::seed_from_u64(0x6E5);
    let vendor = VendorServer::new(SigningKey::generate(&mut rng));
    let server_key = SigningKey::generate(&mut rng);
    let mut server = UpdateServer::new(server_key.clone());

    // One base release per target platform (firmware variants of a shared
    // image, like per-board builds of one codebase), plus the new release.
    let generator = FirmwareGenerator::new(0xBE7C);
    let shared = generator.base(image_size);
    let mut releases = Vec::new();
    for platform in 1..=platforms {
        let firmware = generator.app_change(&shared, 2048 + 512 * usize::from(platform));
        let release = vendor.release(firmware, Version(platform), LINK_OFFSET, APP_ID);
        server.publish(release.clone());
        releases.push(release);
    }
    let latest_version = platforms + 1;
    let latest = vendor.release(
        generator.os_version_change(&shared),
        Version(latest_version),
        LINK_OFFSET,
        APP_ID,
    );
    server.publish(latest.clone());

    let tokens: Vec<DeviceToken> = (0..platforms)
        .flat_map(|platform| {
            (0..requests_per_platform).map(move |device| DeviceToken {
                device_id: 0x3000 + u32::from(platform) * 100 + device,
                nonce: (u32::from(platform) << 16 | device).wrapping_mul(0x9E37_79B9) | 1,
                current_version: Version(platform + 1),
            })
        })
        .collect();

    // Single diff: a fresh build per call equals a reused context.
    let context = DeltaContext::new(&releases[0].firmware);
    let fresh_patch = upkit_delta::diff(&releases[0].firmware, &latest.firmware);
    let reused_patch = context.diff(&releases[0].firmware, &latest.firmware);
    assert_eq!(fresh_patch, reused_patch);

    // Multi-target batch, three ways.
    let baseline: Vec<UpdateImage> = tokens
        .iter()
        .map(|token| {
            let base = &releases[usize::from(token.current_version.0 - 1)];
            prepare_baseline(&server_key, base, &latest, token)
        })
        .collect();

    let sequential: Vec<UpdateImage> = tokens
        .iter()
        .map(|token| {
            server
                .prepare_update(token)
                .expect("campaign serves all")
                .image
        })
        .collect();

    // Fresh server so the parallel run starts with cold caches too.
    let mut parallel_server = UpdateServer::new(server_key.clone());
    for release in &releases {
        parallel_server.publish(release.clone());
    }
    parallel_server.publish(latest.clone());
    let workers = ParallelGenerator::new(&parallel_server);
    let campaign_tracer = upkit_trace::Tracer::disabled();
    let parallel: Vec<UpdateImage> = workers
        .prepare_updates_traced(&tokens, &campaign_tracer)
        .into_iter()
        .map(|p| p.expect("campaign serves all").image)
        .collect();
    let campaign_counters = campaign_tracer.counters().snapshot();
    assert_eq!(
        campaign_counters.patch_cache_misses,
        u64::from(platforms),
        "the campaign must diff each transition exactly once"
    );

    let byte_identical = baseline
        .iter()
        .zip(&sequential)
        .zip(&parallel)
        .all(|((b, s), p)| {
            let b = b.to_bytes();
            b == s.to_bytes() && b == p.to_bytes()
        });
    assert!(
        byte_identical,
        "all three paths must emit identical wire images"
    );

    // Chunked framed diff: one image pair, windows diffed concurrently on
    // 1, 2, and 8 worker threads. The container must be byte-identical at
    // every thread count.
    let mut framed_reference: Option<Vec<u8>> = None;
    for threads in [1usize, 2, 8] {
        let options = FramedDiffOptions::default().with_threads(threads);
        let container = context.framed_diff(&releases[0].firmware, &latest.firmware, &options);
        match &framed_reference {
            None => {
                assert_eq!(
                    patch_framed(&releases[0].firmware, &container).expect("container applies"),
                    latest.firmware,
                    "the framed container must reconstruct the new image"
                );
                framed_reference = Some(container);
            }
            Some(reference) => assert_eq!(
                reference, &container,
                "framed container bytes must not depend on the thread count"
            ),
        }
    }
    let framed_container_bytes = framed_reference.as_ref().map_or(0, Vec::len) as u64;

    // Deterministic generation metrics: total bytes the batch would put on
    // the wire, the compressed payload bytes produced, and the campaign's
    // patch-cache ledger. A delta-engine or compressor regression that
    // inflates updates — or a cache regression that re-diffs — changes
    // the committed smoke baseline.
    let counters = upkit_trace::Counters::default();
    let wire_bytes: u64 = parallel.iter().map(|img| img.to_bytes().len() as u64).sum();
    let payload_bytes: u64 = parallel.iter().map(|img| img.payload.len() as u64).sum();
    upkit_trace::Counters::add(&counters.link_bytes_to_device, wire_bytes);
    upkit_trace::Counters::add(&counters.pipeline_bytes_out, payload_bytes);
    counters.absorb(&campaign_counters);

    let json = Json::obj(vec![
        ("bench", Json::Str("gen_parallel".into())),
        ("smoke", Json::Bool(smoke)),
        ("platforms", Json::Int(u64::from(platforms))),
        ("requests", Json::Int(tokens.len() as u64)),
        ("image_bytes", Json::Int(image_size as u64)),
        ("framed_container_bytes", Json::Int(framed_container_bytes)),
        ("byte_identical", Json::Bool(byte_identical)),
        ("metrics", metrics_json(&counters.snapshot())),
    ]);

    println!(
        "\nMulti-target generation: {} requests, {platforms} platforms, {} KiB images",
        tokens.len(),
        image_size / 1024
    );
    println!(
        "baseline (no reuse), optimized sequential (caches) and optimized \
         parallel emit identical wire images: {wire_bytes} bytes"
    );
    println!(
        "chunked framed diff: {framed_container_bytes}-byte container, \
         identical at 1, 2 and 8 threads"
    );
    println!(
        "\ncampaign patch cache: {} misses / {} hits over {} requests",
        campaign_counters.patch_cache_misses,
        campaign_counters.patch_cache_hits,
        tokens.len()
    );

    // Always write the JSON (smoke runs feed the CI baseline gate).
    std::fs::write("BENCH_generation.json", json.render()).expect("write BENCH_generation.json");
    println!("\nwrote BENCH_generation.json");
    if smoke {
        println!("{}", json.render());
    }
}
