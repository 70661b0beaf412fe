//! `generation`: the server's write path. Two client threads call
//! `UpdateServer::prepare_update` in a closed loop, sharing one queue of
//! requests per release, for devices on 4 base versions of 128 KiB. A
//! new latest release is published every 128 requests, so each release
//! makes 4 transitions cold (diff plus two LZSS encodes) and the other
//! ~97% of requests only sign. A server lives for up to eight releases,
//! which bounds its caches; building it, with its first release warmed
//! for every base (suffix arrays included), is the set-up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use upkit_compress::decompress;
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_crypto::ecdsa::SigningKey;
use upkit_crypto::sha256::sha256;
use upkit_manifest::{DeviceToken, Version};
use upkit_sim::device::{APP_ID, LINK_OFFSET};
use upkit_sim::FirmwareGenerator;
use upkit_trace::Tracer;

use crate::device::replay_ab_updates;
use crate::layers::{Attribution, Inputs, UnitCosts};
use crate::measure::{self, median, percentile, repeat_for, timed};
use crate::metrics::{Checks, Outcome, Timed};
use crate::{mix, RunConfig, THREADS};

/// Bases and requests per release are a quarter of a 16-base fleet's 512,
/// the same 3% cold, so that a release lasts tens of milliseconds.
const BASES: u16 = 4;
const IMAGE: usize = 128 * 1024;
const REQUESTS_PER_RELEASE: usize = 128;
const RELEASES_PER_SERVER: usize = 8;

struct Sizes {
    image: usize,
    requests_per_release: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            image: IMAGE / 16,
            requests_per_release: REQUESTS_PER_RELEASE / 16,
        }
    } else {
        Sizes {
            image: IMAGE,
            requests_per_release: REQUESTS_PER_RELEASE,
        }
    }
}

/// A server with the base versions 1..=[`BASES`] and a first latest release,
/// every base → latest transition already warm.
struct World {
    seed: u64,
    vendor: VendorServer,
    server: UpdateServer,
    v1: Vec<u8>,
    bases: Vec<Vec<u8>>,
    latest: Version,
}

impl World {
    fn build(seed: u64, image: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        let v1 = FirmwareGenerator::new(seed).base(image);
        // Base k is its own OS-version change of v1; v1 itself is base 1.
        let bases: Vec<Vec<u8>> = (1..=BASES)
            .map(|k| match k {
                1 => v1.clone(),
                _ => FirmwareGenerator::new(mix(seed, u64::from(k))).os_version_change(&v1),
            })
            .collect();
        for (k, base) in (1..).zip(&bases) {
            server.publish(vendor.release(base.clone(), Version(k), LINK_OFFSET, APP_ID));
        }
        let mut world = Self {
            seed,
            vendor,
            server,
            v1,
            bases,
            latest: Version(BASES),
        };
        world.publish_next();
        for k in 1..=BASES {
            world.server.warm(Version(k), &Tracer::disabled());
        }
        world
    }

    /// Publishes a new latest release: another OS-version change of v1.
    fn publish_next(&mut self) -> Vec<u8> {
        self.latest = Version(self.latest.0 + 1);
        let firmware =
            FirmwareGenerator::new(mix(self.seed, 0x1A7E_0000 | u64::from(self.latest.0)))
                .os_version_change(&self.v1);
        self.server.publish(self.vendor.release(
            firmware.clone(),
            self.latest,
            LINK_OFFSET,
            APP_ID,
        ));
        firmware
    }

    /// One response per base decodes, patches to the published image,
    /// and carries valid signatures.
    fn check_release(&self, latest: &[u8], checks: &mut Checks) {
        let vendor_key = self.vendor.verifying_key();
        let server_key = self.server.verifying_key();
        for (k, base) in (1..).zip(&self.bases) {
            let token = DeviceToken {
                device_id: 0xC0DE,
                nonce: u32::from(k),
                current_version: Version(k),
            };
            let Some(prepared) = self.server.prepare_update(&token) else {
                checks.0.push(format!("no response for base {k}"));
                continue;
            };
            let signed = prepared.image.signed_manifest;
            let image = decompress(&prepared.image.payload)
                .ok()
                .and_then(|patch| upkit_delta::patch(base, &patch).ok());
            checks.check(image.as_deref() == Some(latest), || {
                format!(
                    "base {k}: the patch does not rebuild release {}",
                    self.latest.0
                )
            });
            checks.check(sha256(latest) == signed.manifest.digest, || {
                format!("base {k}: manifest digest is not the release's")
            });
            checks.check(
                signed.verify_with_keys(&vendor_key, &server_key).is_ok(),
                || format!("base {k}: manifest signatures do not verify"),
            );
        }
    }
}

/// The requests of a run.
#[derive(Default)]
struct Requests {
    timed: Timed,
    /// Latency of requests that hit the patch cache / ran a fresh diff.
    hit_us: Vec<f64>,
    cold_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    cpu_s: f64,
}

/// Serves releases for `cfg.seconds`, building a new server every
/// [`RELEASES_PER_SERVER`] releases.
fn run_requests(cfg: &RunConfig, checks: &mut Checks) -> Requests {
    let sizes = sizes(cfg.smoke);
    let mut out = Requests::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    repeat_for(cfg.seconds, 1, |lifetime| {
        let seed = mix(cfg.seed, lifetime as u64);
        let (setup_s, mut world) = timed(|| World::build(seed, sizes.image));
        out.timed.setup_s.push(setup_s);
        for release in 0..RELEASES_PER_SERVER {
            if release >= 1 && Instant::now() >= deadline {
                break;
            }
            let latest = world.publish_next();
            let tokens = release_tokens(mix(seed, release as u64), sizes.requests_per_release);
            let next = AtomicUsize::new(0);
            let cpu_start = measure::process_cpu_s();
            let (wall_s, clients) = timed(|| {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..THREADS)
                        .map(|_| scope.spawn(|| client(&world, &tokens, &next)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread"))
                        .collect::<Vec<_>>()
                })
            });
            out.cpu_s += measure::process_cpu_s() - cpu_start;
            let served = clients.iter().map(|c| c.served).sum();
            let unanswered = clients.iter().map(|c| c.unanswered).sum();
            out.timed.push_op(served, unanswered, wall_s);
            for client in clients {
                out.timed.wire_bytes += client.wire_bytes;
                out.hit_us.extend(client.hit_us);
                out.cold_ms.extend(client.cold_ms);
                out.cache_hits += client.cache_hits;
                out.cache_misses += client.cache_misses;
            }
            if release == 0 {
                world.check_release(&latest, checks);
            }
        }
    });
    out
}

/// The requests of one release: devices on bases drawn from `seed`.
fn release_tokens(seed: u64, count: usize) -> Vec<DeviceToken> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| DeviceToken {
            device_id: rng.next_u32(),
            nonce: rng.next_u32(),
            current_version: Version(rng.random_range(1..BASES + 1)),
        })
        .collect()
}

/// One client's share of a release's requests.
#[derive(Default)]
struct Client {
    served: u64,
    unanswered: u64,
    wire_bytes: u64,
    hit_us: Vec<f64>,
    cold_ms: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
}

/// A closed-loop client: takes the release's next request until none is
/// left, so a client the host slows down serves fewer of them. Its
/// counters-only tracer (what `prepare_update` uses internally) tells a
/// request that ran a fresh diff from one that hit the patch cache.
fn client(world: &World, tokens: &[DeviceToken], next: &AtomicUsize) -> Client {
    let tracer = Tracer::disabled();
    let mut out = Client::default();
    while let Some(token) = tokens.get(next.fetch_add(1, Ordering::Relaxed)) {
        let misses = &tracer.counters().patch_cache_misses;
        let misses_before = misses.load(Ordering::Relaxed);
        let (secs, prepared) = timed(|| world.server.prepare_update_traced(token, &tracer));
        if misses.load(Ordering::Relaxed) > misses_before {
            out.cache_misses += 1;
            out.cold_ms.push(secs * 1e3);
        } else {
            out.cache_hits += 1;
            out.hit_us.push(secs * 1e6);
        }
        match prepared {
            Some(prepared) => {
                out.served += 1;
                out.wire_bytes += prepared.wire_bytes;
            }
            None => out.unanswered += 1,
        }
    }
    out
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        threads: THREADS,
        ..Outcome::default()
    };
    let run = run_requests(cfg, &mut out.checks);
    if !cfg.trace {
        out.timed = run.timed;
        out.timed.end_to_end(&mut out.metrics);
        return out;
    }

    let sizes = sizes(cfg.smoke);
    let world = World::build(mix(cfg.seed, 0), sizes.image);
    let inputs = Inputs::from_images(
        mix(cfg.seed, 0),
        world.bases[1].clone(),
        world.bases[2].clone(),
    );
    let units = UnitCosts::measure(&inputs, cfg.replay_budget_s(), THREADS);
    let (sessions, boots) = replay_ab_updates(cfg.seed, sizes.image, cfg.replay_updates());
    let m = &mut out.metrics;
    units.emit(m);
    // Measured spans replace the replayed prepare costs on this workload.
    m.set("core.prepare_hit_us", median(&run.hit_us));
    m.set("core.prepare_cold_ms", median(&run.cold_ms));
    m.set("core.session_ms_p50", median(&sessions));
    m.set("core.boot_ms_p50", median(&boots));
    m.set("core.boot_ms_p99", percentile(&boots, 99.0));
    let lookups = (run.cache_hits + run.cache_misses).max(1) as f64;
    m.set(
        "core.patch_cache_hit_ratio",
        run.cache_hits as f64 / lookups,
    );
    m.set(
        "sim.cpu_util",
        run.cpu_s / (run.timed.wall_s * THREADS as f64).max(1e-9),
    );
    let requests = run.timed.items as f64;
    let cold = run.cache_misses as f64;
    Attribution {
        crypto_us: requests * units.sign_us,
        compress_us: cold * units.cold_compress_us(),
        delta_us: cold * units.diff_ms * 1e3,
        flash_us: 0.0,
        core_us: requests * units.prepare_core_us(),
    }
    .emit(run.cpu_s, m);

    out.timed = run.timed;
    out
}
