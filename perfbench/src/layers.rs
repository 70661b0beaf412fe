//! Per-layer attribution by replay: after a traced run, each layer's
//! public function is timed on the workload's own images and manifests,
//! and the unit cost times the run's call counts estimates the layer's
//! CPU. Replay runs with warm caches, so it estimates; it does not trace.

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_compress::{compress, decompress, Params};
use upkit_core::generation::{PreparedUpdate, Release, UpdateServer, VendorServer};
use upkit_crypto::ecdsa::SigningKey;
use upkit_crypto::sha256::sha256;
use upkit_delta::DeltaContext;
use upkit_flash::{FlashDevice, FlashGeometry, SimFlash};
use upkit_manifest::{DeviceToken, Version};
use upkit_sim::device::{APP_ID, LINK_OFFSET};
use upkit_sim::FirmwareGenerator;

use crate::measure::unit_cost_us;
use crate::metrics::Metrics;

const SECTOR: u32 = 4096;

/// A device on v1 that supports differential updates.
const DIFF_TOKEN: DeviceToken = DeviceToken {
    device_id: 0x1000,
    nonce: 1,
    current_version: Version(1),
};

/// One v1 → v2 transition as a workload sees it: keys, both images, a
/// server with both published, and the response a v1 device receives.
pub struct Inputs {
    pub v1: Vec<u8>,
    pub v2: Vec<u8>,
    vendor: VendorServer,
    server_key: SigningKey,
    releases: [Release; 2],
    pub server: UpdateServer,
    pub prepared: PreparedUpdate,
}

impl Inputs {
    /// The keys and images `upkit-sim` derives from a fleet seed (also
    /// campaign 0 of a dissemination run): keys from `StdRng(seed)`,
    /// firmware from `FirmwareGenerator(seed ^ 0xF00D)`.
    pub fn fleet(seed: u64, firmware_size: usize) -> Self {
        Self::generated(seed, seed ^ 0xF00D, firmware_size)
    }

    /// Keys from `StdRng(key_seed)`; v1 is a generated base image and v2
    /// its OS-version change, both from `FirmwareGenerator(firmware_seed)`.
    pub fn generated(key_seed: u64, firmware_seed: u64, firmware_size: usize) -> Self {
        let generator = FirmwareGenerator::new(firmware_seed);
        let v1 = generator.base(firmware_size);
        let v2 = generator.os_version_change(&v1);
        Self::from_images(key_seed, v1, v2)
    }

    pub fn from_images(key_seed: u64, v1: Vec<u8>, v2: Vec<u8>) -> Self {
        let mut rng = StdRng::seed_from_u64(key_seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let server_key = SigningKey::generate(&mut rng);
        let releases = [
            vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID),
            vendor.release(v2.clone(), Version(2), LINK_OFFSET, APP_ID),
        ];
        let server = publish(&server_key, &releases);
        let prepared = server
            .prepare_update(&DIFF_TOKEN)
            .expect("v2 is newer than v1");
        Self {
            v1,
            v2,
            vendor,
            server_key,
            releases,
            server,
            prepared,
        }
    }
}

fn publish(key: &SigningKey, releases: &[Release; 2]) -> UpdateServer {
    let mut server = UpdateServer::new(key.clone());
    for release in releases {
        server.publish(release.clone());
    }
    server
}

/// Median cost of one call of each layer's hot function on [`Inputs`].
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    pub verify_us: f64,
    pub sign_us: f64,
    pub manifest_verify_us: f64,
    pub sha_mbps: f64,
    pub decode_mbps: f64,
    pub encode_ms: f64,
    pub patch_mbps: f64,
    pub diff_ms: f64,
    pub suffix_ms: f64,
    pub flash_write_mbps: f64,
    pub prepare_hit_us: f64,
    pub prepare_cold_ms: f64,
    /// Length of the uncompressed patch stream of the transition.
    pub patch_len: usize,
    /// Length of the v2 image.
    pub image_len: usize,
}

impl UnitCosts {
    /// Times each function for about `budget_s` seconds on `threads`
    /// threads at once, the workload's own thread count, so the replay
    /// runs under the same contention for cores as the run it explains.
    /// Each unit cost is the mean of the threads' medians.
    pub fn measure(inputs: &Inputs, budget_s: f64, threads: usize) -> Self {
        let per_thread: Vec<Self> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| Self::measure_one(inputs, budget_s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .collect()
        });
        let mean = |field: fn(&Self) -> f64| {
            per_thread.iter().map(field).sum::<f64>() / per_thread.len() as f64
        };
        Self {
            verify_us: mean(|u| u.verify_us),
            sign_us: mean(|u| u.sign_us),
            manifest_verify_us: mean(|u| u.manifest_verify_us),
            sha_mbps: mean(|u| u.sha_mbps),
            decode_mbps: mean(|u| u.decode_mbps),
            encode_ms: mean(|u| u.encode_ms),
            patch_mbps: mean(|u| u.patch_mbps),
            diff_ms: mean(|u| u.diff_ms),
            suffix_ms: mean(|u| u.suffix_ms),
            flash_write_mbps: mean(|u| u.flash_write_mbps),
            prepare_hit_us: mean(|u| u.prepare_hit_us),
            prepare_cold_ms: mean(|u| u.prepare_cold_ms),
            ..per_thread[0]
        }
    }

    fn measure_one(inputs: &Inputs, budget_s: f64) -> Self {
        let signed = inputs.prepared.image.signed_manifest;
        let vendor_key = inputs.vendor.verifying_key();
        let server_key = inputs.server.verifying_key();
        let digest = sha256(&signed.manifest.server_signed_bytes());
        let payload = &inputs.prepared.image.payload;
        let patch = decompress(payload).expect("the server's patch stream decodes");
        let context = DeltaContext::new(&inputs.v1);
        let (v1, v2) = (&inputs.v1, &inputs.v2);
        let image = v2.len() as f64;
        let mut flash = SimFlash::new(FlashGeometry {
            size: (v2.len() as u32).div_ceil(SECTOR) * SECTOR,
            sector_size: SECTOR,
            read_micros_per_byte: 0,
            write_micros_per_byte: 0,
            erase_micros_per_sector: 0,
        });

        Self {
            verify_us: unit_cost_us(budget_s, 5, || {
                server_key
                    .verify_prehashed(&digest, &signed.server_signature)
                    .expect("replayed signature verifies");
            }),
            sign_us: unit_cost_us(budget_s, 5, || {
                inputs.server.sign_manifest(&signed.manifest)
            }),
            manifest_verify_us: unit_cost_us(budget_s, 5, || {
                signed
                    .verify_with_keys(&vendor_key, &server_key)
                    .expect("replayed manifest verifies");
            }),
            sha_mbps: image / unit_cost_us(budget_s, 5, || sha256(v2)),
            decode_mbps: patch.len() as f64 / unit_cost_us(budget_s, 5, || decompress(payload)),
            encode_ms: unit_cost_us(budget_s, 5, || compress(&patch, Params::default())) / 1e3,
            patch_mbps: image / unit_cost_us(budget_s, 5, || upkit_delta::patch(v1, &patch)),
            diff_ms: unit_cost_us(budget_s, 5, || context.diff(v1, v2)) / 1e3,
            suffix_ms: unit_cost_us(budget_s, 5, || DeltaContext::new(v1)) / 1e3,
            flash_write_mbps: image
                / unit_cost_us(budget_s, 5, || {
                    for (index, chunk) in v2.chunks(SECTOR as usize).enumerate() {
                        let addr = index as u32 * SECTOR;
                        flash.erase_sector(addr).expect("sector in range");
                        flash.write(addr, chunk).expect("erased sector");
                    }
                }),
            prepare_hit_us: unit_cost_us(budget_s, 5, || inputs.server.prepare_update(&DIFF_TOKEN)),
            prepare_cold_ms: unit_cost_us(budget_s, 5, || {
                publish(&inputs.server_key, &inputs.releases).prepare_update(&DIFF_TOKEN)
            }) / 1e3,
            patch_len: patch.len(),
            image_len: v2.len(),
        }
    }

    pub fn emit(&self, metrics: &mut Metrics) {
        metrics.set("crypto.p256_verify_us", self.verify_us);
        metrics.set("crypto.p256_sign_us", self.sign_us);
        metrics.set("crypto.sha256_mbps", self.sha_mbps);
        metrics.set("manifest.verify_us", self.manifest_verify_us);
        metrics.set("compress.lzss_decode_mbps", self.decode_mbps);
        metrics.set("compress.lzss_encode_ms", self.encode_ms);
        metrics.set("delta.patch_mbps", self.patch_mbps);
        metrics.set("delta.diff_ms", self.diff_ms);
        metrics.set("delta.suffix_ms", self.suffix_ms);
        metrics.set("flash.write_mbps", self.flash_write_mbps);
        metrics.set("core.prepare_hit_us", self.prepare_hit_us);
        metrics.set("core.prepare_cold_ms", self.prepare_cold_ms);
    }

    /// Microseconds to hash `bytes` with SHA-256.
    pub fn sha_us(&self, bytes: f64) -> f64 {
        bytes / self.sha_mbps
    }

    /// Microseconds of one cold transition: suffix array, diff, and the
    /// two LZSS encodes the server compares.
    pub fn cold_delta_us(&self) -> f64 {
        (self.suffix_ms + self.diff_ms) * 1e3
    }

    pub fn cold_compress_us(&self) -> f64 {
        2.0 * self.encode_ms * 1e3
    }

    /// The part of a warm `prepare_update` that is not the signature.
    pub fn prepare_core_us(&self) -> f64 {
        (self.prepare_hit_us - self.sign_us).max(0.0)
    }
}

/// Estimated CPU microseconds per layer over a traced section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Attribution {
    pub crypto_us: f64,
    pub compress_us: f64,
    pub delta_us: f64,
    pub flash_us: f64,
    pub core_us: f64,
}

impl Attribution {
    /// Each layer's share of `cpu_s`, and what none of them explains.
    pub fn emit(&self, cpu_s: f64, metrics: &mut Metrics) {
        let cpu_us = (cpu_s * 1e6).max(1.0);
        let layers = [
            ("crypto.share", self.crypto_us),
            ("compress.share", self.compress_us),
            ("delta.share", self.delta_us),
            ("flash.share", self.flash_us),
            ("core.share", self.core_us),
        ];
        let mut attributed = 0.0;
        for (name, us) in layers {
            metrics.set(name, us / cpu_us);
            attributed += us / cpu_us;
        }
        metrics.set("unattributed_share", 1.0 - attributed);
    }
}
