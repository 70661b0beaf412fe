//! Server-side components: the vendor server (generation phase) and the
//! update server (propagation phase).
//!
//! The division of labour mirrors Fig. 2 of the paper:
//!
//! * The **vendor server** holds the vendor private key. It receives a raw
//!   firmware binary and produces a *release*: the manifest core plus the
//!   vendor signature over it. This happens once per firmware version.
//! * The **update server** holds its own private key and the published
//!   releases. Per device request it receives a [`DeviceToken`], decides
//!   between a full and a differential payload, fills in the token fields,
//!   and signs the complete manifest — binding the image to that one
//!   device and request, which is what grants freshness without
//!   transport-layer security.

use alloc::collections::BTreeMap;
use alloc::sync::Arc;
use std::sync::{OnceLock, RwLock};

use upkit_compress::{compress, Params as LzssParams};
use upkit_crypto::chacha20::{chacha20_xor, KEY_LEN as CONTENT_KEY_LEN};
use upkit_crypto::ecdsa::{Signature, SigningKey};
use upkit_crypto::sha256::sha256;
use upkit_delta::{DeltaContext, FramedDiffOptions, PatchFormat};
use upkit_manifest::{
    server_sign, vendor_sign, DeviceToken, Manifest, SignedManifest, UpdateImage, Version,
};
use upkit_trace::{Counters, Event, Tracer};

/// A firmware release: the vendor-signed, request-independent part of an
/// update.
#[derive(Clone, Debug)]
pub struct Release {
    /// Version of this firmware.
    pub version: Version,
    /// The firmware binary.
    pub firmware: Vec<u8>,
    /// SHA-256 of `firmware`.
    pub digest: [u8; 32],
    /// Link offset the binary was built for.
    pub link_offset: u32,
    /// Application/hardware identifier.
    pub app_id: u32,
    /// Vendor signature over the manifest core.
    pub vendor_signature: Signature,
}

/// The vendor server: embeds the vendor private key and turns firmware
/// binaries into signed releases.
pub struct VendorServer {
    key: SigningKey,
}

impl core::fmt::Debug for VendorServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VendorServer").finish_non_exhaustive()
    }
}

impl VendorServer {
    /// Creates a vendor server around its signing key.
    #[must_use]
    pub fn new(key: SigningKey) -> Self {
        Self { key }
    }

    /// The public half of the vendor key (provisioned to devices).
    #[must_use]
    pub fn verifying_key(&self) -> upkit_crypto::ecdsa::VerifyingKey {
        self.key.verifying_key()
    }

    /// Signs an arbitrary manifest's core fields (factory provisioning of
    /// the image a device ships with).
    #[must_use]
    pub fn sign_manifest_core(&self, manifest: &Manifest) -> upkit_crypto::Signature {
        vendor_sign(manifest, &self.key)
    }

    /// Signs a multi-component manifest's vendor region (the core fields
    /// plus the whole component table).
    #[must_use]
    pub fn sign_multi(&self, multi: &upkit_manifest::MultiManifest) -> upkit_crypto::Signature {
        upkit_manifest::vendor_sign_multi(multi, &self.key)
    }

    /// Generation phase: builds and vendor-signs a release.
    #[must_use]
    pub fn release(
        &self,
        firmware: Vec<u8>,
        version: Version,
        link_offset: u32,
        app_id: u32,
    ) -> Release {
        let digest = sha256(&firmware);
        // The vendor signature covers the manifest core only; token fields
        // are zero here and ignored by `vendor_signed_bytes`.
        let core_manifest = Manifest {
            device_id: 0,
            nonce: 0,
            old_version: Version(0),
            version,
            size: firmware.len() as u32,
            payload_size: firmware.len() as u32,
            digest,
            link_offset,
            app_id,
        };
        let vendor_signature = vendor_sign(&core_manifest, &self.key);
        Release {
            version,
            firmware,
            digest,
            link_offset,
            app_id,
            vendor_signature,
        }
    }
}

pub use crate::keys::content_nonce;

/// Compresses `patch` with the configured parameters and, additionally,
/// with a small-window/long-match configuration that excels on the long
/// zero runs bsdiff emits; returns the smaller stream. The decoder reads
/// the parameters from the stream header, so the device side needs no
/// configuration.
fn best_compression(patch: &[u8], configured: LzssParams) -> Vec<u8> {
    let mut best = compress(patch, configured);
    if let Ok(sparse) = LzssParams::new(8) {
        let alt = compress(patch, sparse);
        if alt.len() < best.len() {
            best = alt;
        }
    }
    best
}

/// How the update server answered a request (for tests and experiment
/// accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedKind {
    /// A full firmware image was served.
    Full,
    /// A patch was served: an LZSS-compressed bsdiff stream
    /// ([`PatchFormat::Raw`]) or a windowed framed container
    /// ([`PatchFormat::Framed`]), per the server's configured format.
    Differential {
        /// The base version the patch applies to.
        from: Version,
    },
}

/// A prepared response to one device token.
#[derive(Clone, Debug)]
pub struct PreparedUpdate {
    /// The update image to transmit (manifest first, then payload).
    pub image: UpdateImage,
    /// Whether the payload is full or differential.
    pub kind: ServedKind,
    /// Serialized wire length of `image`, precomputed at preparation time
    /// so per-poll accounting never re-serializes the full image.
    pub wire_bytes: u64,
}

/// Key of one content-addressed patch-cache entry: the SHA-256 digests of
/// the two images, the platform (application/hardware identifier), and the
/// container format the patch was encoded in. Everything the cached bytes
/// depend on is in the key, so an entry can never go stale — re-publishing
/// a version with different content yields a different digest and therefore
/// a different key.
type PatchKey = ([u8; 32], [u8; 32], u32, PatchFormat);

/// First eight bytes of a SHA-256 digest as a big-endian integer — the
/// stable short form trace events use to identify an image.
fn digest_prefix(digest: &[u8; 32]) -> u64 {
    u64::from_be_bytes(digest[..8].try_into().expect("digest has 32 bytes"))
}

/// The update server: publishes releases and answers device tokens with
/// double-signed update images.
pub struct UpdateServer {
    key: SigningKey,
    releases: BTreeMap<u16, Release>,
    lzss: LzssParams,
    content_key: Option<[u8; CONTENT_KEY_LEN]>,
    /// Container format served to differential-capable devices. Defaults
    /// to [`PatchFormat::Raw`] (one LZSS-compressed bsdiff stream), the
    /// format every deployed decoder understands.
    patch_format: PatchFormat,
    /// Tracer used by [`Self::prepare_update`]; disabled by default.
    tracer: Tracer,
    /// One [`DeltaContext`] per base image, keyed by content digest and
    /// built exactly once (single-flight via [`OnceLock`]) on the first
    /// differential request against that base: the suffix array dominates
    /// diff cost and depends only on the old image bytes.
    delta_contexts: RwLock<BTreeMap<[u8; 32], SingleFlight<DeltaContext>>>,
    /// Content-addressed pre-encryption patch cache. The [`OnceLock`] cell
    /// makes population single-flight: when concurrent campaigns race on
    /// the same transition, exactly one worker diffs and the rest block on
    /// the cell instead of repeating the work. Entries survive
    /// [`Self::publish`] — the key pins the exact input images, so a
    /// straggler updating from an old base after several publishes still
    /// hits the cache.
    patches: RwLock<BTreeMap<PatchKey, SingleFlight<CachedPatch>>>,
    /// Request-independent campaign responses, keyed like the patch cache
    /// (`None` base = full-image response for non-differential devices).
    /// Each entry holds a fully signed broadcast [`PreparedUpdate`], so a
    /// million-device campaign costs one ECDSA signature per transition.
    campaign_responses: RwLock<BTreeMap<CampaignKey, SingleFlight<PreparedUpdate>>>,
}

/// Key of one cached campaign response: optional base-image digest (full
/// responses have none), new-image digest, platform, container format.
type CampaignKey = (Option<[u8; 32]>, [u8; 32], u32, PatchFormat);

/// A shareable populate-exactly-once cache cell: whoever wins the race
/// computes, everyone else blocks on the same cell and reads the result.
type SingleFlight<T> = Arc<OnceLock<Arc<T>>>;

/// The cell `cache` holds for `key`, inserting an empty one on first use.
/// A hit takes only the read lock; the write lock is taken only when the
/// key is missing.
fn single_flight_cell<K: Ord, T>(
    cache: &RwLock<BTreeMap<K, SingleFlight<T>>>,
    key: K,
) -> SingleFlight<T> {
    const POISON: &str = "no poisoned lock: caches are written outside panics";
    let hit = cache.read().expect(POISON).get(&key).map(Arc::clone);
    hit.unwrap_or_else(|| Arc::clone(cache.write().expect(POISON).entry(key).or_default()))
}

/// A cached patch decision: the pre-encryption payload bytes and whether
/// they are a differential patch or a full-image fallback. Deliberately
/// content-pure — no version numbers — so the entry stays valid however
/// the version ↔ image mapping evolves across publishes.
struct CachedPatch {
    payload: Vec<u8>,
    differential: bool,
}

impl core::fmt::Debug for UpdateServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("UpdateServer")
            .field("releases", &self.releases.len())
            .finish_non_exhaustive()
    }
}

impl UpdateServer {
    /// Creates an update server around its signing key.
    #[must_use]
    pub fn new(key: SigningKey) -> Self {
        Self {
            key,
            releases: BTreeMap::new(),
            lzss: LzssParams::default(),
            content_key: None,
            patch_format: PatchFormat::Raw,
            tracer: Tracer::disabled(),
            delta_contexts: RwLock::new(BTreeMap::new()),
            patches: RwLock::new(BTreeMap::new()),
            campaign_responses: RwLock::new(BTreeMap::new()),
        }
    }

    /// Selects the patch container served to differential-capable devices.
    /// [`PatchFormat::Framed`] enables the windowed container; the default
    /// [`PatchFormat::Raw`] keeps the seed wire format byte-for-byte. Devices sniff the container
    /// from the payload magic, so no device-side configuration changes.
    pub fn set_patch_format(&mut self, format: PatchFormat) {
        self.patch_format = format;
    }

    /// Installs the tracer [`Self::prepare_update`] charges cache hits and
    /// misses to. Callers that need per-request traces (e.g. the parallel
    /// generator) use [`Self::prepare_update_traced`] instead.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer installed via [`Self::set_tracer`] (disabled by default).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The public half of the server key (provisioned to devices).
    #[must_use]
    pub fn verifying_key(&self) -> upkit_crypto::ecdsa::VerifyingKey {
        self.key.verifying_key()
    }

    /// Signs an arbitrary full manifest (factory provisioning of the image
    /// a device ships with).
    #[must_use]
    pub fn sign_manifest(&self, manifest: &Manifest) -> upkit_crypto::Signature {
        server_sign(manifest, &self.key)
    }

    /// Signs a multi-component manifest's server region (the full token
    /// fields plus the whole component table).
    #[must_use]
    pub fn sign_multi(&self, multi: &upkit_manifest::MultiManifest) -> upkit_crypto::Signature {
        upkit_manifest::server_sign_multi(multi, &self.key)
    }

    /// Enables payload confidentiality: every prepared update's wire
    /// payload is ChaCha20-encrypted under `key`, with a nonce derived from
    /// the device token (device ID ‖ request nonce ‖ version). Devices must
    /// be provisioned with the same key. Implements the paper's future-work
    /// decryption-stage extension; integrity still comes from the signed
    /// manifest digest over the *plaintext* firmware (encrypt-then-sign at
    /// the image level).
    pub fn set_content_key(&mut self, key: [u8; CONTENT_KEY_LEN]) {
        self.content_key = Some(key);
    }

    /// Publishes a release received from the vendor server.
    ///
    /// Caches are *not* flushed: both the delta contexts and the patch
    /// cache are keyed by content digest, so no entry can describe the new
    /// release incorrectly — a changed image changes the key. Entries for
    /// transitions no one will request again merely occupy memory until
    /// the server restarts; publishes are rare enough that this is the
    /// right trade for never re-diffing a transition a straggler repeats.
    pub fn publish(&mut self, release: Release) {
        self.releases.insert(release.version.0, release);
    }

    /// The newest published version, if any.
    #[must_use]
    pub fn latest_version(&self) -> Option<Version> {
        self.releases.keys().next_back().map(|&v| Version(v))
    }

    /// Returns the cached delta context for a base image, building it on
    /// first use. Single-flight: concurrent first requests block on one
    /// [`OnceLock`] cell instead of each building the suffix array.
    fn delta_context(&self, base: &Release) -> Arc<DeltaContext> {
        let cell = single_flight_cell(&self.delta_contexts, base.digest);
        Arc::clone(cell.get_or_init(|| Arc::new(DeltaContext::new(&base.firmware))))
    }

    /// Diffs `base` against `latest` in the configured container format
    /// and decides differential vs full. Deterministic and
    /// request-independent, hence cacheable by content digest.
    fn compute_patch(&self, base: &Release, latest: &Release) -> CachedPatch {
        let context = self.delta_context(base);
        let encoded = match self.patch_format {
            PatchFormat::Raw => {
                let patch = context.diff(&base.firmware, &latest.firmware);
                best_compression(&patch, self.lzss)
            }
            PatchFormat::Framed => {
                // Per-window compression follows the server's configured
                // LZSS parameters; the container carries them per window,
                // so decoders need no configuration.
                let options = FramedDiffOptions {
                    lzss: Some(self.lzss),
                    ..FramedDiffOptions::default()
                };
                context.framed_diff(&base.firmware, &latest.firmware, &options)
            }
        };
        // Serve the delta only when it actually saves transfer.
        if encoded.len() < latest.firmware.len() {
            CachedPatch {
                payload: encoded,
                differential: true,
            }
        } else {
            CachedPatch {
                payload: latest.firmware.clone(),
                differential: false,
            }
        }
    }

    /// Looks up (or computes, exactly once per key) the patch for the
    /// `base → latest` transition. The returned bytes are byte-identical
    /// to a fresh computation — diff and LZSS are deterministic functions
    /// of the two images — which the property tests pin. Charges
    /// `patch_cache_hits`/`patch_cache_misses` and emits the matching
    /// event on `tracer`.
    fn differential_payload(
        &self,
        base: &Release,
        latest: &Release,
        tracer: &Tracer,
    ) -> Arc<CachedPatch> {
        let key = (base.digest, latest.digest, latest.app_id, self.patch_format);
        let cell = single_flight_cell(&self.patches, key);
        let mut fresh = false;
        let cached = Arc::clone(cell.get_or_init(|| {
            fresh = true;
            Arc::new(self.compute_patch(base, latest))
        }));

        let format = self.patch_format.label();
        if fresh {
            Counters::add(&tracer.counters().patch_cache_misses, 1);
            tracer.emit(|| Event::PatchGenerated {
                old_digest: digest_prefix(&base.digest),
                new_digest: digest_prefix(&latest.digest),
                platform: u64::from(latest.app_id),
                format,
                bytes: cached.payload.len() as u64,
            });
        } else {
            Counters::add(&tracer.counters().patch_cache_hits, 1);
            tracer.emit(|| Event::PatchCacheHit {
                old_digest: digest_prefix(&base.digest),
                new_digest: digest_prefix(&latest.digest),
                platform: u64::from(latest.app_id),
                format,
            });
        }
        cached
    }

    /// Pre-computes the patch for devices currently on `base`, so that
    /// later [`Self::prepare_update`] calls for that transition are pure
    /// cache hits (manifest signing only). Returns `false` when there is
    /// no differential transition to warm — unknown base, no newer
    /// release, or an empty server.
    pub fn warm(&self, base: Version, tracer: &Tracer) -> bool {
        let Some(latest) = self.releases.values().next_back() else {
            return false;
        };
        let Some(base_release) = self.releases.get(&base.0) else {
            return false;
        };
        if base_release.version >= latest.version {
            return false;
        }
        self.differential_payload(base_release, latest, tracer);
        true
    }

    /// Propagation phase: answers a device token with an update image for
    /// the newest release, choosing a differential payload when the device
    /// supports it and the base release is still on hand.
    ///
    /// Returns `None` when no release is newer than the device's current
    /// version (nothing to update).
    #[must_use]
    pub fn prepare_update(&self, token: &DeviceToken) -> Option<PreparedUpdate> {
        self.prepare_update_traced(token, &self.tracer)
    }

    /// [`Self::prepare_update`] with an explicit tracer, for callers that
    /// collect per-request traces and merge them deterministically (the
    /// parallel generator gives every worker job its own tracer).
    #[must_use]
    pub fn prepare_update_traced(
        &self,
        token: &DeviceToken,
        tracer: &Tracer,
    ) -> Option<PreparedUpdate> {
        let latest = self.releases.values().next_back()?;
        if latest.version <= token.current_version && token.current_version.0 != 0 {
            return None;
        }

        let base = if token.supports_differential() {
            self.releases
                .get(&token.current_version.0)
                .filter(|release| release.version < latest.version)
        } else {
            None
        };
        Some(self.respond(latest, base, token.device_id, token.nonce, tracer))
    }

    /// Builds the response serving `latest` to a device on `base` (a
    /// release older than `latest`, or `None` for the full image): selects
    /// the payload through the patch cache, encrypts it, and signs the
    /// manifest bound to `device_id` and `nonce` (both zero for a
    /// broadcast response).
    fn respond(
        &self,
        latest: &Release,
        base: Option<&Release>,
        device_id: u32,
        nonce: u32,
        tracer: &Tracer,
    ) -> PreparedUpdate {
        let cached = base.map(|base| {
            (
                base.version,
                self.differential_payload(base, latest, tracer),
            )
        });
        let (plain, old_version, kind) = match &cached {
            Some((from, patch)) if patch.differential => (
                patch.payload.as_slice(),
                *from,
                ServedKind::Differential { from: *from },
            ),
            // The cache decided the delta does not pay for itself and
            // stored the full image instead.
            Some((_, patch)) => (patch.payload.as_slice(), Version(0), ServedKind::Full),
            None => (latest.firmware.as_slice(), Version(0), ServedKind::Full),
        };

        let payload = match &self.content_key {
            Some(key) => chacha20_xor(key, &content_nonce(device_id, nonce, latest.version), plain),
            None => plain.to_vec(),
        };

        let manifest = Manifest {
            device_id,
            nonce,
            old_version,
            version: latest.version,
            size: latest.firmware.len() as u32,
            payload_size: payload.len() as u32,
            digest: latest.digest,
            link_offset: latest.link_offset,
            app_id: latest.app_id,
        };
        let signed_manifest = SignedManifest {
            manifest,
            vendor_signature: latest.vendor_signature,
            server_signature: server_sign(&manifest, &self.key),
        };
        let image = UpdateImage {
            signed_manifest,
            payload,
        };
        PreparedUpdate {
            wire_bytes: image.wire_len() as u64,
            image,
            kind,
        }
    }

    /// Campaign (broadcast) propagation: one signed response per
    /// `base → latest` transition, shared by every device on `base`.
    ///
    /// Unlike [`Self::prepare_update`], the manifest's device-token fields
    /// are zero — the response is request-independent, so the ECDSA server
    /// signature is computed **once per transition** (single-flight cached,
    /// like the patch cache) instead of once per device. Devices keep
    /// downgrade protection through the manifest's version-monotonicity
    /// check; what they give up is per-request nonce freshness, the
    /// Omaha-style trade every fleet-scale campaign server makes. Devices
    /// needing the paper's point-to-point freshness keep using
    /// [`Self::prepare_update`].
    ///
    /// `base` is the version the device reports running ([`Version`] `0`
    /// for devices without differential support, which are served the full
    /// image). Returns `None` when no release is newer than `base`.
    #[must_use]
    pub fn prepare_campaign_update(&self, base: Version) -> Option<Arc<PreparedUpdate>> {
        self.prepare_campaign_update_traced(base, &self.tracer)
    }

    /// [`Self::prepare_campaign_update`] with an explicit tracer for the
    /// one-time payload build (patch-cache hits/misses, delta events).
    #[must_use]
    pub fn prepare_campaign_update_traced(
        &self,
        base: Version,
        tracer: &Tracer,
    ) -> Option<Arc<PreparedUpdate>> {
        let latest = self.releases.values().next_back()?;
        if latest.version <= base && base.0 != 0 {
            return None;
        }
        let base_release = if base.0 != 0 {
            self.releases
                .get(&base.0)
                .filter(|release| release.version < latest.version)
        } else {
            None
        };

        let key = (
            base_release.map(|release| release.digest),
            latest.digest,
            latest.app_id,
            self.patch_format,
        );
        let cell = single_flight_cell(&self.campaign_responses, key);
        // Broadcast responses share one ciphertext: the content nonce is
        // derived from the zero device/nonce pair and the version.
        Some(Arc::clone(cell.get_or_init(|| {
            Arc::new(self.respond(latest, base_release, 0, 0, tracer))
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn servers(seed: u64) -> (VendorServer, UpdateServer) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            VendorServer::new(SigningKey::generate(&mut rng)),
            UpdateServer::new(SigningKey::generate(&mut rng)),
        )
    }

    fn firmware(seed: u32, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect()
    }

    fn token(nonce: u32, current: u16) -> DeviceToken {
        DeviceToken {
            device_id: 0xD1,
            nonce,
            current_version: Version(current),
        }
    }

    #[test]
    fn release_carries_valid_vendor_signature() {
        let (vendor, _) = servers(130);
        let fw = firmware(1, 2000);
        let release = vendor.release(fw.clone(), Version(2), 0x100, 0xA);
        let manifest = Manifest {
            device_id: 9,
            nonce: 9,
            old_version: Version(0),
            version: Version(2),
            size: fw.len() as u32,
            payload_size: fw.len() as u32,
            digest: sha256(&fw),
            link_offset: 0x100,
            app_id: 0xA,
        };
        vendor
            .verifying_key()
            .verify_prehashed(
                &sha256(&manifest.vendor_signed_bytes()),
                &release.vendor_signature,
            )
            .unwrap();
    }

    #[test]
    fn serves_full_update_to_non_differential_device() {
        let (vendor, mut server) = servers(131);
        let fw = firmware(2, 3000);
        server.publish(vendor.release(fw.clone(), Version(2), 0, 0xA));
        let prepared = server.prepare_update(&token(1, 0)).unwrap();
        assert_eq!(prepared.kind, ServedKind::Full);
        assert_eq!(prepared.image.payload, fw);
        assert_eq!(
            prepared.image.signed_manifest.manifest.old_version,
            Version(0)
        );
        assert_eq!(prepared.image.signed_manifest.manifest.nonce, 1);
    }

    #[test]
    fn serves_differential_to_supporting_device() {
        let (vendor, mut server) = servers(132);
        let v1 = firmware(3, 20_000);
        let mut v2 = v1.clone();
        v2[100..110].copy_from_slice(b"new-bytes!");
        server.publish(vendor.release(v1, Version(1), 0, 0xA));
        server.publish(vendor.release(v2.clone(), Version(2), 0, 0xA));
        let prepared = server.prepare_update(&token(5, 1)).unwrap();
        assert_eq!(prepared.kind, ServedKind::Differential { from: Version(1) });
        let m = prepared.image.signed_manifest.manifest;
        assert_eq!(m.old_version, Version(1));
        assert_eq!(m.version, Version(2));
        assert_eq!(m.size, v2.len() as u32);
        assert!(m.payload_size < m.size / 4, "delta should be much smaller");
    }

    #[test]
    fn no_update_when_device_is_current() {
        let (vendor, mut server) = servers(133);
        server.publish(vendor.release(firmware(4, 1000), Version(3), 0, 0xA));
        assert!(server.prepare_update(&token(1, 3)).is_none());
        // Newer-on-device (clock skew / rollback on server) also no-ops.
        assert!(server.prepare_update(&token(1, 4)).is_none());
    }

    #[test]
    fn empty_server_has_nothing_to_serve() {
        let (_, server) = servers(134);
        assert!(server.prepare_update(&token(1, 0)).is_none());
        assert!(server.latest_version().is_none());
    }

    #[test]
    fn double_signature_verifies_end_to_end() {
        let (vendor, mut server) = servers(135);
        let fw = firmware(5, 5000);
        server.publish(vendor.release(fw, Version(2), 0, 0xA));
        let prepared = server.prepare_update(&token(77, 0)).unwrap();
        prepared
            .image
            .signed_manifest
            .verify_with_keys(&vendor.verifying_key(), &server.verifying_key())
            .unwrap();
    }

    #[test]
    fn two_requests_get_distinct_server_signatures() {
        // Same release, different nonces ⇒ different signed manifests:
        // the binding that makes replaying the first response to the
        // second request detectable.
        let (vendor, mut server) = servers(136);
        server.publish(vendor.release(firmware(6, 1000), Version(2), 0, 0xA));
        let a = server.prepare_update(&token(1, 0)).unwrap();
        let b = server.prepare_update(&token(2, 0)).unwrap();
        assert_ne!(
            a.image.signed_manifest.server_signature.to_bytes().to_vec(),
            b.image.signed_manifest.server_signature.to_bytes().to_vec()
        );
        // Vendor signature is request-independent and shared.
        assert_eq!(
            a.image.signed_manifest.vendor_signature.to_bytes().to_vec(),
            b.image.signed_manifest.vendor_signature.to_bytes().to_vec()
        );
    }

    #[test]
    fn missing_base_release_falls_back_to_full() {
        let (vendor, mut server) = servers(137);
        // Only v3 is published; device runs v2.
        server.publish(vendor.release(firmware(7, 2000), Version(3), 0, 0xA));
        let prepared = server.prepare_update(&token(1, 2)).unwrap();
        assert_eq!(prepared.kind, ServedKind::Full);
    }

    #[test]
    fn incompressible_delta_falls_back_to_full() {
        let (vendor, mut server) = servers(138);
        // Completely unrelated firmwares: the patch would be larger than
        // the image itself.
        server.publish(vendor.release(firmware(8, 1500), Version(1), 0, 0xA));
        server.publish(vendor.release(firmware(999, 1500), Version(2), 0, 0xA));
        let prepared = server.prepare_update(&token(1, 1)).unwrap();
        assert_eq!(prepared.kind, ServedKind::Full);
        assert_eq!(
            prepared.image.signed_manifest.manifest.old_version,
            Version(0)
        );
    }

    #[test]
    fn cached_payloads_are_byte_identical_to_fresh_computation() {
        // Two identically-seeded servers: one answers twice (the second
        // response is served from the delta/payload caches), the other
        // computes from scratch. RFC 6979 signatures are deterministic, so
        // the full wire images must be byte-identical.
        let (vendor_a, mut server_a) = servers(140);
        let (vendor_b, mut server_b) = servers(140);
        let v1 = firmware(12, 30_000);
        let mut v2 = v1.clone();
        v2[500..540].copy_from_slice(&firmware(13, 40));
        for (vendor, server) in [(&vendor_a, &mut server_a), (&vendor_b, &mut server_b)] {
            server.publish(vendor.release(v1.clone(), Version(1), 0, 0xA));
            server.publish(vendor.release(v2.clone(), Version(2), 0, 0xA));
        }
        let first = server_a.prepare_update(&token(9, 1)).unwrap();
        let cached = server_a.prepare_update(&token(9, 1)).unwrap();
        let fresh = server_b.prepare_update(&token(9, 1)).unwrap();
        assert_eq!(first.image.to_bytes(), cached.image.to_bytes());
        assert_eq!(cached.image.to_bytes(), fresh.image.to_bytes());
        assert_eq!(cached.kind, ServedKind::Differential { from: Version(1) });
    }

    #[test]
    fn publish_retargets_cached_differential_path() {
        let (vendor, mut server) = servers(141);
        let v1 = firmware(14, 10_000);
        let mut v2 = v1.clone();
        v2[100..120].copy_from_slice(&firmware(15, 20));
        server.publish(vendor.release(v1.clone(), Version(1), 0, 0xA));
        server.publish(vendor.release(v2, Version(2), 0, 0xA));
        let before = server.prepare_update(&token(3, 1)).unwrap();
        assert_eq!(before.image.signed_manifest.manifest.version, Version(2));

        // A v3 publish must retarget the differential path: the cache is
        // content-addressed, so the v1→v2 entry simply stops matching and
        // a fresh v1→v3 entry is computed.
        let mut v3 = v1.clone();
        v3[200..230].copy_from_slice(&firmware(16, 30));
        server.publish(vendor.release(v3.clone(), Version(3), 0, 0xA));
        let after = server.prepare_update(&token(4, 1)).unwrap();
        let m = after.image.signed_manifest.manifest;
        assert_eq!(m.version, Version(3));
        assert_eq!(m.digest, sha256(&v3));
    }

    #[test]
    fn repeated_requests_hit_the_patch_cache_exactly_once_per_transition() {
        let (vendor, mut server) = servers(142);
        let v1 = firmware(17, 20_000);
        let mut v2 = v1.clone();
        v2[50..70].copy_from_slice(&firmware(18, 20));
        server.publish(vendor.release(v1, Version(1), 0, 0xA));
        server.publish(vendor.release(v2, Version(2), 0, 0xA));
        let tracer = Tracer::disabled();
        server.set_tracer(tracer.clone());

        for nonce in 0..5 {
            server.prepare_update(&token(nonce, 1)).unwrap();
        }
        let counters = tracer.counters().snapshot();
        assert_eq!(counters.patch_cache_misses, 1, "exactly one diff");
        assert_eq!(counters.patch_cache_hits, 4, "every repeat is a hit");
    }

    #[test]
    fn patch_cache_survives_publish_of_unrelated_release() {
        // Content-addressed entries stay valid across publishes: after a
        // v3 publish, a device still on v1 asking again for the (already
        // warmed) v1→v3 transition must not trigger a re-diff.
        let (vendor, mut server) = servers(143);
        let v1 = firmware(19, 15_000);
        let mut v3 = v1.clone();
        v3[10..30].copy_from_slice(&firmware(20, 20));
        server.publish(vendor.release(v1.clone(), Version(1), 0, 0xA));
        server.publish(vendor.release(v3.clone(), Version(3), 0, 0xA));
        let tracer = Tracer::disabled();
        server.set_tracer(tracer.clone());
        server.prepare_update(&token(1, 1)).unwrap();
        assert_eq!(tracer.counters().snapshot().patch_cache_misses, 1);

        // Publishing an *older* version does not change the latest
        // release, so the same transition must stay cached.
        let mut v2 = v1.clone();
        v2[40..60].copy_from_slice(&firmware(21, 20));
        server.publish(vendor.release(v2, Version(2), 0, 0xA));
        server.prepare_update(&token(2, 1)).unwrap();
        let counters = tracer.counters().snapshot();
        assert_eq!(counters.patch_cache_misses, 1, "no re-diff after publish");
        assert_eq!(counters.patch_cache_hits, 1);
    }

    #[test]
    fn warm_precomputes_so_requests_only_hit() {
        let (vendor, mut server) = servers(144);
        let v1 = firmware(22, 12_000);
        let mut v2 = v1.clone();
        v2[0..16].copy_from_slice(&firmware(23, 16));
        server.publish(vendor.release(v1, Version(1), 0, 0xA));
        server.publish(vendor.release(v2, Version(2), 0, 0xA));
        let tracer = Tracer::disabled();
        server.set_tracer(tracer.clone());

        assert!(server.warm(Version(1), &tracer));
        assert_eq!(tracer.counters().snapshot().patch_cache_misses, 1);
        server.prepare_update(&token(1, 1)).unwrap();
        let counters = tracer.counters().snapshot();
        assert_eq!(counters.patch_cache_misses, 1, "warm did the diff");
        assert_eq!(counters.patch_cache_hits, 1);

        // Nothing to warm: unknown base, base == latest, empty server.
        assert!(!server.warm(Version(9), &tracer));
        assert!(!server.warm(Version(2), &tracer));
        let (_, empty) = servers(145);
        assert!(!empty.warm(Version(1), &tracer));
    }

    #[test]
    fn framed_format_serves_sniffable_framed_container() {
        let (vendor, mut server) = servers(146);
        let v1 = firmware(24, 30_000);
        let mut v2 = v1.clone();
        v2[1000..1040].copy_from_slice(&firmware(25, 40));
        server.publish(vendor.release(v1, Version(1), 0, 0xA));
        server.publish(vendor.release(v2.clone(), Version(2), 0, 0xA));
        server.set_patch_format(PatchFormat::Framed);

        let prepared = server.prepare_update(&token(7, 1)).unwrap();
        assert_eq!(prepared.kind, ServedKind::Differential { from: Version(1) });
        assert_eq!(
            PatchFormat::detect(&prepared.image.payload),
            Some(PatchFormat::Framed)
        );
        assert!(prepared.image.payload.len() < v2.len() / 4);
        // The framed payload applies back to the exact new image.
        let applied =
            upkit_delta::patch_framed(&server.releases[&1].firmware, &prepared.image.payload)
                .unwrap();
        assert_eq!(applied, v2);
    }

    #[test]
    fn raw_and_framed_cache_entries_do_not_collide() {
        // Same transition requested in both formats: two misses, then a
        // hit per format — the format is part of the cache key.
        let (vendor, mut server) = servers(147);
        let v1 = firmware(26, 10_000);
        let mut v2 = v1.clone();
        v2[5..25].copy_from_slice(&firmware(27, 20));
        server.publish(vendor.release(v1, Version(1), 0, 0xA));
        server.publish(vendor.release(v2, Version(2), 0, 0xA));
        let tracer = Tracer::disabled();
        server.set_tracer(tracer.clone());

        let raw = server.prepare_update(&token(1, 1)).unwrap();
        server.set_patch_format(PatchFormat::Framed);
        let framed = server.prepare_update(&token(1, 1)).unwrap();
        assert_ne!(raw.image.payload, framed.image.payload);
        server.prepare_update(&token(2, 1)).unwrap();
        let counters = tracer.counters().snapshot();
        assert_eq!(counters.patch_cache_misses, 2);
        assert_eq!(counters.patch_cache_hits, 1);
    }

    #[test]
    fn latest_version_tracks_publications() {
        let (vendor, mut server) = servers(139);
        server.publish(vendor.release(firmware(9, 100), Version(1), 0, 0xA));
        assert_eq!(server.latest_version(), Some(Version(1)));
        server.publish(vendor.release(firmware(10, 100), Version(5), 0, 0xA));
        assert_eq!(server.latest_version(), Some(Version(5)));
        server.publish(vendor.release(firmware(11, 100), Version(3), 0, 0xA));
        assert_eq!(server.latest_version(), Some(Version(5)));
    }
}
