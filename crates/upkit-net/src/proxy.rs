//! Update proxies: the passive forwarder and the active caching gateway.
//!
//! In UpKit's architecture the push smartphone and the pull border router
//! are the same passive proxy, [`forward`]: each only forwards bytes
//! between update server and device. A compromised proxy can therefore
//! mount denial-of-service or corruption attacks but cannot defeat
//! integrity, authenticity, or freshness — the property the integration
//! tests demonstrate. Every such attack is a
//! [`FrameAdversary`](crate::tamper::FrameAdversary) wrapped around the
//! session endpoints that call a proxy; no proxy holds a tamper of its
//! own.
//!
//! [`CachingProxy`] promotes the gateway into an *active* in-network
//! cache: a bounded, LRU-evicted block store keyed by
//! `(stream digest, block index)`. A cache hit serves a downstream device
//! without touching the upstream link; a miss single-flights the upstream
//! fetch so concurrent downstream sessions share one transfer. Its cache
//! and upstream counters live only on its [`Tracer`]. The threat model is
//! unchanged — a tampered or poisoned cache corrupts bytes, a
//! [`FrameAdversary`](crate::tamper::FrameAdversary) covers cache-served
//! responses exactly as it does forwarded ones, and end-to-end
//! verification on the device remains the only integrity boundary.

use std::collections::HashMap;

use upkit_core::generation::UpdateServer;
use upkit_crypto::sha256::sha256;
use upkit_manifest::DeviceToken;
use upkit_trace::{Counters, Event, Tracer};

use crate::profiles::LinkProfile;
use crate::session::{SessionStream, StreamResolution};

/// Steps 6–7 of Fig. 2 through the passive proxy — the smartphone of the
/// push flow or the border router of the pull flow: asks `server` for the
/// update `token` calls for and forwards the prepared image as its
/// manifest and payload regions, built from the image's parts. The proxy
/// holds no keys.
#[must_use]
pub fn forward(server: &UpdateServer, token: &DeviceToken) -> StreamResolution {
    match server.prepare_update(token) {
        Some(prepared) => StreamResolution::Stream(SessionStream::from_image(prepared.image)),
        None => StreamResolution::NoUpdate,
    }
}

/// The upstream content a [`CachingProxy`] can fetch blocks of: one
/// serialized update stream (manifest region ‖ payload region) addressed
/// by the first eight bytes of its SHA-256. Build it once per campaign
/// and share it read-only across proxies.
#[derive(Clone, Debug)]
pub struct CachedOrigin {
    digest: u64,
    manifest_len: usize,
    bytes: Vec<u8>,
}

impl CachedOrigin {
    /// Wraps a resolved stream as a cacheable origin.
    #[must_use]
    pub fn new(stream: &SessionStream) -> Self {
        let mut bytes = Vec::with_capacity(stream.manifest.len() + stream.payload.len());
        bytes.extend_from_slice(&stream.manifest);
        bytes.extend_from_slice(&stream.payload);
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = sha256(&bytes);
        Self {
            digest: u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
            manifest_len: stream.manifest.len(),
            bytes,
        }
    }

    /// Cache-key namespace: first 8 bytes (big-endian) of the stream's
    /// SHA-256.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total serialized length (manifest ‖ payload).
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.bytes.len()
    }

    /// Length of the manifest region.
    #[must_use]
    pub fn manifest_len(&self) -> usize {
        self.manifest_len
    }

    /// Number of `block_size`-sized blocks the stream splits into.
    #[must_use]
    pub fn blocks(&self, block_size: usize) -> u32 {
        self.bytes.len().div_ceil(block_size.max(1)) as u32
    }

    /// The untampered stream as a direct single-hop fetch would deliver
    /// it — the reference the dissemination correctness properties compare
    /// cached serves against.
    #[must_use]
    pub fn direct_stream(&self) -> SessionStream {
        SessionStream {
            manifest: self.bytes[..self.manifest_len].to_vec(),
            payload: self.bytes[self.manifest_len..].to_vec(),
        }
    }

    fn block(&self, index: u32, block_size: usize) -> &[u8] {
        let start = (index as usize) * block_size;
        let end = (start + block_size).min(self.bytes.len());
        &self.bytes[start..end]
    }
}

#[derive(Debug)]
struct CacheEntry {
    bytes: Vec<u8>,
    /// LRU clock: monotone per-proxy lookup tick of the last touch.
    tick: u64,
    /// Virtual time the upstream fetch that produced this entry lands;
    /// serves before that join the in-flight fetch and wait for it.
    ready_at: u64,
}

/// An active caching gateway: bounded LRU block cache over one or more
/// upstream origins, with single-flighted upstream fetches serialized on
/// the (shared) backhaul link.
///
/// All time is virtual: the caller passes the current scheduler time to
/// [`CachingProxy::resolve`] and receives the stream together with the
/// wait the downstream session must charge
/// ([`StreamResolution::Deferred`]). Because every mutation is a pure
/// function of the call sequence, a proxy driven by a deterministic event
/// loop is itself deterministic — eviction picks the unique
/// least-recently-used tick, never hash order.
#[derive(Debug)]
pub struct CachingProxy {
    id: u64,
    block_size: usize,
    capacity_blocks: usize,
    upstream: LinkProfile,
    entries: HashMap<(u64, u32), CacheEntry>,
    tick: u64,
    busy_until: u64,
    tracer: Tracer,
}

impl CachingProxy {
    /// A caching gateway `id`, holding at most `capacity_blocks`
    /// blocks of `block_size` bytes and fetching misses over `upstream`.
    /// `capacity_blocks = 0` disables caching entirely: every serve
    /// refetches every block (the per-device unicast baseline, with the
    /// same upstream accounting).
    #[must_use]
    pub fn new(id: u64, block_size: usize, capacity_blocks: usize, upstream: LinkProfile) -> Self {
        Self {
            id,
            block_size: block_size.max(1),
            capacity_blocks,
            upstream,
            entries: HashMap::new(),
            tick: 0,
            busy_until: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Routes this proxy's counters and events through `tracer`: cache
    /// hits and misses, evictions, single-flight joins and upstream
    /// fetches, bytes and busy time are charged there and nowhere else.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Blocks currently cached.
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Block granularity of the cache.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Directly corrupts a cached block in place (a poisoned cache entry:
    /// the upstream fetch was honest, only the cached copy lies). Returns
    /// `false` when the block is not cached.
    pub fn poison_block(
        &mut self,
        digest: u64,
        index: u32,
        mutate: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        match self.entries.get_mut(&(digest, index)) {
            Some(entry) => {
                mutate(&mut entry.bytes);
                true
            }
            None => false,
        }
    }

    /// Assembles `origin`'s stream for one downstream session at virtual
    /// time `now_micros`: cached blocks are served locally, missing ones
    /// are fetched upstream (serialized on the backhaul — concurrent
    /// campaigns queue behind each other), and blocks whose fetch is
    /// still in flight are joined rather than refetched. The returned
    /// [`StreamResolution::Deferred`] carries the wait until the last
    /// needed block lands.
    pub fn resolve(&mut self, origin: &CachedOrigin, now_micros: u64) -> StreamResolution {
        let blocks = origin.blocks(self.block_size);
        let mut stream = SessionStream {
            manifest: Vec::with_capacity(origin.manifest_len),
            payload: Vec::with_capacity(origin.total_len() - origin.manifest_len),
        };
        let mut ready_at = now_micros;
        let (mut hits, mut misses, mut joins) = (0u64, 0u64, 0u64);
        let mut fetched_bytes = 0u64;
        let mut fetch_micros = 0u64;
        for index in 0..blocks {
            let key = (origin.digest, index);
            self.tick += 1;
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.tick = self.tick;
                if entry.ready_at > now_micros {
                    // Another session's upstream fetch for this block is
                    // still in flight: share it, wait for it.
                    joins += 1;
                    ready_at = ready_at.max(entry.ready_at);
                } else {
                    hits += 1;
                }
                append(&mut stream, origin.manifest_len, &entry.bytes);
                continue;
            }
            misses += 1;
            let bytes = origin.block(index, self.block_size).to_vec();
            let start = now_micros.max(self.busy_until);
            let done = start + self.upstream.transfer_micros(bytes.len() as u64);
            self.busy_until = done;
            fetched_bytes += bytes.len() as u64;
            fetch_micros += done - start;
            ready_at = ready_at.max(done);
            append(&mut stream, origin.manifest_len, &bytes);
            if self.capacity_blocks > 0 {
                self.insert(key, bytes, done);
            }
        }

        let counters = self.tracer.counters();
        Counters::add(&counters.proxy_cache_hits, hits);
        Counters::add(&counters.proxy_cache_misses, misses);
        Counters::add(&counters.upstream_fetches, misses);
        Counters::add(&counters.upstream_bytes, fetched_bytes);
        Counters::add(&counters.upstream_micros, fetch_micros);
        Counters::add(&counters.single_flight_joins, joins);
        let wait_micros = ready_at - now_micros;
        let (proxy, digest) = (self.id, origin.digest);
        self.tracer.emit(|| Event::ProxyServe {
            proxy,
            digest,
            hits,
            misses,
            joins,
            upstream_bytes: fetched_bytes,
            wait_micros,
        });

        StreamResolution::Deferred {
            stream,
            wait_micros,
        }
    }

    fn insert(&mut self, key: (u64, u32), bytes: Vec<u8>, ready_at: u64) {
        self.entries.insert(
            key,
            CacheEntry {
                bytes,
                tick: self.tick,
                ready_at,
            },
        );
        while self.entries.len() > self.capacity_blocks {
            // Ticks are unique, so the LRU victim is unique — eviction
            // order never depends on hash-map iteration order.
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.tick)
                .map(|(key, _)| *key)
            else {
                break;
            };
            self.entries.remove(&victim);
            Counters::add(&self.tracer.counters().proxy_evictions, 1);
        }
    }
}

/// Appends one block to a stream being assembled: its bytes fill the
/// manifest region up to `manifest_len` and go to the payload after. A
/// poisoned block may have changed length, so the cut falls where the
/// assembled bytes reach `manifest_len`, not on a block boundary.
fn append(stream: &mut SessionStream, manifest_len: usize, bytes: &[u8]) {
    let take = manifest_len
        .saturating_sub(stream.manifest.len())
        .min(bytes.len());
    stream.manifest.extend_from_slice(&bytes[..take]);
    stream.payload.extend_from_slice(&bytes[take..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionEndpoints;
    use crate::tamper::{FrameAdversary, FrameTamper};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use upkit_core::agent::{AgentError, AgentPhase};
    use upkit_core::generation::VendorServer;
    use upkit_crypto::ecdsa::SigningKey;
    use upkit_manifest::{Version, SIGNED_MANIFEST_LEN};
    use upkit_trace::CountersSnapshot;

    fn server_with_release(seed: u64, fw: Vec<u8>) -> (VendorServer, UpdateServer) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        server.publish(vendor.release(fw, Version(2), 0, 0xA));
        (vendor, server)
    }

    fn token() -> DeviceToken {
        DeviceToken {
            device_id: 1,
            nonce: 5,
            current_version: Version(0),
        }
    }

    fn stream(resolution: StreamResolution) -> SessionStream {
        match resolution {
            StreamResolution::Stream(stream) => stream,
            other => panic!("a forwarder serves a stream, got {other:?}"),
        }
    }

    /// A proxy path as session endpoints whose device side is never
    /// reached, so a [`FrameAdversary`] can wrap it.
    struct ProxyPath<F>(F);

    impl<F: FnMut(&DeviceToken) -> StreamResolution> SessionEndpoints for ProxyPath<F> {
        fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
            Ok(token())
        }
        fn resolve_stream(&mut self, token: &DeviceToken) -> StreamResolution {
            (self.0)(token)
        }
        fn deliver(&mut self, _: &[u8]) -> Result<AgentPhase, AgentError> {
            Ok(AgentPhase::NeedMore)
        }
    }

    /// What a compromised proxy applying `tamper` in front of the proxy
    /// path `resolve` serves for [`token`].
    fn compromised(
        tamper: FrameTamper,
        resolve: impl FnMut(&DeviceToken) -> StreamResolution,
    ) -> StreamResolution {
        FrameAdversary::new(ProxyPath(resolve), tamper).resolve_stream(&token())
    }

    /// `forward`'s two regions, built from the image's parts, equal the
    /// split of the serialized image byte for byte, and neither manifest
    /// keeps more than its own bytes' capacity.
    #[test]
    fn honest_forwarder_serves_the_image_faithfully() {
        let (_, server) = server_with_release(140, vec![0x11; 500]);
        let served = stream(forward(&server, &token()));
        let original = server.prepare_update(&token()).unwrap().image.to_bytes();
        assert_eq!(served.manifest, original[..SIGNED_MANIFEST_LEN]);
        assert_eq!(served.payload, original[SIGNED_MANIFEST_LEN..]);
        let split = SessionStream::split(original);
        assert_eq!(served, split);
        for stream in [&served, &split] {
            assert_eq!(stream.manifest.capacity(), SIGNED_MANIFEST_LEN);
        }
    }

    #[test]
    fn forwarder_reports_no_update_when_current() {
        let (_, server) = server_with_release(141, vec![0x22; 100]);
        let current = DeviceToken {
            current_version: Version(2),
            ..token()
        };
        assert!(matches!(
            forward(&server, &current),
            StreamResolution::NoUpdate
        ));
    }

    #[test]
    fn compromised_forwarder_corrupts_the_stream() {
        let (_, server) = server_with_release(142, vec![0x33; 500]);
        let honest = stream(forward(&server, &token()));
        let flipped = FrameTamper::FlipBit { offset: 10 };
        let served = stream(compromised(flipped, |t| forward(&server, t)));
        assert_ne!(served.manifest, honest.manifest);
        assert_eq!(served.payload, honest.payload);
    }

    #[test]
    fn truncating_forwarder_cuts_the_payload() {
        let (_, server) = server_with_release(143, vec![0x44; 500]);
        let truncating = FrameTamper::Truncate {
            keep: SIGNED_MANIFEST_LEN + 100,
        };
        let served = stream(compromised(truncating, |t| forward(&server, t)));
        assert_eq!(served.manifest.len(), SIGNED_MANIFEST_LEN);
        assert_eq!(served.payload.len(), 100);
    }

    fn origin(payload_len: usize) -> CachedOrigin {
        CachedOrigin::new(&SessionStream {
            manifest: vec![0xAA; 196],
            payload: (0..payload_len).map(|i| i as u8).collect(),
        })
    }

    fn unwrap_deferred(resolution: StreamResolution) -> (SessionStream, u64) {
        match resolution {
            StreamResolution::Deferred {
                stream,
                wait_micros,
            } => (stream, wait_micros),
            other => panic!("caching proxy always defers, got {other:?}"),
        }
    }

    /// The cache and upstream counters `proxy` charged so far.
    fn counters(proxy: &CachingProxy) -> CountersSnapshot {
        proxy.tracer.counters().snapshot()
    }

    #[test]
    fn warm_cache_serves_without_upstream_fetches() {
        let origin = origin(1_000);
        let mut proxy = CachingProxy::new(0, 256, 64, LinkProfile::wifi_backhaul());
        let (first, first_wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        assert_eq!(first, origin.direct_stream());
        assert!(first_wait > 0, "cold cache pays the upstream fetch");
        let cold = counters(&proxy);
        assert_eq!(cold.proxy_cache_misses, u64::from(origin.blocks(256)));
        assert_eq!(cold.upstream_bytes, origin.total_len() as u64);

        // Resolve again after the fetches landed: pure hits, zero wait,
        // zero new upstream traffic.
        let later = first_wait + 1;
        let (second, second_wait) = unwrap_deferred(proxy.resolve(&origin, later));
        assert_eq!(second, origin.direct_stream());
        assert_eq!(second_wait, 0);
        let warm = counters(&proxy);
        assert_eq!(warm.upstream_bytes, cold.upstream_bytes);
        assert_eq!(warm.proxy_cache_hits, u64::from(origin.blocks(256)));
    }

    #[test]
    fn resolve_cuts_the_assembled_bytes_at_the_manifest_length() {
        let origin = origin(1_000);
        let mut proxy = CachingProxy::new(0, 256, 64, LinkProfile::wifi_backhaul());
        let (fresh, wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        assert_eq!(fresh.manifest.capacity(), origin.manifest_len());
        // A poisoned first block cut to 100 bytes: the manifest region
        // takes the first 196 assembled bytes, 96 of them from the second
        // block.
        assert!(proxy.poison_block(origin.digest(), 0, |bytes| bytes.truncate(100)));
        let (cut, _) = unwrap_deferred(proxy.resolve(&origin, wait + 1));
        let direct = origin.direct_stream();
        let bytes = [direct.manifest, direct.payload].concat();
        let assembled = [&bytes[..100], &bytes[256..]].concat();
        assert_eq!(cut.manifest, assembled[..196]);
        assert_eq!(cut.payload, assembled[196..]);
        assert_eq!(cut.manifest.capacity(), origin.manifest_len());
    }

    #[test]
    fn concurrent_serves_single_flight_the_upstream_fetch() {
        let origin = origin(1_000);
        let mut proxy = CachingProxy::new(0, 256, 64, LinkProfile::wifi_backhaul());
        let (_, first_wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        // A second session arriving while the fetches are still in flight
        // joins them: same wait horizon, no new upstream bytes.
        let (stream, join_wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        assert_eq!(stream, origin.direct_stream());
        assert_eq!(join_wait, first_wait);
        let counters = counters(&proxy);
        assert_eq!(counters.upstream_fetches, u64::from(origin.blocks(256)));
        assert_eq!(counters.single_flight_joins, u64::from(origin.blocks(256)));
    }

    #[test]
    fn bounded_cache_evicts_lru_and_refetches() {
        let origin = origin(1_000); // 196 + 1000 = 5 blocks of 256
        let blocks = u64::from(origin.blocks(256));
        let mut proxy = CachingProxy::new(0, 256, 2, LinkProfile::wifi_backhaul());
        let (_, wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        assert_eq!(proxy.cached_blocks(), 2);
        assert_eq!(counters(&proxy).proxy_evictions, blocks - 2);
        // The front of the stream was evicted, so a warm serve still
        // refetches — a cache smaller than the image cannot absorb the
        // fan-out.
        let (_, _) = unwrap_deferred(proxy.resolve(&origin, wait + 1));
        assert!(counters(&proxy).upstream_fetches > blocks);
    }

    #[test]
    fn zero_capacity_disables_caching_entirely() {
        let origin = origin(600);
        let mut proxy = CachingProxy::new(0, 256, 0, LinkProfile::wifi_backhaul());
        let (_, wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        unwrap_deferred(proxy.resolve(&origin, wait + 1));
        let counters = counters(&proxy);
        assert_eq!(counters.proxy_cache_hits, 0);
        assert_eq!(counters.upstream_bytes, 2 * origin.total_len() as u64);
        assert_eq!(proxy.cached_blocks(), 0);
    }

    #[test]
    fn shared_backhaul_serializes_concurrent_fetches() {
        // Two different origins fetched at the same instant queue behind
        // each other on the one upstream link.
        let a = origin(600);
        let b = CachedOrigin::new(&SessionStream {
            manifest: vec![0xCC; 196],
            payload: vec![0xDD; 600],
        });
        let mut proxy = CachingProxy::new(0, 256, 64, LinkProfile::wifi_backhaul());
        let (_, wait_a) = unwrap_deferred(proxy.resolve(&a, 0));
        let (_, wait_b) = unwrap_deferred(proxy.resolve(&b, 0));
        assert!(
            wait_b > wait_a,
            "second campaign queues behind the first: {wait_b} vs {wait_a}"
        );
    }

    #[test]
    fn tamper_covers_cache_served_responses() {
        let origin = origin(1_000);
        let mut proxy = CachingProxy::new(0, 256, 64, LinkProfile::wifi_backhaul());
        // Warm the cache honestly, then turn the proxy malicious: the
        // tampered serve comes entirely out of the cache.
        let (honest, wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        assert_eq!(honest, origin.direct_stream());
        let flipped = FrameTamper::FlipBit { offset: 300 };
        let (tampered, _) =
            unwrap_deferred(compromised(flipped, |_| proxy.resolve(&origin, wait + 1)));
        assert_eq!(
            counters(&proxy).proxy_cache_hits,
            u64::from(origin.blocks(256))
        );
        assert_ne!(tampered, origin.direct_stream());
        assert_ne!(tampered.payload, honest.payload);
    }

    #[test]
    fn poisoned_cache_entry_corrupts_the_served_stream() {
        let origin = origin(1_000);
        let mut proxy = CachingProxy::new(0, 256, 64, LinkProfile::wifi_backhaul());
        let (_, wait) = unwrap_deferred(proxy.resolve(&origin, 0));
        assert!(proxy.poison_block(origin.digest(), 1, |bytes| bytes[0] ^= 0x80));
        assert!(
            !proxy.poison_block(origin.digest(), 999, |_| {}),
            "uncached blocks cannot be poisoned"
        );
        let (poisoned, _) = unwrap_deferred(proxy.resolve(&origin, wait + 1));
        assert_ne!(poisoned, origin.direct_stream());
    }
}
