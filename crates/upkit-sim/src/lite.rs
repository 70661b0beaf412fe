//! The lite device: the flash-free device model the fleet, campaign,
//! event, and mesh engines simulate at 10k–1M-device scale.
//!
//! A lite device runs the update agent's acceptance path without the
//! flash: its manifest step is the agent's [`Verifier`]
//! (`check_fields`, then `check_signatures`), and its payload step is the
//! agent's [`Decoder`] — decryption, container sniff, budgeted LZSS +
//! bspatch or framed patching, the exact-size check — writing into RAM
//! instead of a slot, followed by the digest check. Only the per-device
//! flash, the bootloader, and the agent's FSM trace are left out.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use upkit_core::agent::{AgentError, AgentPhase, AgentState};
use upkit_core::generation::{UpdateServer, VendorServer};
use upkit_core::image::FIRMWARE_OFFSET;
use upkit_core::keys::TrustAnchors;
use upkit_core::pipeline::{Decoder, VecSink};
use upkit_core::verifier::{Verifier, VerifyContext, VerifyError};
use upkit_crypto::backend::TinyCryptBackend;
use upkit_crypto::ecdsa::SigningKey;
use upkit_crypto::sha256::sha256;
use upkit_manifest::{DeviceToken, Manifest, SignedManifest, Version, SIGNED_MANIFEST_LEN};
use upkit_trace::Counters;

use crate::device::{first_nonce, next_nonce, slot_size_for, APP_ID, LINK_OFFSET};
use crate::firmware::FirmwareGenerator;

/// The v1→v2 world the rollout, campaign, event and mesh engines run:
/// both server keys drawn from the seed, then v1 and its OS-version change
/// published.
pub(crate) struct UpgradeWorld {
    /// The key stream, positioned after both keys (the single-shard
    /// rollout keeps drawing from it).
    pub(crate) rng: StdRng,
    pub(crate) vendor: VendorServer,
    pub(crate) server: UpdateServer,
    /// The image every device is provisioned with.
    pub(crate) v1: Vec<u8>,
}

impl UpgradeWorld {
    pub(crate) fn build(seed: u64, firmware_size: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        let generator = FirmwareGenerator::new(seed ^ 0xF00D);
        let v1 = generator.base(firmware_size);
        let v2 = generator.os_version_change(&v1);
        server.publish(vendor.release(v1.clone(), Version(1), LINK_OFFSET, APP_ID));
        server.publish(vendor.release(v2, Version(2), LINK_OFFSET, APP_ID));
        Self {
            rng,
            vendor,
            server,
            v1,
        }
    }
}

/// What one engine's lite devices check updates against: the trust
/// anchors, the differential base, and how manifests are bound.
pub(crate) struct LiteEnv {
    backend: TinyCryptBackend,
    anchors: TrustAnchors,
    /// The v1 image every device was provisioned with (the differential
    /// base).
    pub(crate) base_image: Vec<u8>,
    /// The firmware size a provisioned device's slot holds.
    max_size: u32,
    /// `true`: per-request manifests, checked against the device's id and
    /// its token nonce. `false`: broadcast manifests (zero token fields),
    /// checked against device id 0 with no nonce.
    device_bound: bool,
}

impl LiteEnv {
    pub(crate) fn new(world: &UpgradeWorld, device_bound: bool) -> Self {
        Self {
            backend: TinyCryptBackend,
            anchors: TrustAnchors::inline(
                &world.vendor.verifying_key(),
                &world.server.verifying_key(),
            ),
            base_image: world.v1.clone(),
            max_size: slot_size_for(world.v1.len()) - FIRMWARE_OFFSET,
            device_bound,
        }
    }
}

/// How a lite device's manifest step checks the two signatures.
pub(crate) enum SignatureCheck<'a> {
    /// Not checked (benchmarks isolating server-side cost).
    Skip,
    /// Checked on every manifest, uncounted (event and mesh devices).
    Uncounted,
    /// Checked on every manifest, charging two `sig_verifications`.
    Counted,
    /// Checked once per distinct manifest through the shard's memo.
    Memo(&'a mut VerifyMemo),
}

/// Signature verdicts keyed by the received 166-byte signed manifest, so
/// two byte-identical broadcast manifests verify once. Each shard owns
/// its own memo: the counter totals (`sig_verifications`,
/// `sig_verify_memo_hits`) stay a pure function of the configuration,
/// never of which thread raced first.
#[derive(Default)]
pub(crate) struct VerifyMemo {
    verdicts: HashMap<Vec<u8>, Result<(), VerifyError>>,
}

impl VerifyMemo {
    /// Checks `signed` (received as `wire`), consulting the memo first.
    /// Charges two `sig_verifications` on a miss (vendor + server
    /// signature) and two `sig_verify_memo_hits` on a hit.
    fn check(
        &mut self,
        verifier: &Verifier<'_>,
        signed: &SignedManifest,
        wire: &[u8],
        counters: &Counters,
    ) -> Result<(), VerifyError> {
        if let Some(&verdict) = self.verdicts.get(wire) {
            Counters::add(&counters.sig_verify_memo_hits, 2);
            return verdict;
        }
        Counters::add(&counters.sig_verifications, 2);
        let verdict = verifier.check_signatures(signed);
        self.verdicts.insert(wire.to_vec(), verdict);
        verdict
    }
}

/// Where a lite device is in receiving one update.
enum Transfer {
    /// Accumulating the signed manifest.
    Manifest(Vec<u8>),
    /// Manifest accepted: decoding the payload.
    Payload(Box<Payload>),
    /// Installed: the reconstructed image, kept until the next session.
    Installed(Vec<u8>),
}

struct Payload {
    manifest: Manifest,
    decoder: Decoder,
    image: Vec<u8>,
    received: u64,
}

/// A flash-free device running the agent's verifier and decoder.
pub(crate) struct LiteDevice {
    pub(crate) device_id: u32,
    nonce: u32,
    /// The version the device runs.
    pub(crate) installed: Version,
    supports_differential: bool,
    /// Completed installs (one per version step — the duplicate-install
    /// guard the duty-cycle tests pin).
    pub(crate) installs: u32,
    transfer: Transfer,
}

impl LiteDevice {
    pub(crate) fn new(device_id: u32, supports_differential: bool) -> Self {
        Self {
            device_id,
            nonce: first_nonce(device_id),
            installed: Version(1),
            supports_differential,
            installs: 0,
            transfer: Transfer::Manifest(Vec::new()),
        }
    }

    /// The next device token this device presents.
    pub(crate) fn next_token(&mut self) -> DeviceToken {
        self.nonce = next_nonce(self.nonce);
        DeviceToken {
            device_id: self.device_id,
            nonce: self.nonce,
            current_version: if self.supports_differential {
                self.installed
            } else {
                Version(0)
            },
        }
    }

    /// Discards any half-received update or kept image (a fresh session
    /// starts clean).
    pub(crate) fn reset_transfer(&mut self) {
        self.transfer = Transfer::Manifest(Vec::new());
    }

    /// The image the last session installed, until the next one starts.
    pub(crate) fn installed_image(&self) -> Option<&[u8]> {
        match &self.transfer {
            Transfer::Installed(image) => Some(image),
            _ => None,
        }
    }

    /// Accepts one link chunk, in the agent's order: the manifest region
    /// is accumulated and judged once complete, then payload chunks are
    /// decoded as they arrive and the firmware digest is checked after the
    /// last one. A chunk may span the boundary.
    pub(crate) fn deliver(
        &mut self,
        env: &LiteEnv,
        signatures: &mut SignatureCheck<'_>,
        counters: &Counters,
        mut chunk: &[u8],
    ) -> Result<AgentPhase, AgentError> {
        let mut phase = AgentPhase::NeedMore;
        if let Transfer::Manifest(buf) = &mut self.transfer {
            let take = (SIGNED_MANIFEST_LEN - buf.len()).min(chunk.len());
            buf.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if buf.len() < SIGNED_MANIFEST_LEN {
                return Ok(phase);
            }
            let wire = std::mem::take(buf);
            self.accept_manifest(env, signatures, counters, &wire)?;
            phase = AgentPhase::ManifestAccepted;
            if chunk.is_empty() {
                return Ok(phase);
            }
        }
        match self.accept_payload(env, counters, chunk)? {
            AgentPhase::NeedMore => Ok(phase),
            done => Ok(done),
        }
    }

    /// The manifest step: the agent's field checks, then its signature
    /// checks, then the decoder for the accepted manifest.
    fn accept_manifest(
        &mut self,
        env: &LiteEnv,
        signatures: &mut SignatureCheck<'_>,
        counters: &Counters,
        wire: &[u8],
    ) -> Result<(), AgentError> {
        let signed = SignedManifest::from_bytes(wire).map_err(|_| VerifyError::VendorSignature)?;
        let ctx = VerifyContext {
            device_id: if env.device_bound { self.device_id } else { 0 },
            expected_nonce: env.device_bound.then_some(self.nonce),
            installed_version: self.installed,
            supports_differential: self.supports_differential,
            app_id: APP_ID,
            allowed_link_offsets: vec![LINK_OFFSET],
            max_size: env.max_size,
        };
        let verifier = Verifier::new(&env.backend, &env.anchors);
        verifier.check_fields(&signed.manifest, &ctx)?;
        match signatures {
            SignatureCheck::Skip => {}
            SignatureCheck::Uncounted => verifier.check_signatures(&signed)?,
            SignatureCheck::Counted => {
                Counters::add(&counters.sig_verifications, 2);
                verifier.check_signatures(&signed)?;
            }
            SignatureCheck::Memo(memo) => memo.check(&verifier, &signed, wire, counters)?,
        }
        let manifest = signed.manifest;
        let decoder = if manifest.is_differential() {
            Decoder::differential(env.base_image.clone(), manifest.size)
        } else {
            Decoder::full(manifest.size)
        };
        self.transfer = Transfer::Payload(Box::new(Payload {
            manifest,
            decoder,
            image: Vec::with_capacity(manifest.size as usize),
            received: 0,
        }));
        Ok(())
    }

    /// The payload step: the agent's decoder into RAM, then the digest
    /// check once the declared payload has arrived.
    fn accept_payload(
        &mut self,
        env: &LiteEnv,
        counters: &Counters,
        chunk: &[u8],
    ) -> Result<AgentPhase, AgentError> {
        let Transfer::Payload(payload) = &mut self.transfer else {
            return Err(AgentError::WrongState(AgentState::ReadyToReboot));
        };
        let Payload {
            manifest,
            decoder,
            image,
            received,
        } = payload.as_mut();
        if *received + chunk.len() as u64 > u64::from(manifest.payload_size) {
            return Err(AgentError::TooMuchData);
        }
        let mut sink = VecSink { image, counters };
        decoder.push(chunk, &mut sink)?;
        *received += chunk.len() as u64;
        if *received < u64::from(manifest.payload_size) {
            return Ok(AgentPhase::NeedMore);
        }
        decoder.finish(&mut sink)?;
        Verifier::new(&env.backend, &env.anchors)
            .verify_firmware_digest(manifest, &sha256(sink.image))?;
        self.installed = manifest.version;
        self.installs += 1;
        self.transfer = Transfer::Installed(std::mem::take(sink.image));
        Ok(AgentPhase::Complete)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use proptest::prelude::*;
    use upkit_delta::PatchFormat;

    use super::*;

    const SEED: u64 = 0x11E7;
    const FIRMWARE: usize = 6_000;
    const DEVICE: u32 = 0x1000;

    /// The v2 image the world publishes (same generator, same seed).
    fn v2(world: &UpgradeWorld) -> Vec<u8> {
        FirmwareGenerator::new(SEED ^ 0xF00D).os_version_change(&world.v1)
    }

    /// Delivers `stream` in chunks cycling through `sizes`, stopping at
    /// the first error; returns the last phase or that error.
    fn deliver_all(
        device: &mut LiteDevice,
        env: &LiteEnv,
        signatures: &mut SignatureCheck<'_>,
        stream: &[u8],
        sizes: &[usize],
    ) -> Result<AgentPhase, AgentError> {
        let counters = Counters::default();
        let mut phase = AgentPhase::NeedMore;
        let mut rest = stream;
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            phase = device.deliver(env, signatures, &counters, chunk)?;
            rest = tail;
        }
        Ok(phase)
    }

    #[test]
    fn installs_the_exact_v2_image_from_raw_and_framed_containers() {
        for format in [PatchFormat::Raw, PatchFormat::Framed] {
            let mut world = UpgradeWorld::build(SEED, FIRMWARE);
            world.server.set_patch_format(format);
            let env = LiteEnv::new(&world, true);
            let mut device = LiteDevice::new(DEVICE, true);
            let prepared = world.server.prepare_update(&device.next_token()).unwrap();
            let payload = &prepared.image.payload;
            assert!(prepared.image.signed_manifest.manifest.is_differential());
            assert_eq!(
                PatchFormat::detect(payload) == Some(PatchFormat::Framed),
                format == PatchFormat::Framed,
                "{format:?} container"
            );
            let phase = deliver_all(
                &mut device,
                &env,
                &mut SignatureCheck::Counted,
                &prepared.image.to_bytes(),
                &[64],
            );
            assert_eq!(phase, Ok(AgentPhase::Complete), "{format:?}");
            assert_eq!(device.installed, Version(2));
            assert!(
                device.installed_image() == Some(v2(&world).as_slice()),
                "{format:?}: installed a different image"
            );
        }
    }

    #[test]
    fn a_patch_for_another_base_is_a_typed_rejection() {
        let world = UpgradeWorld::build(SEED, FIRMWARE);
        let env = LiteEnv::new(&world, false);
        let stream = world.server.prepare_campaign_update(Version(1)).unwrap();
        let mut device = LiteDevice::new(DEVICE, true);
        device.installed = Version(0);
        let result = deliver_all(
            &mut device,
            &env,
            &mut SignatureCheck::Uncounted,
            &stream.image.to_bytes(),
            &[SIGNED_MANIFEST_LEN],
        );
        assert_eq!(
            result,
            Err(AgentError::Verify(VerifyError::WrongOldVersion))
        );
    }

    /// One world, its v2 image, and the honest stream for each binding:
    /// the per-request response to the first token of device `DEVICE`,
    /// and the broadcast response for v1.
    struct Fixture {
        bound: LiteEnv,
        broadcast: LiteEnv,
        v2: Vec<u8>,
        per_request: Vec<u8>,
        campaign: Vec<u8>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let world = UpgradeWorld::build(SEED, FIRMWARE);
            let token = LiteDevice::new(DEVICE, true).next_token();
            Fixture {
                bound: LiteEnv::new(&world, true),
                broadcast: LiteEnv::new(&world, false),
                v2: v2(&world),
                per_request: world
                    .server
                    .prepare_update(&token)
                    .unwrap()
                    .image
                    .to_bytes(),
                campaign: world
                    .server
                    .prepare_campaign_update(Version(1))
                    .unwrap()
                    .image
                    .to_bytes(),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The never-accept property on the lite device the fleet,
        /// campaign, event, and mesh engines run: an honest stream with
        /// one bit flipped anywhere, or cut at any length, and delivered
        /// in random chunk sizes, either installs the byte-identical v2
        /// image or leaves the device on v1 — with a typed error, or (cut
        /// streams only) still waiting for the rest.
        #[test]
        fn a_flipped_or_cut_stream_installs_v2_exactly_or_nothing(
            device_bound in any::<bool>(),
            cut in any::<bool>(),
            at in any::<usize>(),
            bit in 0u8..8,
            sizes in proptest::collection::vec(1usize..400, 1..24),
        ) {
            let fixture = fixture();
            let (env, honest) = if device_bound {
                (&fixture.bound, &fixture.per_request)
            } else {
                (&fixture.broadcast, &fixture.campaign)
            };
            let mut stream = honest.clone();
            if cut {
                stream.truncate(at % (stream.len() + 1));
            } else {
                let at = at % stream.len();
                stream[at] ^= 1 << bit;
            }

            let mut memo = VerifyMemo::default();
            let mut signatures = if device_bound {
                SignatureCheck::Counted
            } else {
                SignatureCheck::Memo(&mut memo)
            };
            let mut device = LiteDevice::new(DEVICE, true);
            device.next_token();
            match deliver_all(&mut device, env, &mut signatures, &stream, &sizes) {
                Ok(AgentPhase::Complete) => {
                    prop_assert_eq!(device.installed, Version(2));
                    prop_assert!(
                        device.installed_image() == Some(fixture.v2.as_slice()),
                        "installed an image other than v2"
                    );
                }
                outcome => {
                    prop_assert!(
                        outcome.is_err() || (cut && stream.len() < honest.len()),
                        "an uncut stream must install or fail: {outcome:?}"
                    );
                    prop_assert_eq!(device.installed, Version(1));
                    prop_assert_eq!(device.installs, 0);
                    prop_assert!(device.installed_image().is_none());
                }
            }
        }
    }
}
