//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use upkit::compress::{compress, decompress, Params};
use upkit::crypto::p256::{AffinePoint, FieldElement, Scalar};
use upkit::crypto::u256::U256;
use upkit::delta::{diff, framed_diff, patch, patch_framed, FramedDiffOptions};
use upkit::flash::{FlashDevice, FlashGeometry, SimFlash};
use upkit::manifest::{DeviceToken, Manifest, Version};

// --- LZSS -------------------------------------------------------------------

proptest! {
    #[test]
    fn lzss_round_trips_any_input(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let packed = compress(&data, Params::default());
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_round_trips_every_window(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        bits in 8u8..=13,
    ) {
        let packed = compress(&data, Params::new(bits).unwrap());
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn lzss_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..512,
    ) {
        let packed = compress(&data, Params::default());
        let mut decoder = upkit::compress::Decompressor::new();
        let mut out = Vec::new();
        for piece in packed.chunks(chunk) {
            decoder.push(piece, &mut out).unwrap();
        }
        decoder.finish().unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn lzss_rejects_truncation(data in proptest::collection::vec(any::<u8>(), 64..1024), cut in 1usize..32) {
        let packed = compress(&data, Params::default());
        let keep = packed.len().saturating_sub(cut).max(1);
        let mut decoder = upkit::compress::Decompressor::new();
        let mut out = Vec::new();
        // Either a mid-stream error or a truncation error at finish.
        if decoder.push(&packed[..keep], &mut out).is_ok() {
            prop_assert!(decoder.finish().is_err() || keep == packed.len());
        }
    }
}

// --- bsdiff -----------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bsdiff_round_trips_any_pair(
        old in proptest::collection::vec(any::<u8>(), 0..2048),
        new in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let delta = diff(&old, &new);
        prop_assert_eq!(patch(&old, &delta).unwrap(), new);
    }

    #[test]
    fn bsdiff_round_trips_related_pair(
        base in proptest::collection::vec(any::<u8>(), 256..2048),
        edit_at in 0usize..256,
        edit in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut new = base.clone();
        let at = edit_at.min(new.len() - 1);
        for (i, b) in edit.iter().enumerate() {
            if at + i < new.len() {
                new[at + i] = *b;
            }
        }
        let delta = diff(&base, &new);
        prop_assert_eq!(patch(&base, &delta).unwrap(), new);
    }

    #[test]
    fn lzss_of_bsdiff_round_trips(
        base in proptest::collection::vec(any::<u8>(), 256..1500),
        tweak in any::<u8>(),
    ) {
        // The composed pipeline transform: lzss(bsdiff) then inverse.
        let mut new = base.clone();
        let mid = new.len() / 2;
        new[mid] ^= tweak;
        let wire = compress(&diff(&base, &new), Params::default());
        let raw = decompress(&wire).unwrap();
        prop_assert_eq!(patch(&base, &raw).unwrap(), new);
    }

    #[test]
    fn framed_patch_equals_monolithic_raw_patch(
        old in proptest::collection::vec(any::<u8>(), 0..2048),
        new in proptest::collection::vec(any::<u8>(), 0..2048),
        window_len in 1usize..600,
        threads in 1usize..5,
    ) {
        // The framed container must reconstruct exactly what the Raw path
        // does, for any window size and any worker count.
        let raw_out = patch(&old, &diff(&old, &new)).unwrap();
        let options = FramedDiffOptions::default()
            .with_window_len(window_len)
            .with_threads(threads);
        let container = framed_diff(&old, &new, &options);
        prop_assert_eq!(&container, &framed_diff(&old, &new,
            &FramedDiffOptions::default().with_window_len(window_len)));
        let framed_out = patch_framed(&old, &container).unwrap();
        prop_assert_eq!(&framed_out, &raw_out);
        prop_assert_eq!(framed_out, new);
    }
}

proptest! {
    // Signing makes each case expensive; fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cached_patches_equal_fresh_computation(
        old in proptest::collection::vec(any::<u8>(), 256..2048),
        edit in proptest::collection::vec(any::<u8>(), 1..128),
        at in 0usize..256,
        framed in any::<bool>(),
    ) {
        use rand::SeedableRng;
        use upkit::core::generation::{UpdateServer, VendorServer};
        use upkit::crypto::ecdsa::SigningKey;
        use upkit::delta::PatchFormat;

        // Two identically-seeded servers, one warmed through its
        // content-addressed cache, one answering fresh: the wire images
        // must match byte for byte for any image pair and either format.
        let mut new = old.clone();
        let at = at.min(old.len() - 1);
        let end = (at + edit.len()).min(new.len());
        new[at..end].copy_from_slice(&edit[..end - at]);

        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(505);
            let vendor = VendorServer::new(SigningKey::generate(&mut rng));
            let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
            if framed {
                server.set_patch_format(PatchFormat::Framed);
            }
            server.publish(vendor.release(old.clone(), Version(1), 0, 0xA));
            server.publish(vendor.release(new.clone(), Version(2), 0, 0xA));
            server
        };
        let token = DeviceToken { device_id: 7, nonce: 9, current_version: Version(1) };
        let warmed = build();
        let first = warmed.prepare_update(&token).unwrap();
        let hit = warmed.prepare_update(&token).unwrap();
        let fresh = build().prepare_update(&token).unwrap();
        prop_assert_eq!(first.image.to_bytes(), hit.image.to_bytes());
        prop_assert_eq!(hit.image.to_bytes(), fresh.image.to_bytes());
    }
}

// --- U256 / field arithmetic --------------------------------------------------

fn u256_strategy() -> impl Strategy<Value = U256> {
    proptest::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

proptest! {
    #[test]
    fn u256_byte_round_trip(v in u256_strategy()) {
        prop_assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn u256_add_sub_inverse(a in u256_strategy(), b in u256_strategy()) {
        let (sum, _) = a.adc(&b);
        let (diff, _) = sum.sbb(&b);
        prop_assert_eq!(diff, a);
    }

    #[test]
    fn u256_small_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let wide = U256::from_u64(a).mul_wide(&U256::from_u64(b));
        let expected = u128::from(a) * u128::from(b);
        prop_assert_eq!(wide[0], expected as u64);
        prop_assert_eq!(wide[1], (expected >> 64) as u64);
        prop_assert_eq!(&wide[2..], &[0u64; 6][..]);
    }

    #[test]
    fn u256_reduce_mod_matches_u128(v in any::<u128>(), m in 1u64..) {
        let reduced = U256::from_limbs([v as u64, (v >> 64) as u64, 0, 0])
            .reduce_mod(&U256::from_u64(m));
        let expected = v % u128::from(m);
        prop_assert_eq!(reduced, U256::from_limbs([expected as u64, (expected >> 64) as u64, 0, 0]));
    }

    #[test]
    fn p256_field_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let fa = FieldElement::from_u64(a);
        let fb = FieldElement::from_u64(b);
        let fc = FieldElement::from_u64(c);
        prop_assert_eq!(fa.mul(&fb), fb.mul(&fa));
        prop_assert_eq!(fa.add(&fb).mul(&fc), fa.mul(&fc).add(&fb.mul(&fc)));
        prop_assert_eq!(fa.sub(&fa), FieldElement::zero());
    }

    #[test]
    fn p256_field_inverse(a in 1u64..) {
        let fa = FieldElement::from_u64(a);
        let inv = fa.invert().unwrap();
        prop_assert_eq!(fa.mul(&inv), FieldElement::one());
    }

    #[test]
    fn p256_scalar_inverse(a in 1u64..) {
        let sa = Scalar::from_u64(a);
        let inv = sa.invert().unwrap();
        prop_assert_eq!(sa.mul(&inv), Scalar::one());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn p256_scalar_mul_group_law(k1 in 1u64..1_000_000, k2 in 1u64..1_000_000) {
        // (k1 + k2)·G == k1·G + k2·G
        let g = AffinePoint::generator().to_jacobian();
        let lhs = g.mul_scalar(&U256::from_u64(k1 + k2)).to_affine();
        let rhs = g
            .mul_scalar(&U256::from_u64(k1))
            .add(&g.mul_scalar(&U256::from_u64(k2)))
            .to_affine();
        prop_assert_eq!(lhs, rhs);
        prop_assert!(lhs.is_on_curve());
    }

    #[test]
    fn ecdsa_round_trip_arbitrary_messages(
        seed in any::<u64>(),
        message in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use rand::SeedableRng;
        let key = upkit::crypto::SigningKey::generate(
            &mut rand::rngs::StdRng::seed_from_u64(seed),
        );
        let sig = key.sign(&message);
        prop_assert!(key.verifying_key().verify(&message, &sig).is_ok());
        // A different message must not verify.
        let mut other = message.clone();
        other.push(0x55);
        prop_assert!(key.verifying_key().verify(&other, &sig).is_err());
    }
}

// --- Manifest formats ----------------------------------------------------------

proptest! {
    #[test]
    fn manifest_round_trips(
        device_id in any::<u32>(),
        nonce in any::<u32>(),
        old_version in any::<u16>(),
        version in any::<u16>(),
        size in any::<u32>(),
        payload_size in any::<u32>(),
        digest in proptest::array::uniform32(any::<u8>()),
        link_offset in any::<u32>(),
        app_id in any::<u32>(),
    ) {
        let m = Manifest {
            device_id,
            nonce,
            old_version: Version(old_version),
            version: Version(version),
            size,
            payload_size,
            digest,
            link_offset,
            app_id,
        };
        prop_assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn device_token_round_trips(id in any::<u32>(), nonce in any::<u32>(), v in any::<u16>()) {
        let token = DeviceToken {
            device_id: id,
            nonce,
            current_version: Version(v),
        };
        prop_assert_eq!(DeviceToken::from_bytes(&token.to_bytes()).unwrap(), token);
    }
}

// --- Flash invariants -------------------------------------------------------------

#[derive(Debug, Clone)]
enum FlashOp {
    Write { addr: u16, data: Vec<u8> },
    Erase { addr: u16 },
}

fn flash_op_strategy() -> impl Strategy<Value = FlashOp> {
    prop_oneof![
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(addr, data)| FlashOp::Write { addr, data }),
        any::<u16>().prop_map(|addr| FlashOp::Erase { addr }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flash_matches_reference_model(ops in proptest::collection::vec(flash_op_strategy(), 0..40)) {
        // Reference: a byte array with AND-write and sector-erase applied
        // only when the real device accepted the operation.
        let geometry = FlashGeometry::untimed(4096 * 4, 4096);
        let mut flash = SimFlash::new(geometry);
        flash.set_strict_program(false); // model the AND semantics directly
        let mut model = vec![0xFFu8; geometry.size as usize];

        for op in ops {
            match op {
                FlashOp::Write { addr, data } => {
                    let addr = u32::from(addr) % geometry.size;
                    let ok = flash.write(addr, &data).is_ok();
                    if ok {
                        for (i, b) in data.iter().enumerate() {
                            model[addr as usize + i] &= b;
                        }
                    }
                }
                FlashOp::Erase { addr } => {
                    let addr = u32::from(addr) % geometry.size;
                    if flash.erase_sector(addr).is_ok() {
                        let start = (addr / geometry.sector_size * geometry.sector_size) as usize;
                        model[start..start + geometry.sector_size as usize].fill(0xFF);
                    }
                }
            }
        }

        let mut contents = vec![0u8; geometry.size as usize];
        flash.read(0, &mut contents).unwrap();
        prop_assert_eq!(contents, model);
    }
}

// --- End-to-end property ------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arbitrary_firmware_updates_end_to_end(
        firmware in proptest::collection::vec(any::<u8>(), 1..6000),
        chunk in 1usize..512,
        seed in any::<u64>(),
    ) {
        use std::sync::Arc;
        use rand::SeedableRng;
        use upkit::core::agent::{AgentConfig, AgentPhase, UpdateAgent, UpdatePlan};
        use upkit::core::generation::{UpdateServer, VendorServer};
        use upkit::core::image::FIRMWARE_OFFSET;
        use upkit::core::keys::TrustAnchors;
        use upkit::crypto::backend::TinyCryptBackend;
        use upkit::crypto::ecdsa::SigningKey;
        use upkit::flash::{configuration_a, standard, SimFlash};

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let mut server = UpdateServer::new(SigningKey::generate(&mut rng));
        server.publish(vendor.release(firmware.clone(), Version(2), 0, 1));
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());

        let slot_size = 4096 * 4;
        let mut layout = configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
            slot_size,
        )
        .unwrap();
        let mut agent = UpdateAgent::new(
            Arc::new(TinyCryptBackend),
            anchors,
            AgentConfig { device_id: 1, app_id: 1, supports_differential: false, content_key: None },
        );
        let plan = UpdatePlan {
            target_slot: standard::SLOT_B,
            current_slot: standard::SLOT_A,
            installed_version: Version(1),
            installed_size: 0,
            allowed_link_offsets: vec![0],
            max_firmware_size: slot_size - FIRMWARE_OFFSET,
        };
        let token = agent.request_device_token(&mut layout, plan, seed as u32).unwrap();
        let prepared = server.prepare_update(&token).unwrap();
        let wire = prepared.image.to_bytes();
        let mut last = AgentPhase::NeedMore;
        for piece in wire.chunks(chunk) {
            last = agent.push_data(&mut layout, piece).unwrap();
        }
        prop_assert_eq!(last, AgentPhase::Complete);
        let mut stored = vec![0u8; firmware.len()];
        layout.read_slot(standard::SLOT_B, FIRMWARE_OFFSET, &mut stored).unwrap();
        prop_assert_eq!(stored, firmware);
    }
}

// --- Agent FSM robustness --------------------------------------------------------

#[derive(Debug, Clone)]
enum AgentOp {
    RequestToken(u32),
    PushData(Vec<u8>),
    Reset,
}

fn agent_op_strategy() -> impl Strategy<Value = AgentOp> {
    prop_oneof![
        any::<u32>().prop_map(AgentOp::RequestToken),
        proptest::collection::vec(any::<u8>(), 1..512).prop_map(AgentOp::PushData),
        Just(AgentOp::Reset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever operations arrive in whatever order — garbage data, token
    /// requests mid-session, resets — the FSM never panics and always ends
    /// an operation in a well-defined state: errors land in `Cleaning`,
    /// successes in a receiving or terminal state, and `reset` always
    /// returns to `Waiting`.
    #[test]
    fn agent_fsm_never_panics_under_arbitrary_operations(
        ops in proptest::collection::vec(agent_op_strategy(), 0..24),
        seed in any::<u64>(),
    ) {
        use std::sync::Arc;
        use rand::SeedableRng;
        use upkit::core::agent::{AgentConfig, AgentState, UpdateAgent, UpdatePlan};
        use upkit::core::generation::{UpdateServer, VendorServer};
        use upkit::core::image::FIRMWARE_OFFSET;
        use upkit::core::keys::TrustAnchors;
        use upkit::crypto::backend::TinyCryptBackend;
        use upkit::crypto::ecdsa::SigningKey;
        use upkit::flash::{configuration_a, standard, SimFlash};
        use upkit::manifest::Version;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vendor = VendorServer::new(SigningKey::generate(&mut rng));
        let server = UpdateServer::new(SigningKey::generate(&mut rng));
        let anchors = TrustAnchors::inline(&vendor.verifying_key(), &server.verifying_key());
        let slot_size = 4096 * 4;
        let mut layout = configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 16, 4096))),
            slot_size,
        )
        .unwrap();
        let mut agent = UpdateAgent::new(
            Arc::new(TinyCryptBackend),
            anchors,
            AgentConfig { device_id: 1, app_id: 1, supports_differential: true, content_key: None },
        );

        for op in ops {
            match op {
                AgentOp::RequestToken(nonce) => {
                    let plan = UpdatePlan {
                        target_slot: standard::SLOT_B,
                        current_slot: standard::SLOT_A,
                        installed_version: Version(1),
                        installed_size: 0,
                        allowed_link_offsets: vec![0],
                        max_firmware_size: slot_size - FIRMWARE_OFFSET,
                    };
                    let was_waiting = agent.state() == AgentState::Waiting;
                    match agent.request_device_token(&mut layout, plan, nonce) {
                        Ok(token) => {
                            prop_assert!(was_waiting);
                            prop_assert_eq!(token.nonce, nonce);
                            prop_assert_eq!(agent.state(), AgentState::ReceiveManifest);
                        }
                        Err(_) => prop_assert!(!was_waiting),
                    }
                }
                AgentOp::PushData(data) => {
                    match agent.push_data(&mut layout, &data) {
                        Ok(_) => prop_assert!(matches!(
                            agent.state(),
                            AgentState::ReceiveManifest
                                | AgentState::ReceiveFirmware
                                | AgentState::ReadyToReboot
                        )),
                        // Any failure — bad state, garbage manifest — must
                        // land in Cleaning, the state reset recovers from.
                        Err(_) => prop_assert_eq!(agent.state(), AgentState::Cleaning),
                    }
                }
                AgentOp::Reset => {
                    agent.reset(&mut layout).unwrap();
                    prop_assert_eq!(agent.state(), AgentState::Waiting);
                }
            }
        }
    }
}

// --- Parser robustness: arbitrary bytes must never panic -------------------------

proptest! {
    #[test]
    fn wire_parsers_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        use upkit::manifest::{DeviceToken, Manifest, SignedManifest, UpdateImage};
        let _ = Manifest::from_bytes(&data);
        let _ = DeviceToken::from_bytes(&data);
        let _ = SignedManifest::from_bytes(&data);
        let _ = UpdateImage::from_bytes(&data);
        let _ = upkit::manifest::cbor::decode(&data);
        let _ = upkit::manifest::suit::from_suit_envelope(&data);
        let _ = upkit::crypto::Signature::from_bytes(&data);
        let _ = upkit::crypto::VerifyingKey::from_sec1_bytes(&data);
        let _ = upkit::crypto::p256::AffinePoint::from_sec1_compressed(&data);
    }

    #[test]
    fn stream_decoders_never_panic_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        chunk in 1usize..128,
    ) {
        // LZSS decoder.
        let mut decoder = upkit::compress::Decompressor::new();
        let mut out = Vec::new();
        for piece in data.chunks(chunk) {
            if decoder.push(piece, &mut out).is_err() {
                break;
            }
        }
        let _ = decoder.finish();

        // bspatch against a fixed old image.
        let old = vec![0x5Au8; 256];
        let mut patcher = upkit::delta::StreamPatcher::new(old.as_slice());
        let mut out = Vec::new();
        for piece in data.chunks(chunk) {
            if patcher.push(piece, &mut out).is_err() {
                break;
            }
        }
        let _ = patcher.finish();
    }

    #[test]
    fn compressed_point_round_trip_for_valid_points(k in 1u64..100_000) {
        use upkit::crypto::p256::AffinePoint;
        use upkit::crypto::u256::U256;
        let p = AffinePoint::generator()
            .to_jacobian()
            .mul_scalar(&U256::from_u64(k))
            .to_affine();
        let parsed = AffinePoint::from_sec1_compressed(&p.to_sec1_compressed()).unwrap();
        prop_assert_eq!(parsed, p);
    }
}

// --- Delta engine: suffix-array constructions and context reuse -----------------

/// The suffix array by plain sorting: the oracle SA-IS is checked against.
fn naive_suffix_array(data: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..data.len() as u32).collect();
    sa.sort_by(|&a, &b| data[a as usize..].cmp(&data[b as usize..]));
    sa
}

proptest! {
    #[test]
    fn sais_equals_naive_sort_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        use upkit::delta::suffix::SuffixArray;
        let sais = SuffixArray::build(&data);
        prop_assert_eq!(sais.offsets(), naive_suffix_array(&data).as_slice());
    }

    #[test]
    fn sais_equals_naive_sort_on_repetitive_inputs(
        data in proptest::collection::vec(0u8..4, 0..1024),
    ) {
        // Tiny alphabets maximize LMS-substring collisions, forcing the
        // SA-IS recursion that random bytes almost never exercise.
        use upkit::delta::suffix::SuffixArray;
        let sais = SuffixArray::build(&data);
        prop_assert_eq!(sais.offsets(), naive_suffix_array(&data).as_slice());
    }

    #[test]
    fn delta_context_diff_equals_plain_diff(
        old in proptest::collection::vec(any::<u8>(), 0..2048),
        new in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        use upkit::delta::DeltaContext;
        let plain = diff(&old, &new);
        let context = DeltaContext::new(&old);
        prop_assert_eq!(&context.diff(&old, &new), &plain);
        prop_assert_eq!(
            context.suffix_array().offsets(),
            naive_suffix_array(&old).as_slice()
        );
        prop_assert_eq!(patch(&old, &plain).unwrap(), new);
    }
}

// --- Parallel generation: byte-identical to sequential for every profile --------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn parallel_generation_matches_sequential_for_every_os_profile(
        seed in any::<u64>(),
        change in 64usize..512,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use upkit::core::generation::{UpdateServer, VendorServer};
        use upkit::core::ParallelGenerator;
        use upkit::crypto::ecdsa::SigningKey;
        use upkit::sim::{FirmwareGenerator, PlatformProfile};

        for (index, profile) in PlatformProfile::all().into_iter().enumerate() {
            let index = index as u64;
            let mut rng = StdRng::seed_from_u64(seed ^ (0xA11 + index));
            let vendor = VendorServer::new(SigningKey::generate(&mut rng));
            let server_key = SigningKey::generate(&mut rng);

            // Firmware sized per board so each profile diffs a different image.
            let firmware_size = 4096 + 1024 * index as usize;
            let generator = FirmwareGenerator::new(seed ^ index);
            let base = generator.base(firmware_size);
            let v1 = vendor.release(base.clone(), Version(1), 0, 0xF1);
            let v2 = vendor.release(
                generator.app_change(&base, change),
                Version(2),
                0,
                0xF1,
            );

            let mut sequential_server = UpdateServer::new(server_key.clone());
            sequential_server.publish(v1.clone());
            sequential_server.publish(v2.clone());
            let mut parallel_server = UpdateServer::new(server_key.clone());
            parallel_server.publish(v1);
            parallel_server.publish(v2);

            let tokens: Vec<DeviceToken> = (0..4u32)
                .map(|device| DeviceToken {
                    device_id: 0x4000 + device,
                    nonce: (seed as u32 ^ device).wrapping_mul(0x9E37_79B9) | 1,
                    // Device 3 advertises no installed version: full update path.
                    current_version: Version(u16::from(device != 3)),
                })
                .collect();

            let sequential: Vec<Vec<u8>> = tokens
                .iter()
                .map(|token| {
                    sequential_server
                        .prepare_update(token)
                        .expect("campaign serves all")
                        .image
                        .to_bytes()
                })
                .collect();
            let parallel: Vec<Vec<u8>> = ParallelGenerator::with_threads(&parallel_server, 4)
                .prepare_updates(&tokens)
                .into_iter()
                .map(|p| p.expect("campaign serves all").image.to_bytes())
                .collect();
            prop_assert_eq!(&parallel, &sequential, "profile {}", profile.name);
        }
    }
}
