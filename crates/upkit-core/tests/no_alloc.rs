//! Proves the steady-state hot paths are allocation-free.
//!
//! A counting global allocator wraps the system allocator; each test runs
//! its setup (allocations welcome), snapshots the counter, drives many
//! iterations of the device hot path — block verify over flash, ECDSA
//! signature checks, bsdiff / block-diff / framed / LZSS application into
//! fixed buffers — and asserts the counter did not move. This is the executable form of the `no_std`
//! portability claim: a device can run these loops from static buffers
//! with no heap at all.
//!
//! The counter is per thread. Every measured loop runs on its test's own
//! thread, so allocations by sibling tests running concurrently under the
//! default parallel harness cannot land in a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use upkit_core::image::{read_firmware_chunks, FIRMWARE_OFFSET};
use upkit_core::verifier::FirmwareDigester;
use upkit_crypto::backend::{KeyRef, SecurityBackend, SecurityError, TinyCryptBackend};
use upkit_crypto::ecdsa::SigningKey;
use upkit_flash::{configuration_a, standard, FlashGeometry, MemoryLayout, SimFlash};

struct CountingAllocator;

thread_local! {
    // `const`-initialised and drop-free, so the allocator can touch it
    // without allocating or registering a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counting only touches a drop-free thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Negative control: the per-thread counter must see an allocation made
/// inside a measured window, or every zero below would prove nothing.
#[test]
fn counter_sees_one_allocation_in_a_window() {
    let before = allocations();
    let boxed = std::hint::black_box(Box::new(0xA5u64));
    assert_eq!(allocations() - before, 1, "one Box::new is one allocation");
    drop(boxed);
}

fn layout_with_firmware(fw: &[u8]) -> MemoryLayout {
    let mut layout = configuration_a(
        Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 32, 4096))),
        4096 * 16,
    )
    .unwrap();
    layout.erase_slot(standard::SLOT_A).unwrap();
    layout
        .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, fw)
        .unwrap();
    layout
}

fn sample_firmware(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn related_images() -> (Vec<u8>, Vec<u8>) {
    let old = sample_firmware(16_384);
    let mut new = old.clone();
    for i in (0..new.len()).step_by(97) {
        new[i] = new[i].wrapping_add(7);
    }
    new.extend_from_slice(&[0xA5; 300]);
    (old, new)
}

/// The bootloader/agent block-verify loop — chunked flash reads feeding the
/// SHA-256 digester — performs zero heap allocations once set up.
#[test]
fn block_verify_loop_is_allocation_free() {
    let fw = sample_firmware(20_000);
    let mut layout = layout_with_firmware(&fw);
    let expected = upkit_crypto::sha256::sha256(&fw);

    // Warm up once so any lazily-initialized state is paid for.
    let mut digester = FirmwareDigester::new();
    read_firmware_chunks(&mut layout, standard::SLOT_A, fw.len() as u32, 4096, |c| {
        digester.update(c)
    })
    .unwrap();
    assert_eq!(digester.finalize(), expected);

    let before = allocations();
    for _ in 0..16 {
        let mut digester = FirmwareDigester::new();
        read_firmware_chunks(&mut layout, standard::SLOT_A, fw.len() as u32, 4096, |c| {
            digester.update(c)
        })
        .unwrap();
        assert_eq!(digester.finalize(), expected);
    }
    assert_eq!(
        allocations() - before,
        0,
        "block-verify loop must not allocate"
    );
}

/// ECDSA-P256 signature checks through the software backend — accepting
/// and rejecting — perform zero heap allocations: the comb table for `G`
/// is static data and the wNAF digits and odd multiples of `Q` live on the
/// stack.
#[test]
fn ecdsa_verify_is_allocation_free() {
    let key = SigningKey::from_bytes(&[0x5C; 32]).unwrap();
    let public = key.verifying_key().to_sec1_bytes();
    let digests: Vec<[u8; 32]> = (0u8..4)
        .map(|i| upkit_crypto::sha256::sha256(&[i; 40]))
        .collect();
    let signatures: Vec<_> = digests.iter().map(|d| key.sign_prehashed(d)).collect();
    let backend = TinyCryptBackend;
    let key_ref = KeyRef::Sec1(&public);

    // Warm up once so any lazily-initialized state is paid for.
    backend
        .verify(key_ref, &digests[0], &signatures[0])
        .unwrap();

    let before = allocations();
    for _ in 0..4 {
        for (i, (digest, signature)) in digests.iter().zip(&signatures).enumerate() {
            assert_eq!(backend.verify(key_ref, digest, signature), Ok(()));
            let other = &signatures[(i + 1) % signatures.len()];
            assert_eq!(
                backend.verify(key_ref, digest, other),
                Err(SecurityError::BadSignature)
            );
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "signature checks must not allocate"
    );
}

/// Patch application into caller-provided buffers — bsdiff, block-diff,
/// and raw LZSS — performs zero heap allocations end to end.
#[test]
fn patch_apply_loop_is_allocation_free() {
    let (old, new) = related_images();

    let bsdiff_patch = upkit_delta::diff(&old, &new);
    let block_delta = upkit_delta::blockdiff::diff(&old, &new);
    let lzss = upkit_compress::compress(&new, upkit_compress::Params::default());

    let mut out = vec![0u8; new.len()];

    // Warm up each decoder once.
    assert_eq!(
        upkit_delta::patch_into(&old, &bsdiff_patch, &mut out).unwrap(),
        new.len()
    );
    assert_eq!(out, new);

    let before = allocations();
    for _ in 0..8 {
        out.fill(0);
        let n = upkit_delta::patch_into(&old, &bsdiff_patch, &mut out).unwrap();
        assert_eq!(&out[..n], &new[..]);

        out.fill(0);
        let n = upkit_delta::blockdiff::patch_into(&old, &block_delta, &mut out).unwrap();
        assert_eq!(&out[..n], &new[..]);

        out.fill(0);
        let n = upkit_compress::decompress_into(&lzss, &mut out).unwrap();
        assert_eq!(&out[..n], &new[..]);
    }
    assert_eq!(
        allocations() - before,
        0,
        "patch-apply loop must not allocate"
    );
}

/// The framed decoder allocates only at setup (the `Arc` around the old
/// image and the window directory, 13 bytes per window); the body loop —
/// per-window patchers, LZSS decompression through stack scratch — is
/// allocation-free even across window boundaries.
#[test]
fn framed_body_loop_is_allocation_free() {
    let (old, new) = related_images();

    // Small windows + compression so the steady-state loop crosses several
    // window boundaries and exercises the decompressor drain path.
    let options = upkit_delta::FramedDiffOptions {
        window_len: 4096,
        threads: 1,
        lzss: Some(upkit_compress::Params::default()),
    };
    let container = upkit_delta::framed_diff(&old, &new, &options);

    let window_count = u32::from_le_bytes(container[12..16].try_into().expect("4 bytes")) as usize;
    assert!(
        window_count >= 4,
        "want several windows, got {window_count}"
    );
    let body_start = upkit_delta::framed::FRAMED_HEADER_LEN
        + window_count * upkit_delta::framed::WINDOW_HEADER_LEN;

    let mut out = vec![0u8; new.len()];
    let mut sink = upkit_compress::FixedBuf::new(&mut out);
    let mut patcher = upkit_delta::FramedPatcher::with_budget(old.as_slice(), new.len() as u64);
    // Setup: header + directory (the patcher's only allocations).
    patcher.push(&container[..body_start], &mut sink).unwrap();

    let before = allocations();
    for chunk in container[body_start..].chunks(512) {
        patcher.push(chunk, &mut sink).unwrap();
    }
    patcher.finish().unwrap();
    assert_eq!(
        allocations() - before,
        0,
        "framed body loop must not allocate"
    );
    assert_eq!(sink.len(), new.len());
    assert_eq!(sink.as_slice(), &new[..]);
}
