//! Pins the heap the suffix-array construction needs at the update
//! server's image size: at most 8 bytes per input byte, the 4 bytes per
//! byte of the answer included, on 128 KiB of firmware-like bytes, random
//! bytes and LCG text at 1, 2 and 8 bits per byte.
//!
//! A counting global allocator wraps the system allocator and tracks the
//! calling thread's live heap bytes and their peak. Each measurement runs
//! on its test's own thread, so allocations by sibling tests running
//! concurrently under the default parallel harness cannot land in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use upkit_delta::sais::suffix_array;

/// The server's base image size.
const IMAGE: usize = 128 * 1024;

struct CountingAllocator;

thread_local! {
    // `const`-initialised and drop-free, so the allocator can touch them
    // without allocating or registering a destructor. Live bytes can dip
    // below zero when a thread frees what another allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE.with(|live| {
        live.set(live.get() + bytes as isize);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counting only touches drop-free thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as if the old and the new block were both live, as they
        // are when the block moves.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The calling thread's peak heap above its live bytes at the start of
/// `f`, with what `f` returns still live.
fn peak_heap<T>(f: impl FnOnce() -> T) -> usize {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let kept = f();
    let peak = PEAK.with(Cell::get) - start;
    drop(kept);
    peak.max(0) as usize
}

/// Negative control: the counter sees a buffer of `IMAGE` `u32`s, or every
/// bound below would prove nothing.
#[test]
fn counter_sees_a_buffer_of_the_answer_size() {
    let peak = peak_heap(|| std::hint::black_box(vec![1u32; IMAGE]));
    assert_eq!(peak, 4 * IMAGE);
}

/// An xorshift64 stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A firmware-like image: a repeated string table (~10 %), then 256-byte
/// code blocks drawn from a pool of 64 random ones, every 32nd byte of
/// each copy nudged by 0–3, as relocations do.
fn firmware(len: usize) -> Vec<u8> {
    let mut next = xorshift(0xF1A5_4C0D);
    let mut out = Vec::with_capacity(len);
    while out.len() < len / 10 {
        out.extend_from_slice(b"assertion failed: %s:%d | fw=%u build=%s | ");
    }
    let pool: Vec<Vec<u8>> = (0..64)
        .map(|_| (0..256).map(|_| next() as u8).collect())
        .collect();
    while out.len() < len {
        let mut block = pool[(next() % 64) as usize].clone();
        for byte in block.iter_mut().step_by(32) {
            *byte = byte.wrapping_add((next() % 4) as u8);
        }
        let take = block.len().min(len - out.len());
        out.extend_from_slice(&block[..take]);
    }
    out
}

/// LCG text keeping the top `bits` bits of each state.
fn lcg(len: usize, bits: u32, seed: u32) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> (32 - bits)) as u8
        })
        .collect()
}

#[test]
fn construction_peak_heap_is_at_most_eight_bytes_per_input_byte() {
    let mut random = xorshift(0x5EED_0001);
    let inputs = [
        ("firmware", firmware(IMAGE)),
        ("random", (0..IMAGE).map(|_| random() as u8).collect()),
        ("lcg 1 bit", lcg(IMAGE, 1, 11)),
        ("lcg 2 bits", lcg(IMAGE, 2, 13)),
        ("lcg 8 bits", lcg(IMAGE, 8, 17)),
    ];
    let mut over = Vec::new();
    for (name, data) in &inputs {
        let peak = peak_heap(|| suffix_array(data));
        let per_byte = peak as f64 / data.len() as f64;
        eprintln!("{name}: peak heap {peak} bytes, {per_byte:.2} per input byte");
        if peak > 8 * data.len() {
            over.push(format!("{name} ({per_byte:.2} per byte)"));
        }
    }
    assert!(
        over.is_empty(),
        "SA-IS peaked over 8 heap bytes per input byte on {}",
        over.join(", ")
    );
}
