//! Adversarial-input explorer for UpKit's untrusted-byte surfaces.
//!
//! The paper's threat model (Sect. III) grants the attacker full control
//! of the proxy path: a compromised smartphone or gateway can corrupt,
//! truncate, reorder, replay, or fabricate anything it forwards — it only
//! cannot forge signatures. The crash-consistency explorer (`upkit-chaos`)
//! proves the device survives *power*; this crate proves it survives
//! *bytes*. Every input a device ever parses from the outside world is a
//! mutation surface:
//!
//! | Surface | Decoder under attack |
//! |---|---|
//! | [`MutationClass::Suit`] | SUIT/CBOR envelope → `from_suit_envelope` |
//! | [`MutationClass::ManifestWire`] | signed-manifest wire → `SignedManifest::from_bytes` |
//! | [`MutationClass::ComponentTable`] | multi-payload commit record → `SignedMultiManifest::from_bytes` + dual-signature verify |
//! | [`MutationClass::BlockDiff`] | block-diff delta → `blockdiff::patch_with_budget` |
//! | [`MutationClass::StreamDelta`] | bsdiff stream → `StreamPatcher` |
//! | [`MutationClass::FramedDelta`] | framed patch container → `FramedPatcher` |
//! | [`MutationClass::Lzss`] | LZSS stream → `decompress_with_budget` |
//! | [`MutationClass::FrameCorrupt`]..[`MutationClass::FrameDrop`] | one live link frame via [`FrameAdversary`] |
//! | [`MutationClass::DowngradeReplay`] | whole-stream replay of a stale/foreign package |
//! | [`MutationClass::CachePoison`] | one poisoned block in a warm gateway block cache, served to a fan-out of downstream devices |
//!
//! Each case runs the real acceptance path inside a panic-catching,
//! budget-checked harness and asserts the three-part invariant:
//!
//! 1. **Never accept** — the device either installs a byte-identical
//!    valid update or returns a typed rejection; anything else charges
//!    the `forgeries_accepted` counter (pinned to zero in CI).
//! 2. **Never panic** — no mutated input may unwind any decoder or the
//!    agent/pipeline/bootloader path.
//! 3. **Bounded memory** — no decoder output (and, via the hardened
//!    decoders, no pre-allocation) may exceed a budget derived from the
//!    target slot size; budget rejections charge `decode_overruns`.
//!
//! Session-surface cases additionally re-check the never-brick
//! invariant: the device must still `boot_to_fixed_point` afterwards.
//!
//! Exploration runs on the harness in [`upkit_sim::explore`], which the
//! crash-consistency explorer shares: the never-brick check, the case
//! fan-out (each case charges a private tracer, merged in case order, so
//! reports and trace bytes are identical for any thread count), and the
//! shrinker. Violations shrink to the smallest failing mutation index and
//! emit a one-line `adversary_explore --repro` command.

#![warn(missing_docs)]

use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};

use upkit_compress::LzssError;
use upkit_core::agent::{AgentError, AgentPhase, UpdatePlan};
use upkit_core::components::check_record_signatures;
use upkit_core::keys::TrustAnchors;
use upkit_crypto::backend::TinyCryptBackend;
use upkit_delta::blockdiff::{self, BlockDiffError};
use upkit_delta::{FramedDiffOptions, FramedPatcher, PatchError, StreamPatcher};
use upkit_flash::{SimFlash, SlotId};
use upkit_manifest::suit::to_suit_envelope;
use upkit_manifest::{
    DeviceToken, SignedManifest, SignedMultiManifest, Version, COMPONENT_ENTRY_LEN,
    SIGNED_MANIFEST_LEN,
};
use upkit_net::{
    CachedOrigin, CachingProxy, FrameAdversary, FrameTamper, LinkProfile, LossyLink, PullSession,
    PushEndpoints, PushSession, RetryPolicy, SessionEndpoints, SessionOutcome, SessionStream,
    Smartphone, StreamResolution, Transport,
};
pub use upkit_sim::explore::repro_command;
use upkit_sim::explore::{never_brick, Case, CaseClass, Exploration, Shrunk};
use upkit_sim::failure::{
    select_cases, update_world, world_geometry, UpdateWorld, WorldConfig, WorldMode,
    DEFAULT_MAX_BOOTS,
};
use upkit_sim::scenario::DEVICE_ID;
use upkit_sim::FirmwareGenerator;
use upkit_trace::{Counters, Event, Tracer};

/// The mutation surfaces, in canonical exploration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MutationClass {
    /// The SUIT/CBOR manifest envelope fed to `from_suit_envelope`.
    Suit,
    /// The fixed-layout signed-manifest wire encoding.
    ManifestWire,
    /// The multi-payload commit record: legacy signed-manifest wire plus
    /// the appended component table, fed to
    /// `SignedMultiManifest::from_bytes` and then the bootloader's
    /// dual-signature record check — the exact path a journaled commit
    /// record travels before any component swap may begin. The targeted
    /// tail mutations cover the component-count bomb, a mismatched
    /// per-component digest, a duplicate slot assignment, and a
    /// truncated table.
    ComponentTable,
    /// A block-diff delta applied with `patch_with_budget`.
    BlockDiff,
    /// A bsdiff stream fed chunkwise to a budgeted [`StreamPatcher`].
    StreamDelta,
    /// A framed patch container fed chunkwise to a budgeted
    /// [`FramedPatcher`] — directory bombs, overlapping windows, and
    /// per-window length lies all live on this surface.
    FramedDelta,
    /// An LZSS stream fed to `decompress_with_budget`.
    Lzss,
    /// One live session frame, one bit flipped.
    FrameCorrupt,
    /// One live session frame delivered after its successor.
    FrameReorder,
    /// One live session frame delivered twice.
    FrameDuplicate,
    /// A forged frame injected before the target frame.
    FrameInject,
    /// One live session frame silently dropped.
    FrameDrop,
    /// The whole resolved stream replaced by a stale-nonce or
    /// wrong-device package the server once legitimately signed.
    DowngradeReplay,
    /// One block of a warm gateway block cache corrupted in place, then
    /// served to every downstream device — the attack a forwarding-path
    /// [`Tamper`](upkit_net::Tamper) cannot model, because the upstream
    /// fetch itself was honest.
    CachePoison,
}

impl MutationClass {
    /// Every surface, in canonical exploration order.
    pub const ALL: [MutationClass; 14] = [
        MutationClass::Suit,
        MutationClass::ManifestWire,
        MutationClass::ComponentTable,
        MutationClass::BlockDiff,
        MutationClass::StreamDelta,
        MutationClass::FramedDelta,
        MutationClass::Lzss,
        MutationClass::FrameCorrupt,
        MutationClass::FrameReorder,
        MutationClass::FrameDuplicate,
        MutationClass::FrameInject,
        MutationClass::FrameDrop,
        MutationClass::DowngradeReplay,
        MutationClass::CachePoison,
    ];

    /// Stable label used in traces, reports, and reproducer commands.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MutationClass::Suit => "suit",
            MutationClass::ManifestWire => "manifest_wire",
            MutationClass::ComponentTable => "component_table",
            MutationClass::BlockDiff => "blockdiff",
            MutationClass::StreamDelta => "stream_delta",
            MutationClass::FramedDelta => "framed_delta",
            MutationClass::Lzss => "lzss",
            MutationClass::FrameCorrupt => "frame_corrupt",
            MutationClass::FrameReorder => "frame_reorder",
            MutationClass::FrameDuplicate => "frame_duplicate",
            MutationClass::FrameInject => "frame_inject",
            MutationClass::FrameDrop => "frame_drop",
            MutationClass::DowngradeReplay => "downgrade_replay",
            MutationClass::CachePoison => "cache_poison",
        }
    }
}

impl CaseClass for MutationClass {
    const EXPLORER: &'static str = "adversary_explore";
    const CASE_WORDS: &'static str = "<surface> <index>";
    const CLASSES: &'static [Self] = &Self::ALL;

    fn label(self) -> &'static str {
        MutationClass::label(self)
    }
}

/// Parameters of one exploration run.
#[derive(Clone, Copy, Debug)]
pub struct AdversaryConfig {
    /// The update scenario whose inputs are mutated.
    pub scenario: WorldConfig,
    /// Worker threads for the case fan-out (results are identical for
    /// any value ≥ 1).
    pub threads: usize,
    /// Explore at most this many cases *per surface*, evenly strided
    /// across the surface's universe (`None` = every case).
    pub case_limit: Option<usize>,
}

impl AdversaryConfig {
    /// Exhaustive single-scenario exploration with sensible defaults.
    #[must_use]
    pub fn exhaustive(scenario: WorldConfig) -> Self {
        Self {
            scenario,
            threads: 1,
            case_limit: None,
        }
    }
}

/// Structural mutations appended after the per-byte bit flips of every
/// decoder surface: truncate-to-half, 64-byte 0xFF extension, all-zeros.
pub const STRUCTURAL_MUTATIONS: u64 = 3;

/// Downgrade-replay case universe: stale-nonce and wrong-device streams.
pub const DOWNGRADE_CASES: u64 = 2;

/// Targeted component-table mutations appended after the generic tail of
/// the [`MutationClass::ComponentTable`] surface: component-count bomb
/// (`u16::MAX` declared entries), mismatched per-component digest,
/// duplicate slot assignment, truncated table.
pub const COMPONENT_TABLE_TARGETED: u64 = 4;

/// Components in the commit record the component-table surface mutates.
pub const COMPONENT_TABLE_SET: u8 = 3;

/// Block size of the gateway cache the cache-poison surface warms; one
/// case per block, so every region of the stream gets poisoned once.
pub const CACHE_POISON_BLOCK_SIZE: usize = 256;

/// Downstream devices served from each poisoned cache — every one of
/// them must reject the stream.
pub const CACHE_POISON_DOWNSTREAM: usize = 3;

/// Everything the fault-free scenario establishes once, shared by every
/// case: the honest frame count, the bytes an honest install leaves in
/// the booted slot, the package corpora the decoder surfaces mutate, and
/// the once-signed streams the replay surface substitutes.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Link frames the honest push session delivers.
    pub frames: u64,
    /// Slot the honest post-install boot lands in.
    pub booted_slot: SlotId,
    /// Full contents of that slot after the honest install — the
    /// byte-identity reference for the never-accept check.
    pub booted_bytes: Vec<u8>,
    /// The honest stream a caching gateway fetches and caches — the
    /// corpus the cache-poison surface corrupts block by block.
    pub honest_stream: SessionStream,
    /// The stream the server serves for a stale (already-used) nonce.
    pub stale_stream: SessionStream,
    /// The stream the server serves for a different device id.
    pub wrong_device_stream: SessionStream,
    /// SUIT/CBOR envelope of the honest manifest.
    pub suit_bytes: Vec<u8>,
    /// Wire encoding of the honest signed manifest.
    pub manifest_wire: Vec<u8>,
    /// Wire encoding of an honest multi-payload commit record
    /// ([`COMPONENT_TABLE_SET`] components) signed by the same-seed
    /// vendor and server — the corpus the component-table surface
    /// mutates.
    pub multi_record_wire: Vec<u8>,
    /// Trust anchors the commit-record check verifies against.
    pub multi_anchors: TrustAnchors,
    /// Valid block-diff delta v1 → v2.
    pub blockdiff_delta: Vec<u8>,
    /// Valid bsdiff stream v1 → v2.
    pub stream_delta: Vec<u8>,
    /// Valid framed patch container v1 → v2, windowed small enough that
    /// the directory holds several entries for mutations to land in.
    pub framed_delta: Vec<u8>,
    /// Valid LZSS compression of the v2 firmware.
    pub lzss_stream: Vec<u8>,
    /// The v1 image the delta surfaces patch against.
    pub old_firmware: Vec<u8>,
    /// Decode budget derived from the scenario slot size: no decoder may
    /// produce (or pre-allocate) more than fits in the target slot.
    pub budget: u64,
}

impl Baseline {
    /// The honest corpus a decoder surface mutates; `None` for the
    /// session surfaces, which never touch a raw decoder.
    #[must_use]
    pub fn corpus(&self, surface: MutationClass) -> Option<&[u8]> {
        Some(match surface {
            MutationClass::Suit => &self.suit_bytes,
            MutationClass::ManifestWire => &self.manifest_wire,
            MutationClass::ComponentTable => &self.multi_record_wire,
            MutationClass::BlockDiff => &self.blockdiff_delta,
            MutationClass::StreamDelta => &self.stream_delta,
            MutationClass::FramedDelta => &self.framed_delta,
            MutationClass::Lzss => &self.lzss_stream,
            _ => return None,
        })
    }
}

/// The full contents of the booted `slot`.
fn slot_bytes(world: &UpdateWorld, slot: SlotId) -> Vec<u8> {
    let spec = world.layout.slot(slot).expect("booted slot exists");
    let mut bytes = vec![0u8; spec.size as usize];
    world
        .layout
        .read_slot(slot, 0, &mut bytes)
        .expect("booted slot is readable");
    bytes
}

/// The freshness nonce every run of `scenario` uses — baseline and cases
/// must agree or the honest manifest itself would be stale.
#[must_use]
pub fn scenario_nonce(scenario: &WorldConfig) -> u32 {
    scenario.seed as u32 | 1
}

fn prepared_stream(
    server: &upkit_core::generation::UpdateServer,
    token: &DeviceToken,
) -> SessionStream {
    let prepared = server
        .prepare_update(token)
        .expect("v2 is published, so the server always has an update");
    SessionStream::split(prepared.image.to_bytes())
}

/// Runs the scenario once, honestly (through a [`FrameAdversary`] with
/// [`FrameTamper::None`], so the frame numbering matches what every
/// mutated case sees), and captures everything in [`Baseline`].
#[must_use]
pub fn record_baseline(scenario: &WorldConfig) -> Baseline {
    let nonce = scenario_nonce(scenario);
    let mut world = update_world(scenario, Box::new(SimFlash::new(world_geometry(scenario))));

    let link = LinkProfile::ble_gatt();
    let mut phone = Smartphone::new();
    let mut session = PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
    let (outcome, frames) = {
        let endpoints = PushEndpoints::new(
            &world.server,
            &mut phone,
            &mut world.agent,
            &mut world.layout,
            world.plan.clone(),
            nonce,
        );
        let mut adversary = FrameAdversary::new(endpoints, FrameTamper::None);
        let report = session.run_to_completion(&mut adversary);
        (report.outcome, adversary.frames_seen())
    };
    assert!(
        outcome.is_complete(),
        "the honest baseline run must complete, got {outcome:?}"
    );

    let report = world
        .reboot_to_fixed_point(DEFAULT_MAX_BOOTS)
        .expect("the honest install must boot");
    let booted_slot = report.outcome.booted_slot;
    let booted_bytes = slot_bytes(&world, booted_slot);

    // Packages the server once legitimately signed, but for a different
    // freshness nonce / device — exactly what a compromised proxy can
    // hold back and replay later.
    let honest_token = DeviceToken {
        device_id: DEVICE_ID,
        nonce,
        current_version: Version(1),
    };
    let honest = prepared_stream(&world.server, &honest_token);
    let stale_stream = prepared_stream(
        &world.server,
        &DeviceToken {
            nonce: nonce ^ 0x5A5A_5A5A,
            ..honest_token
        },
    );
    let wrong_device_stream = prepared_stream(
        &world.server,
        &DeviceToken {
            device_id: DEVICE_ID ^ 1,
            ..honest_token
        },
    );

    let signed =
        SignedManifest::from_bytes(&honest.manifest).expect("the honest manifest region decodes");
    let suit_bytes = to_suit_envelope(&signed.manifest);

    let old_firmware = FirmwareGenerator::new(scenario.seed).base(scenario.firmware_size);
    let v2 = world.firmware_v2.clone();

    // A same-seed multi-component world provisions a fully signed commit
    // record during setup; its wire bytes are the component-table corpus,
    // and its anchors are what the record check verifies mutations
    // against — the exact pair the transactional bootloader uses.
    let multi_scenario = WorldConfig {
        mode: WorldMode::Multi {
            components: COMPONENT_TABLE_SET,
        },
        ..*scenario
    };
    let multi_world = update_world(
        &multi_scenario,
        Box::new(SimFlash::new(world_geometry(&multi_scenario))),
    );
    let multi = multi_world
        .multi
        .as_ref()
        .expect("a multi world always provisions a staged set");

    Baseline {
        frames,
        booted_slot,
        booted_bytes,
        honest_stream: honest.clone(),
        stale_stream,
        wrong_device_stream,
        suit_bytes,
        manifest_wire: honest.manifest,
        multi_record_wire: multi.record.to_bytes(),
        multi_anchors: multi_world.anchors,
        blockdiff_delta: blockdiff::diff(&old_firmware, &v2),
        stream_delta: upkit_delta::diff(&old_firmware, &v2),
        framed_delta: upkit_delta::framed_diff(
            &old_firmware,
            &v2,
            // A quarter-image window yields a multi-entry directory, so
            // bit flips hit offsets, lengths, and compression tags alike.
            &FramedDiffOptions::default().with_window_len((v2.len() / 4).max(1)),
        ),
        lzss_stream: upkit_compress::compress(&v2, upkit_compress::Params::default()),
        old_firmware,
        budget: u64::from(scenario.slot_size),
    }
}

/// Size of a surface's mutation universe under `baseline`.
#[must_use]
pub fn universe(surface: MutationClass, baseline: &Baseline) -> u64 {
    match (surface, baseline.corpus(surface)) {
        (MutationClass::ComponentTable, Some(corpus)) => {
            corpus.len() as u64 + STRUCTURAL_MUTATIONS + COMPONENT_TABLE_TARGETED
        }
        (_, Some(corpus)) => corpus.len() as u64 + STRUCTURAL_MUTATIONS,
        (MutationClass::DowngradeReplay, None) => DOWNGRADE_CASES,
        (MutationClass::CachePoison, None) => {
            u64::from(CachedOrigin::new(&baseline.honest_stream).blocks(CACHE_POISON_BLOCK_SIZE))
        }
        // One case per frame of the honest session.
        (_, None) => baseline.frames,
    }
}

/// Applies mutation `index` of a decoder surface's universe to `corpus`:
/// indices below the corpus length flip one (index-derived) bit of that
/// byte; the [`STRUCTURAL_MUTATIONS`] tail indices truncate to half,
/// append 64 `0xFF` bytes, and zero the whole input.
#[must_use]
pub fn mutate_bytes(corpus: &[u8], index: u64) -> Vec<u8> {
    let len = corpus.len() as u64;
    let mut out = corpus.to_vec();
    if index < len {
        // Vary the bit position across strided indices so a limited run
        // still samples header bits, length bits, and signature bits.
        let bit = (index.wrapping_mul(7) % 8) as u8;
        out[index as usize] ^= 1 << bit;
    } else if index == len {
        out.truncate(corpus.len() / 2);
    } else if index == len + 1 {
        out.extend(std::iter::repeat_n(0xFF, 64));
    } else {
        out.iter_mut().for_each(|b| *b = 0);
    }
    out
}

/// Applies mutation `index` of the component-table universe to a signed
/// multi-manifest wire encoding: the generic [`mutate_bytes`] prefix
/// (bit flips plus structural tail), then the
/// [`COMPONENT_TABLE_TARGETED`] attacks on the table that starts at
/// [`SIGNED_MANIFEST_LEN`] — count bomb, mismatched per-component
/// digest, duplicate slot assignment, truncated table.
#[must_use]
pub fn mutate_component_table(corpus: &[u8], index: u64) -> Vec<u8> {
    let generic = corpus.len() as u64 + STRUCTURAL_MUTATIONS;
    if index < generic {
        return mutate_bytes(corpus, index);
    }
    let mut out = corpus.to_vec();
    let count_at = SIGNED_MANIFEST_LEN + 4;
    let entries_at = SIGNED_MANIFEST_LEN + 6;
    match index - generic {
        // Component-count bomb: claim 65535 entries behind 3 of backing.
        0 => out[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_le_bytes()),
        // First component's digest no longer matches anything.
        1 => out[entries_at + 10] ^= 0xFF,
        // Second component claims the first component's slot.
        2 => {
            out[entries_at + 2 * COMPONENT_ENTRY_LEN - 1] =
                out[entries_at + COMPONENT_ENTRY_LEN - 1]
        }
        // Table cut mid-way through the second entry.
        _ => out.truncate(entries_at + COMPONENT_ENTRY_LEN + COMPONENT_ENTRY_LEN / 2),
    }
    out
}

/// The frame-level tamper realising `(surface, index)`.
///
/// Returns `None` for decoder surfaces (which never touch a session).
#[must_use]
pub fn frame_tamper(
    surface: MutationClass,
    index: u64,
    baseline: &Baseline,
) -> Option<FrameTamper> {
    match surface {
        MutationClass::FrameCorrupt => Some(FrameTamper::Corrupt {
            frame: index,
            // Index-derived position; the adversary wraps it modulo the
            // frame's bit length, so every index lands somewhere.
            bit: (index as u32).wrapping_mul(13).wrapping_add(1),
        }),
        MutationClass::FrameReorder => Some(FrameTamper::Reorder { frame: index }),
        MutationClass::FrameDuplicate => Some(FrameTamper::Duplicate { frame: index }),
        MutationClass::FrameInject => Some(FrameTamper::Inject {
            frame: index,
            fill: 0xA5,
        }),
        MutationClass::FrameDrop => Some(FrameTamper::Drop { frame: index }),
        MutationClass::DowngradeReplay => Some(FrameTamper::ReplaceStream(if index == 0 {
            baseline.stale_stream.clone()
        } else {
            baseline.wrong_device_stream.clone()
        })),
        _ => None,
    }
}

/// Outcome of one `(surface, index)` case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// The mutated surface.
    pub surface: MutationClass,
    /// Index into the surface's mutation universe.
    pub index: u64,
    /// Stable label of what the acceptance path did: a session outcome
    /// label, or `decoded` / `typed_error` / `budget_rejected` /
    /// `panicked` for decoder surfaces.
    pub outcome: String,
    /// Whether the case unwound a panic (always a violation).
    pub panicked: bool,
    /// `None` when the three-part invariant held; otherwise how it broke.
    pub violation: Option<String>,
}

impl CaseResult {
    /// Whether the invariant held for this case.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

impl Case for CaseResult {
    type Class = MutationClass;

    fn key(&self) -> (MutationClass, u64) {
        (self.surface, self.index)
    }

    fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }
}

/// Feeds `mutated` to a streaming patcher in 256-byte chunks, as a link
/// would deliver it, then ends the stream (`None`). `feed` reports an
/// error as whether it was a budget rejection. Returns the output length.
fn stream_patched(
    mutated: &[u8],
    mut feed: impl FnMut(Option<&[u8]>, &mut Vec<u8>) -> Result<(), bool>,
) -> Result<u64, bool> {
    let mut out = Vec::new();
    for chunk in mutated.chunks(256).map(Some).chain([None]) {
        feed(chunk, &mut out)?;
    }
    Ok(out.len() as u64)
}

fn run_decoder_case(
    baseline: &Baseline,
    surface: MutationClass,
    corpus: &[u8],
    index: u64,
    tracer: &Tracer,
) -> (String, bool, Option<String>) {
    let mutated = if surface == MutationClass::ComponentTable {
        mutate_component_table(corpus, index)
    } else {
        mutate_bytes(corpus, index)
    };
    let budget = baseline.budget;

    // `Ok(output length)` when the input decoded; `Err(true)` for a
    // budget rejection, `Err(false)` for any other typed error.
    let decoded = catch_unwind(AssertUnwindSafe(|| match surface {
        MutationClass::Suit => upkit_manifest::suit::from_suit_envelope(&mutated)
            .map(|_| 0)
            .map_err(|_| false),
        MutationClass::ManifestWire => SignedManifest::from_bytes(&mutated)
            .map(|_| 0)
            .map_err(|_| false),
        // The commit-record acceptance path: structural decode (which
        // bounds the count before allocating and rejects duplicate
        // slots), then the same dual-signature check the transactional
        // bootloader runs before any component swap. Only a record that
        // passes *both* counts as decoded — and since every mutation
        // changes at least one signed byte, any such acceptance is a
        // forgery.
        MutationClass::ComponentTable => match SignedMultiManifest::from_bytes(&mutated) {
            Ok(record)
                if check_record_signatures(&TinyCryptBackend, &baseline.multi_anchors, &record)
                    .is_ok() =>
            {
                Ok(0)
            }
            _ => Err(false),
        },
        MutationClass::BlockDiff => {
            blockdiff::patch_with_budget(&baseline.old_firmware, &mutated, budget as usize)
                .map(|out| out.len() as u64)
                .map_err(|e| e == BlockDiffError::BudgetExceeded)
        }
        // A truncated bsdiff stream decodes what it carried: this surface
        // never ends the stream.
        MutationClass::StreamDelta => {
            let mut patcher = StreamPatcher::with_budget(baseline.old_firmware.as_slice(), budget);
            stream_patched(&mutated, |chunk, out| match chunk {
                Some(chunk) => patcher
                    .push(chunk, out)
                    .map_err(|e| e == PatchError::BudgetExceeded),
                None => Ok(()),
            })
        }
        MutationClass::FramedDelta => {
            let mut patcher = FramedPatcher::with_budget(baseline.old_firmware.as_slice(), budget);
            stream_patched(&mutated, |chunk, out| {
                match chunk {
                    Some(chunk) => patcher.push(chunk, out),
                    None => patcher.finish(),
                }
                .map_err(|e| e.is_budget_rejection())
            })
        }
        MutationClass::Lzss => upkit_compress::decompress_with_budget(&mutated, budget)
            .map(|out| out.len() as u64)
            .map_err(|e| e == LzssError::BudgetExceeded),
        _ => unreachable!("decoder dispatch on a session surface"),
    }));

    let (label, produced) = match decoded {
        Ok(Ok(produced)) => ("decoded", produced),
        Ok(Err(true)) => {
            Counters::add(&tracer.counters().decode_overruns, 1);
            ("budget_rejected", 0)
        }
        Ok(Err(false)) => ("typed_error", 0),
        Err(_) => {
            return (
                "panicked".to_string(),
                true,
                Some(format!("{} decoder panicked", surface.label())),
            )
        }
    };
    let violation = if surface == MutationClass::ComponentTable && label == "decoded" {
        Counters::add(&tracer.counters().forgeries_accepted, 1);
        Some("mutated commit record decoded and passed dual-signature verification".to_string())
    } else {
        (produced > budget).then(|| {
            format!("decoder produced {produced} bytes, beyond the {budget}-byte slot budget")
        })
    };
    (label.to_string(), false, violation)
}

/// Post-session never-brick / never-accept check shared by every session
/// surface (frame tampers, stream replay, cache poison): the device must
/// still boot a dual-signature-valid image, never an older one, and if
/// it kept the update it must be byte-identical to the vendor's. Returns
/// the violation (if any) and whether a forgery was accepted.
fn post_session_invariant(
    world: &mut UpdateWorld,
    baseline: &Baseline,
    completed: bool,
) -> (Option<String>, bool) {
    let report = match never_brick(world) {
        Ok((report, None)) => report,
        Ok((_, Some(violation))) | Err(violation) => return (Some(violation), false),
    };
    let booted = report.outcome.booted_slot;
    if report.outcome.version > world.base_version {
        // Read first: the read charges `flash_reads` whichever slot booted.
        let bytes = slot_bytes(world, booted);
        if booted != baseline.booted_slot || bytes != baseline.booted_bytes {
            return (
                Some(
                    "device kept an update that is not byte-identical to the vendor image"
                        .to_string(),
                ),
                true,
            );
        }
    } else if completed {
        return (
            Some("session completed but the device still boots the old version".into()),
            false,
        );
    }
    (None, false)
}

/// Runs `session` on a fresh world of `scenario`, then the post-session
/// check, each under its own `catch_unwind` so a panicking session or
/// bootloader is a report line, not a harness crash. Returns the
/// session's outcome label, whether either part panicked, and the
/// check's violation; an accepted forgery is charged to `tracer`.
fn checked_session(
    scenario: &WorldConfig,
    baseline: &Baseline,
    tracer: &Tracer,
    session: impl FnOnce(&mut UpdateWorld) -> SessionOutcome,
) -> (String, bool, Option<String>) {
    let mut world = update_world(scenario, Box::new(SimFlash::new(world_geometry(scenario))));
    world.layout.set_tracer(tracer.clone());
    let (label, completed, mut panicked) =
        match catch_unwind(AssertUnwindSafe(|| session(&mut world))) {
            Ok(outcome) => (outcome.label().to_string(), outcome.is_complete(), false),
            Err(_) => ("panicked".to_string(), false, true),
        };

    // Whatever the session did, the device must still boot a valid image
    // — and if it *kept* the update, the update must be byte-identical to
    // the vendor's (never-accept).
    let checked = catch_unwind(AssertUnwindSafe(|| {
        post_session_invariant(&mut world, baseline, completed)
    }));
    let (violation, forged) = checked.unwrap_or_else(|_| {
        panicked = true;
        (Some("post-session boot check panicked".to_string()), false)
    });
    if forged {
        Counters::add(&tracer.counters().forgeries_accepted, 1);
    }
    (label, panicked, violation)
}

/// [`SessionEndpoints`] for a device pulling through a caching gateway:
/// a real [`UpdateAgent`](upkit_core::agent::UpdateAgent) served from the
/// proxy's block cache instead of straight from the server.
struct CachedPullEndpoints<'a> {
    proxy: &'a mut CachingProxy,
    origin: &'a CachedOrigin,
    world: &'a mut UpdateWorld,
    plan: Option<UpdatePlan>,
    nonce: u32,
}

impl SessionEndpoints for CachedPullEndpoints<'_> {
    fn request_token(&mut self) -> Result<DeviceToken, AgentError> {
        let plan = self.plan.take().ok_or(AgentError::WrongState(
            upkit_core::agent::AgentState::Waiting,
        ))?;
        self.world
            .agent
            .request_device_token(&mut self.world.layout, plan, self.nonce)
    }

    fn resolve_stream(&mut self, _token: &DeviceToken) -> StreamResolution {
        // Well after the warm-up fetches landed: every block is a cache
        // hit, so the device is served *only* poisoned-cache bytes.
        self.proxy.resolve(self.origin, 1 << 40)
    }

    fn deliver(&mut self, chunk: &[u8]) -> Result<AgentPhase, AgentError> {
        self.world.agent.push_data(&mut self.world.layout, chunk)
    }
}

/// One cache-poison case: warm a gateway cache with one honest serve,
/// corrupt block `index` in place, then serve
/// [`CACHE_POISON_DOWNSTREAM`] devices from the poisoned cache. Every
/// one of them must reject the stream and keep booting its old image.
fn run_cache_case(
    scenario: &WorldConfig,
    baseline: &Baseline,
    index: u64,
    tracer: &Tracer,
) -> (String, bool, Option<String>) {
    let nonce = scenario_nonce(scenario);
    let origin = CachedOrigin::new(&baseline.honest_stream);
    let blocks = origin.blocks(CACHE_POISON_BLOCK_SIZE) as usize;
    let mut proxy = CachingProxy::new(
        0xCA4E,
        CACHE_POISON_BLOCK_SIZE,
        blocks,
        LinkProfile::wifi_backhaul(),
    );
    proxy.set_tracer(tracer.clone());
    // Warm the cache honestly, then poison one block in place. The
    // upstream fetch was legitimate — only the cached copy lies.
    let _ = proxy.resolve(&origin, 0);
    let bit = (index.wrapping_mul(11) % 8) as u8;
    let poisoned = proxy.poison_block(origin.digest(), index as u32, |bytes| {
        let target = (index as usize).wrapping_mul(31) % bytes.len().max(1);
        if let Some(byte) = bytes.get_mut(target) {
            *byte ^= 1 << bit;
        }
    });
    if !poisoned {
        return (
            "block_not_cached".to_string(),
            false,
            Some(format!("cache block {index} was never warmed")),
        );
    }

    let mut label = String::new();
    let mut panicked = false;
    let mut violation: Option<String> = None;
    for device in 0..CACHE_POISON_DOWNSTREAM {
        let (device_label, device_panicked, device_violation) =
            checked_session(scenario, baseline, tracer, |world| {
                let link = LinkProfile::ieee802154_6lowpan();
                let mut session = PullSession::new(
                    LossyLink::reliable(link),
                    RetryPolicy::for_link(&link),
                    device as u64,
                );
                session.set_tracer(tracer.clone());
                let plan = world.plan.clone();
                let mut endpoints = CachedPullEndpoints {
                    proxy: &mut proxy,
                    origin: &origin,
                    world,
                    plan: Some(plan),
                    nonce,
                };
                session.run_to_completion(&mut endpoints).outcome
            });
        panicked |= device_panicked;
        label = device_label;
        if violation.is_none() {
            violation = device_violation
                .map(|v| format!("downstream device {device}: {v}"))
                .or_else(|| {
                    device_panicked.then(|| format!("cache_poison device {device} panicked"))
                });
        }
    }
    (label, panicked, violation)
}

fn run_session_case(
    scenario: &WorldConfig,
    baseline: &Baseline,
    surface: MutationClass,
    index: u64,
    tracer: &Tracer,
) -> (String, bool, Option<String>) {
    let tamper =
        frame_tamper(surface, index, baseline).expect("session dispatch on a session surface");
    let nonce = scenario_nonce(scenario);
    let (label, panicked, violation) = checked_session(scenario, baseline, tracer, |world| {
        let link = LinkProfile::ble_gatt();
        let mut phone = Smartphone::new();
        let mut session =
            PushSession::new(LossyLink::reliable(link), RetryPolicy::for_link(&link), 0);
        session.set_tracer(tracer.clone());
        let endpoints = PushEndpoints::new(
            &world.server,
            &mut phone,
            &mut world.agent,
            &mut world.layout,
            world.plan.clone(),
            nonce,
        );
        let mut adversary = FrameAdversary::new(endpoints, tamper);
        session.run_to_completion(&mut adversary).outcome
    });
    let violation = violation
        .or_else(|| panicked.then(|| format!("{} session path panicked", surface.label())));
    (label, panicked, violation)
}

/// Runs one `(surface, index)` case against `scenario`: mutate, drive the
/// acceptance path under `catch_unwind`, check the three-part invariant.
/// Charges and events go to `tracer`.
pub fn run_case(
    scenario: &WorldConfig,
    baseline: &Baseline,
    surface: MutationClass,
    index: u64,
    tracer: &Tracer,
) -> CaseResult {
    tracer.emit(|| Event::MutationInjected {
        case: index,
        surface: surface.label(),
    });

    let (outcome, panicked, violation) = if let Some(corpus) = baseline.corpus(surface) {
        run_decoder_case(baseline, surface, corpus, index, tracer)
    } else if surface == MutationClass::CachePoison {
        run_cache_case(scenario, baseline, index, tracer)
    } else {
        run_session_case(scenario, baseline, surface, index, tracer)
    };

    let ok = violation.is_none();
    tracer.emit(|| Event::MutationChecked {
        case: index,
        surface: surface.label(),
        panicked,
        ok,
    });

    CaseResult {
        surface,
        index,
        outcome,
        panicked,
        violation,
    }
}

/// Everything one exploration run learned. Dereferences to the
/// [`Exploration`]: the scenario, the `(surface, index)` case list in
/// surface-major order, and one result per case.
#[derive(Debug)]
pub struct AdversaryReport {
    /// Full universe size per surface.
    pub universes: Vec<(MutationClass, u64)>,
    /// The explored cases and their results.
    pub exploration: Exploration<CaseResult>,
}

impl Deref for AdversaryReport {
    type Target = Exploration<CaseResult>;

    fn deref(&self) -> &Exploration<CaseResult> {
        &self.exploration
    }
}

impl AdversaryReport {
    /// The cases that panicked.
    #[must_use]
    pub fn panics(&self) -> usize {
        self.cases.iter().filter(|c| c.panicked).count()
    }
}

/// [`explore_traced`] with tracing disabled.
#[must_use]
pub fn explore(config: &AdversaryConfig) -> AdversaryReport {
    explore_traced(config, &Tracer::disabled())
}

/// Records the scenario baseline, then explores every selected
/// `(surface, index)` case across `config.threads` workers.
///
/// Determinism: every case is a pure function of `(scenario, baseline,
/// surface, index)` and the baseline is a pure function of the scenario,
/// so the report, counter totals, and trace record sequence are
/// byte-identical for any thread count (see [`Exploration::run`]).
#[must_use]
pub fn explore_traced(config: &AdversaryConfig, tracer: &Tracer) -> AdversaryReport {
    let baseline = record_baseline(&config.scenario);
    let universes: Vec<(MutationClass, u64)> = MutationClass::ALL
        .into_iter()
        .map(|s| (s, universe(s, &baseline)))
        .collect();
    let cases = universes
        .iter()
        .flat_map(|&(surface, total)| {
            select_cases(total, config.case_limit)
                .into_iter()
                .map(move |i| (surface, i))
        })
        .collect();
    let exploration = Exploration::run(
        config.scenario,
        cases,
        config.threads,
        tracer,
        |surface, index, case| run_case(&config.scenario, &baseline, surface, index, case),
    );
    AdversaryReport {
        universes,
        exploration,
    }
}

/// Shrinks the report's minimal violation to the smallest mutation index
/// that still fails on the same surface (see [`Exploration::shrink`]).
/// Returns `None` when the report has no violations.
#[must_use]
pub fn shrink_violation(
    config: &AdversaryConfig,
    baseline: &Baseline,
    report: &AdversaryReport,
) -> Option<Shrunk<CaseResult>> {
    report.shrink(|surface, index, tracer| {
        run_case(&config.scenario, baseline, surface, index, tracer)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for surface in MutationClass::ALL {
            assert_eq!(MutationClass::from_label(surface.label()), Some(surface));
        }
        assert_eq!(MutationClass::from_label("telepathy"), None);
    }

    #[test]
    fn byte_mutations_cover_flips_and_structural_cases() {
        let corpus = vec![0u8; 16];
        for index in 0..16u64 {
            let mutated = mutate_bytes(&corpus, index);
            assert_eq!(mutated.len(), 16);
            let differing: Vec<usize> = (0..16).filter(|&i| mutated[i] != corpus[i]).collect();
            assert_eq!(differing, vec![index as usize], "exactly one byte changes");
            assert_eq!(
                (mutated[index as usize] ^ corpus[index as usize]).count_ones(),
                1,
                "exactly one bit of it"
            );
        }
        assert_eq!(mutate_bytes(&corpus, 16).len(), 8, "truncate to half");
        let extended = mutate_bytes(&corpus, 17);
        assert_eq!(extended.len(), 16 + 64, "0xFF extension");
        assert!(extended[16..].iter().all(|&b| b == 0xFF));
        let zeroed = mutate_bytes(&[0xABu8; 16], 18);
        assert!(zeroed.iter().all(|&b| b == 0));
    }

    #[test]
    fn component_table_targeted_mutations_hit_the_table() {
        // 188 bytes of "signed manifest", then a 3-entry table.
        let mut corpus = vec![0x11u8; SIGNED_MANIFEST_LEN];
        corpus.extend_from_slice(b"UKC1");
        corpus.extend_from_slice(&3u16.to_le_bytes());
        for slot in [0u8, 2, 4] {
            let mut entry = vec![0x22u8; COMPONENT_ENTRY_LEN];
            entry[COMPONENT_ENTRY_LEN - 1] = slot;
            corpus.extend_from_slice(&entry);
        }
        let generic = corpus.len() as u64 + STRUCTURAL_MUTATIONS;
        let count_at = SIGNED_MANIFEST_LEN + 4;
        let entries_at = SIGNED_MANIFEST_LEN + 6;

        // Indices below the targeted tail behave like mutate_bytes.
        assert_eq!(mutate_component_table(&corpus, 5), mutate_bytes(&corpus, 5));

        let bombed = mutate_component_table(&corpus, generic);
        assert_eq!(&bombed[count_at..count_at + 2], &u16::MAX.to_le_bytes());
        assert_eq!(bombed.len(), corpus.len(), "the bomb claims, not backs");

        let bad_digest = mutate_component_table(&corpus, generic + 1);
        assert_ne!(bad_digest[entries_at + 10], corpus[entries_at + 10]);

        let dup_slot = mutate_component_table(&corpus, generic + 2);
        assert_eq!(
            dup_slot[entries_at + 2 * COMPONENT_ENTRY_LEN - 1],
            dup_slot[entries_at + COMPONENT_ENTRY_LEN - 1],
            "second entry claims the first entry's slot"
        );

        let truncated = mutate_component_table(&corpus, generic + 3);
        assert!(truncated.len() > SIGNED_MANIFEST_LEN + 6);
        assert!(truncated.len() < entries_at + 2 * COMPONENT_ENTRY_LEN);
    }

    #[test]
    fn frame_tampers_target_the_indexed_frame() {
        let baseline = tiny_baseline();
        assert!(matches!(
            frame_tamper(MutationClass::FrameDrop, 7, &baseline),
            Some(FrameTamper::Drop { frame: 7 })
        ));
        assert!(matches!(
            frame_tamper(MutationClass::FrameInject, 3, &baseline),
            Some(FrameTamper::Inject {
                frame: 3,
                fill: 0xA5
            })
        ));
        assert!(frame_tamper(MutationClass::Lzss, 0, &baseline).is_none());
        match frame_tamper(MutationClass::DowngradeReplay, 0, &baseline) {
            Some(FrameTamper::ReplaceStream(stream)) => {
                assert_eq!(stream, baseline.stale_stream);
            }
            other => panic!("expected the stale stream, got {other:?}"),
        }
    }

    fn tiny_baseline() -> Baseline {
        Baseline {
            frames: 10,
            booted_slot: upkit_flash::standard::SLOT_B,
            booted_bytes: vec![0; 4],
            honest_stream: SessionStream {
                manifest: vec![5; 4],
                payload: vec![6; 8],
            },
            stale_stream: SessionStream {
                manifest: vec![1],
                payload: vec![2],
            },
            wrong_device_stream: SessionStream {
                manifest: vec![3],
                payload: vec![4],
            },
            suit_bytes: vec![0; 8],
            manifest_wire: vec![0; 8],
            multi_record_wire: vec![0; 8],
            multi_anchors: TrustAnchors::hsm(0, 1),
            blockdiff_delta: vec![0; 8],
            stream_delta: vec![0; 8],
            framed_delta: vec![0; 8],
            lzss_stream: vec![0; 8],
            old_firmware: vec![0; 8],
            budget: 4096,
        }
    }

    #[test]
    fn universes_follow_corpus_sizes() {
        let baseline = tiny_baseline();
        assert_eq!(universe(MutationClass::Suit, &baseline), 8 + 3);
        assert_eq!(
            universe(MutationClass::ComponentTable, &baseline),
            8 + 3 + 4
        );
        assert_eq!(universe(MutationClass::FrameCorrupt, &baseline), 10);
        assert_eq!(universe(MutationClass::DowngradeReplay, &baseline), 2);
        // 12 stream bytes in one 256-byte cache block.
        assert_eq!(universe(MutationClass::CachePoison, &baseline), 1);
    }
}
