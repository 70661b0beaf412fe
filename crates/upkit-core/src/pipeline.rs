//! The configurable pipeline that transforms incoming update data before it
//! reaches persistent memory (Sect. IV-C, Fig. 5 of the paper).
//!
//! Four stages:
//!
//! 1. **Decompression** — LZSS-decodes the incoming patch (differential
//!    updates only).
//! 2. **Patching** — applies the bsdiff patch against the old firmware,
//!    emitting new-firmware bytes.
//! 3. **Buffer** — accumulates output until a flash-sector-sized buffer
//!    fills; "matching the buffer size with the flash sector size results
//!    in faster writes and fewer flash erasures".
//! 4. **Writer** — writes buffered data to the destination slot through the
//!    memory interface.
//!
//! Full updates bypass stages 1–2. The key property reproduced here is the
//! paper's storage optimization: the patch is **never** stored — it streams
//! through the pipeline and only reconstructed firmware hits flash, so no
//! third memory slot is needed.
//!
//! Stages 1–2 (plus the optional decryption stage and the exact-size
//! check) form the [`Decoder`], which writes reconstructed firmware into
//! any [`FirmwareSink`]. [`Pipeline`] is the decoder wired to the
//! sector-buffered flash writer of stages 3–4; flash-free simulated
//! devices wire the same decoder to a RAM sink.
//!
//! The patching stage reads the old firmware from its slot. On the paper's
//! platforms internal flash is memory-mapped, so `bspatch` reads the old
//! image in place; here the pipeline snapshots the old slot once at
//! construction, which is behaviourally identical because the old slot is
//! immutable for the duration of the update.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::boxed::Box;
use alloc::vec;
use alloc::vec::Vec;

use upkit_compress::{Decompressor, FixedBuf, LzssError};
use upkit_crypto::chacha20::ChaCha20;
use upkit_delta::{FramedError, FramedPatcher, PatchError, PatchFormat, StreamPatcher};
use upkit_flash::{LayoutError, MemoryLayout, SlotId};
use upkit_trace::Counters;

use crate::image::FIRMWARE_OFFSET;

/// Wire bytes fed to the differential decode chain per drain step.
///
/// The chain expands each wire byte to at most
/// [`upkit_compress::MAX_MATCH`] bytes (LZSS), which bspatch then maps
/// 1:1, so a [`SCRATCH_LEN`]-byte stack buffer bounds every intermediate
/// product and the steady-state push loop performs no heap allocation.
const DECODE_CHUNK: usize = 4;

/// Stack scratch for one decode drain step (see [`DECODE_CHUNK`]).
const SCRATCH_LEN: usize = DECODE_CHUNK * upkit_compress::MAX_MATCH;

/// Stack buffer for in-place decryption of wire chunks.
const CIPHER_CHUNK: usize = 256;

/// Errors surfaced by the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// LZSS decompression failed (corrupt patch stream).
    Decompress(LzssError),
    /// bspatch failed (corrupt patch or wrong base image).
    Patch(PatchError),
    /// A framed patch container failed to apply.
    Framed(FramedError),
    /// Writing to the destination slot failed.
    Flash(LayoutError),
    /// More output was produced than the manifest's firmware size allows.
    Overflow,
    /// `finish` was called before the expected output was complete.
    Incomplete,
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Decompress(e) => write!(f, "pipeline decompression failed: {e}"),
            Self::Patch(e) => write!(f, "pipeline patching failed: {e}"),
            Self::Framed(e) => write!(f, "pipeline framed patching failed: {e}"),
            Self::Flash(e) => write!(f, "pipeline flash write failed: {e}"),
            Self::Overflow => f.write_str("pipeline produced more than the declared size"),
            Self::Incomplete => f.write_str("pipeline input ended before the image was complete"),
        }
    }
}

impl core::error::Error for PipelineError {}

impl From<LzssError> for PipelineError {
    fn from(e: LzssError) -> Self {
        Self::Decompress(e)
    }
}

impl From<PatchError> for PipelineError {
    fn from(e: PatchError) -> Self {
        Self::Patch(e)
    }
}

impl From<FramedError> for PipelineError {
    fn from(e: FramedError) -> Self {
        Self::Framed(e)
    }
}

impl From<LayoutError> for PipelineError {
    fn from(e: LayoutError) -> Self {
        Self::Flash(e)
    }
}

/// Where a [`Decoder`] puts reconstructed firmware: a flash slot for the
/// update agent, RAM for flash-free simulated devices.
pub trait FirmwareSink {
    /// Accepts the next run of firmware bytes, in image order.
    fn write(&mut self, firmware: &[u8]) -> Result<(), PipelineError>;

    /// Persists anything still buffered; called once by
    /// [`Decoder::finish`] after the decode stages completed.
    fn flush(&mut self) -> Result<(), PipelineError> {
        Ok(())
    }

    /// The counters a decode-budget rejection is charged to.
    fn counters(&self) -> &Counters;
}

/// A RAM [`FirmwareSink`]: appends the reconstructed image to a `Vec`.
pub struct VecSink<'a> {
    /// The image reconstructed so far.
    pub image: &'a mut Vec<u8>,
    /// Where decode-budget rejections are charged.
    pub counters: &'a Counters,
}

impl FirmwareSink for VecSink<'_> {
    fn write(&mut self, firmware: &[u8]) -> Result<(), PipelineError> {
        self.image.extend_from_slice(firmware);
        Ok(())
    }

    fn counters(&self) -> &Counters {
        self.counters
    }
}

/// State of the buffer + writer stages: sector-buffered sequential writes
/// into the destination slot's firmware region.
#[derive(Debug)]
struct BufferedWriter {
    dst: SlotId,
    buffer: Vec<u8>,
    capacity: usize,
    write_pos: u32,
}

impl BufferedWriter {
    fn new(layout: &MemoryLayout, dst: SlotId) -> Result<Self, PipelineError> {
        let spec = layout.slot(dst)?;
        let capacity = layout
            .device_geometry(spec.device)
            .ok_or(PipelineError::Flash(LayoutError::InvalidSpec))?
            .sector_size as usize;
        Ok(Self {
            dst,
            buffer: Vec::with_capacity(capacity),
            capacity,
            write_pos: FIRMWARE_OFFSET,
        })
    }
}

/// The buffer + writer stages, bound to the flash for one call.
struct FlashSink<'a>(&'a mut BufferedWriter, &'a mut MemoryLayout);

impl FirmwareSink for FlashSink<'_> {
    fn write(&mut self, mut firmware: &[u8]) -> Result<(), PipelineError> {
        while !firmware.is_empty() {
            let room = self.0.capacity - self.0.buffer.len();
            let take = room.min(firmware.len());
            self.0.buffer.extend_from_slice(&firmware[..take]);
            firmware = &firmware[take..];
            if self.0.buffer.len() == self.0.capacity {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), PipelineError> {
        let Self(writer, layout) = self;
        if !writer.buffer.is_empty() {
            layout.write_slot(writer.dst, writer.write_pos, &writer.buffer)?;
            writer.write_pos += writer.buffer.len() as u32;
            writer.buffer.clear();
        }
        Ok(())
    }

    fn counters(&self) -> &Counters {
        self.1.tracer().counters()
    }
}

/// The exact-size check: firmware handed to the sink never exceeds the
/// manifest's (verified) size.
#[derive(Debug)]
struct Output {
    expected: u64,
    produced: u64,
}

impl Output {
    fn emit<S: FirmwareSink + ?Sized>(
        &mut self,
        sink: &mut S,
        firmware: &[u8],
    ) -> Result<(), PipelineError> {
        if self.produced + firmware.len() as u64 > self.expected {
            return Err(PipelineError::Overflow);
        }
        self.produced += firmware.len() as u64;
        sink.write(firmware)
    }
}

#[derive(Debug)]
enum Transform {
    /// Full update: payload bytes are firmware bytes.
    Passthrough,
    /// Differential update: a patch container against the old image.
    /// Boxed: the stage carries decoder state much larger than the
    /// passthrough variant.
    Differential(Box<DiffStage>),
}

/// The differential transform, which sniffs the patch container from the
/// payload's leading magic bytes: a framed container is applied directly
/// (its windows are compressed individually), anything else goes down the
/// classic path of one LZSS stream wrapping one Raw patch.
#[derive(Debug)]
enum DiffStage {
    /// Waiting for the 4 magic bytes that identify the container.
    Sniff {
        old: Vec<u8>,
        firmware_size: u32,
        buffered: Vec<u8>,
    },
    /// Classic wire encoding: LZSS-decode, then bspatch.
    Lzss {
        decompressor: Decompressor,
        patcher: StreamPatcher<Vec<u8>>,
    },
    /// Framed container: per-window decompression and patching.
    Framed { patcher: FramedPatcher<Vec<u8>> },
}

impl DiffStage {
    /// Resolves the sniffed magic into a concrete decode chain.
    ///
    /// Every decode stage is budgeted from the manifest's (verified,
    /// slot-bounded) firmware size: a wire stream whose own headers
    /// declare more output than the manifest promised is an attack on the
    /// decoder's memory, rejected before any allocation is sized from it.
    /// On the classic path the decompressor yields the *patch*, which can
    /// legitimately outgrow the firmware by its control-entry framing, so
    /// its budget is the worst case `diff` can emit for this firmware
    /// size rather than the firmware size itself; the framed container
    /// enforces the equivalent per window.
    fn begin(old: Vec<u8>, firmware_size: u32, magic: &[u8]) -> Self {
        match PatchFormat::detect(magic) {
            Some(PatchFormat::Framed) => Self::Framed {
                patcher: FramedPatcher::with_budget(old, u64::from(firmware_size)),
            },
            // Anything else — including garbage, which the LZSS header
            // check then rejects exactly as it did before sniffing.
            _ => Self::Lzss {
                decompressor: Decompressor::with_budget(upkit_delta::max_patch_len(u64::from(
                    firmware_size,
                ))),
                patcher: StreamPatcher::with_budget(old, u64::from(firmware_size)),
            },
        }
    }
}

/// Charges `decode_overruns` when a stage rejected a declared length for
/// exceeding its budget.
fn charge_overrun(counters: &Counters, budget_rejection: bool) {
    if budget_rejection {
        Counters::add(&counters.decode_overruns, 1);
    }
}

/// Runs payload bytes through the differential decode chain, resolving
/// the container sniff first.
///
/// Intermediate products (decompressed patch bytes, reconstructed
/// firmware) move through fixed stack scratch buffers sized to the
/// decoders' worst-case expansion, never through heap allocations.
fn push_differential<S: FirmwareSink + ?Sized>(
    stage: &mut DiffStage,
    output: &mut Output,
    sink: &mut S,
    data: &[u8],
) -> Result<(), PipelineError> {
    match stage {
        DiffStage::Sniff {
            old,
            firmware_size,
            buffered,
        } => {
            buffered.extend_from_slice(data);
            if buffered.len() < 4 {
                return Ok(());
            }
            let pending = core::mem::take(buffered);
            *stage = DiffStage::begin(core::mem::take(old), *firmware_size, &pending);
            push_differential(stage, output, sink, &pending)
        }
        DiffStage::Lzss {
            decompressor,
            patcher,
        } => {
            let mut patch_scratch = [0u8; SCRATCH_LEN];
            let mut firmware_scratch = [0u8; SCRATCH_LEN];
            for piece in data.chunks(DECODE_CHUNK) {
                let mut patch_bytes = FixedBuf::new(&mut patch_scratch);
                decompressor
                    .push(piece, &mut patch_bytes)
                    .inspect_err(|e| {
                        charge_overrun(sink.counters(), matches!(e, LzssError::BudgetExceeded));
                    })?;
                debug_assert!(!patch_bytes.overflowed(), "scratch sized to worst case");
                let mut firmware = FixedBuf::new(&mut firmware_scratch);
                patcher
                    .push(patch_bytes.as_slice(), &mut firmware)
                    .inspect_err(|e| {
                        charge_overrun(sink.counters(), matches!(e, PatchError::BudgetExceeded));
                    })?;
                debug_assert!(!firmware.overflowed(), "bspatch never expands its input");
                output.emit(sink, firmware.as_slice())?;
            }
            Ok(())
        }
        DiffStage::Framed { patcher } => {
            let mut firmware_scratch = [0u8; SCRATCH_LEN];
            for piece in data.chunks(DECODE_CHUNK) {
                let mut firmware = FixedBuf::new(&mut firmware_scratch);
                patcher
                    .push(piece, &mut firmware)
                    .inspect_err(|e| charge_overrun(sink.counters(), e.is_budget_rejection()))?;
                debug_assert!(!firmware.overflowed(), "scratch sized to worst case");
                output.emit(sink, firmware.as_slice())?;
            }
            Ok(())
        }
    }
}

/// The decode half of the pipeline: optional decryption, the container
/// sniff, budgeted decompression and patching, and the exact-size check,
/// writing reconstructed firmware into a caller-supplied [`FirmwareSink`].
///
/// Every decode stage is budgeted from the firmware size the decoder was
/// built with (the manifest's verified size), and the steady-state
/// [`Decoder::push`] loop moves bytes through fixed stack buffers only.
#[derive(Debug)]
pub struct Decoder {
    /// Optional decryption stage (the paper's future-work extension): runs
    /// before decompression/patching so confidentiality does not depend on
    /// the transport.
    cipher: Option<ChaCha20>,
    transform: Transform,
    output: Output,
}

impl Decoder {
    /// A decoder for a **full** update: payload bytes are the
    /// `firmware_size`-byte image.
    #[must_use]
    pub fn full(firmware_size: u32) -> Self {
        Self::new(Transform::Passthrough, firmware_size)
    }

    /// A decoder for a **differential** update: the payload is a patch
    /// container against `old`, producing `firmware_size` bytes. The
    /// container (LZSS-wrapped raw bsdiff or framed) is chosen by the
    /// payload's first 4 bytes; every decode stage behind the sniff is
    /// budgeted from `firmware_size`.
    #[must_use]
    pub fn differential(old: Vec<u8>, firmware_size: u32) -> Self {
        let stage = DiffStage::Sniff {
            old,
            firmware_size,
            buffered: Vec::with_capacity(4),
        };
        Self::new(Transform::Differential(Box::new(stage)), firmware_size)
    }

    fn new(transform: Transform, firmware_size: u32) -> Self {
        Self {
            cipher: None,
            transform,
            output: Output {
                expected: u64::from(firmware_size),
                produced: 0,
            },
        }
    }

    /// Prepends a decryption stage: every wire byte is ChaCha20-decrypted
    /// before it reaches decompression/patching. Must be called before the
    /// first [`Decoder::push`].
    pub fn enable_decryption(&mut self, cipher: ChaCha20) {
        self.cipher = Some(cipher);
    }

    /// Feeds the next chunk of wire payload through every decode stage
    /// into `sink`.
    pub fn push<S: FirmwareSink + ?Sized>(
        &mut self,
        data: &[u8],
        sink: &mut S,
    ) -> Result<(), PipelineError> {
        let Some(mut cipher) = self.cipher.take() else {
            return self.push_plain(data, sink);
        };
        // Decrypt through a fixed stack buffer (ChaCha20 keeps its
        // keystream position across calls, so chunked application is
        // byte-identical to one-shot).
        let mut chunk = [0u8; CIPHER_CHUNK];
        let result = data.chunks(CIPHER_CHUNK).try_for_each(|piece| {
            let plain = &mut chunk[..piece.len()];
            plain.copy_from_slice(piece);
            cipher.apply(plain);
            self.push_plain(plain, sink)
        });
        self.cipher = Some(cipher);
        result
    }

    fn push_plain<S: FirmwareSink + ?Sized>(
        &mut self,
        data: &[u8],
        sink: &mut S,
    ) -> Result<(), PipelineError> {
        match &mut self.transform {
            Transform::Passthrough => self.output.emit(sink, data),
            Transform::Differential(stage) => {
                push_differential(stage.as_mut(), &mut self.output, sink, data)
            }
        }
    }

    /// Completes the decode stages, flushes `sink`, and checks that
    /// exactly the declared firmware size was produced. Returns that size.
    pub fn finish<S: FirmwareSink + ?Sized>(&self, sink: &mut S) -> Result<u64, PipelineError> {
        if let Transform::Differential(stage) = &self.transform {
            match stage.as_ref() {
                // Too few payload bytes to even identify a container; the
                // classic decode chain would have reported the same.
                DiffStage::Sniff { .. } => {
                    return Err(PipelineError::Decompress(LzssError::Truncated))
                }
                DiffStage::Lzss {
                    decompressor,
                    patcher,
                } => {
                    decompressor.finish()?;
                    patcher.finish()?;
                }
                DiffStage::Framed { patcher } => patcher.finish()?,
            }
        }
        sink.flush()?;
        if self.output.produced != self.output.expected {
            return Err(PipelineError::Incomplete);
        }
        Ok(self.output.produced)
    }

    /// Firmware bytes produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.output.produced
    }
}

/// The assembled pipeline for one incoming update: a [`Decoder`] writing
/// into the sector-buffered flash writer.
#[derive(Debug)]
pub struct Pipeline {
    decoder: Decoder,
    writer: BufferedWriter,
}

impl Pipeline {
    /// Builds the pipeline for a **full** update of `firmware_size` bytes
    /// into `dst`.
    pub fn new_full(
        layout: &MemoryLayout,
        dst: SlotId,
        firmware_size: u32,
    ) -> Result<Self, PipelineError> {
        Ok(Self {
            decoder: Decoder::full(firmware_size),
            writer: BufferedWriter::new(layout, dst)?,
        })
    }

    /// Builds the pipeline for a **differential** update: the payload is an
    /// LZSS-compressed bsdiff patch against the firmware currently in
    /// `old_slot` (`old_size` bytes), producing `firmware_size` bytes into
    /// `dst`.
    pub fn new_differential(
        layout: &mut MemoryLayout,
        dst: SlotId,
        old_slot: SlotId,
        old_size: u32,
        firmware_size: u32,
    ) -> Result<Self, PipelineError> {
        // Snapshot the (immutable-during-update) old image; see module docs.
        let mut old = vec![0u8; old_size as usize];
        layout.read_slot_counted(old_slot, FIRMWARE_OFFSET, &mut old)?;
        Ok(Self {
            decoder: Decoder::differential(old, firmware_size),
            writer: BufferedWriter::new(layout, dst)?,
        })
    }

    /// Prepends a decryption stage: every wire byte is ChaCha20-decrypted
    /// before it reaches decompression/patching. Must be called before the
    /// first [`Pipeline::push`].
    pub fn enable_decryption(&mut self, cipher: ChaCha20) {
        self.decoder.enable_decryption(cipher);
    }

    /// Overrides the buffer stage's capacity (default: the destination
    /// device's flash sector size, the paper's recommendation). Exposed
    /// for the buffer-size ablation; must be called before the first
    /// [`Pipeline::push`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or data is already buffered.
    pub fn set_buffer_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(
            self.writer.buffer.is_empty(),
            "buffer capacity must be set before pushing data"
        );
        self.writer.capacity = capacity;
    }

    /// Feeds the next chunk of wire payload through all stages.
    pub fn push(&mut self, layout: &mut MemoryLayout, data: &[u8]) -> Result<(), PipelineError> {
        self.decoder
            .push(data, &mut FlashSink(&mut self.writer, layout))
    }

    /// Flushes the buffer stage and validates completeness. Returns the
    /// number of firmware bytes written.
    pub fn finish(&mut self, layout: &mut MemoryLayout) -> Result<u64, PipelineError> {
        self.decoder
            .finish(&mut FlashSink(&mut self.writer, layout))
    }

    /// Firmware bytes produced so far.
    #[must_use]
    pub fn produced(&self) -> u64 {
        self.decoder.produced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upkit_compress::{compress, Params};
    use upkit_delta::diff;
    use upkit_flash::{configuration_a, standard, FlashGeometry, MemoryLayout, SimFlash};

    const SLOT_SECTORS: u32 = 16;

    fn layout() -> MemoryLayout {
        configuration_a(
            Box::new(SimFlash::new(FlashGeometry::untimed(4096 * 64, 4096))),
            4096 * SLOT_SECTORS,
        )
        .unwrap()
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

    fn read_firmware(layout: &MemoryLayout, slot: upkit_flash::SlotId, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        layout.read_slot(slot, FIRMWARE_OFFSET, &mut out).unwrap();
        out
    }

    #[test]
    fn full_update_lands_in_slot() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let fw = firmware(1, 20_000);
        let mut pipeline = Pipeline::new_full(&layout, standard::SLOT_B, fw.len() as u32).unwrap();
        for chunk in fw.chunks(200) {
            pipeline.push(&mut layout, chunk).unwrap();
        }
        assert_eq!(pipeline.finish(&mut layout).unwrap(), fw.len() as u64);
        assert_eq!(read_firmware(&layout, standard::SLOT_B, fw.len()), fw);
    }

    #[test]
    fn differential_update_reconstructs_new_firmware() {
        let mut layout = layout();
        // Install old firmware in slot A.
        let old_fw = firmware(2, 30_000);
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &old_fw)
            .unwrap();
        // New firmware: mostly the same with edits.
        let mut new_fw = old_fw.clone();
        new_fw[5000..5100].copy_from_slice(&firmware(3, 100));
        new_fw.extend_from_slice(&firmware(4, 500));

        // Server side: patch = lzss(bsdiff(old, new)).
        let patch = diff(&old_fw, &new_fw);
        let wire = compress(&patch, Params::default());
        assert!(wire.len() < new_fw.len() / 4, "delta should be small");

        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_differential(
            &mut layout,
            standard::SLOT_B,
            standard::SLOT_A,
            old_fw.len() as u32,
            new_fw.len() as u32,
        )
        .unwrap();
        for chunk in wire.chunks(64) {
            pipeline.push(&mut layout, chunk).unwrap();
        }
        assert_eq!(pipeline.finish(&mut layout).unwrap(), new_fw.len() as u64);
        assert_eq!(
            read_firmware(&layout, standard::SLOT_B, new_fw.len()),
            new_fw
        );
    }

    #[test]
    fn framed_differential_update_reconstructs_new_firmware() {
        use upkit_delta::{framed_diff, FramedDiffOptions};

        let mut layout = layout();
        let old_fw = firmware(20, 30_000);
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &old_fw)
            .unwrap();
        let mut new_fw = old_fw.clone();
        new_fw[9000..9100].copy_from_slice(&firmware(21, 100));
        new_fw.extend_from_slice(&firmware(22, 300));

        // Server side: the framed container, multiple windows, diffed on
        // two threads. The device sniffs the format from the magic — the
        // pipeline construction is identical to the raw-patch case.
        let options = FramedDiffOptions::default()
            .with_window_len(8 * 1024)
            .with_threads(2);
        let wire = framed_diff(&old_fw, &new_fw, &options);
        assert!(wire.len() < new_fw.len() / 4, "delta should be small");

        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_differential(
            &mut layout,
            standard::SLOT_B,
            standard::SLOT_A,
            old_fw.len() as u32,
            new_fw.len() as u32,
        )
        .unwrap();
        for chunk in wire.chunks(64) {
            pipeline.push(&mut layout, chunk).unwrap();
        }
        assert_eq!(pipeline.finish(&mut layout).unwrap(), new_fw.len() as u64);
        assert_eq!(
            read_firmware(&layout, standard::SLOT_B, new_fw.len()),
            new_fw
        );
    }

    #[test]
    fn framed_window_count_bomb_is_rejected_and_ledgered() {
        use upkit_delta::FRAMED_MAGIC;

        let mut layout = layout();
        let old_fw = firmware(23, 2_000);
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &old_fw)
            .unwrap();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_differential(
            &mut layout,
            standard::SLOT_B,
            standard::SLOT_A,
            old_fw.len() as u32,
            2_000,
        )
        .unwrap();

        // Valid magic, then a directory claiming a billion windows for a
        // 2000-byte image: rejected from the header alone, before any
        // directory allocation, and charged to the decode-overrun ledger.
        let mut bomb = Vec::from(FRAMED_MAGIC);
        bomb.extend_from_slice(&(old_fw.len() as u32).to_le_bytes());
        bomb.extend_from_slice(&2_000u32.to_le_bytes());
        bomb.extend_from_slice(&1_000_000_000u32.to_le_bytes());
        assert!(matches!(
            pipeline.push(&mut layout, &bomb),
            Err(PipelineError::Framed(_))
        ));
        assert_eq!(layout.tracer().counters().snapshot().decode_overruns, 1);
    }

    #[test]
    fn no_extra_slot_is_used_for_the_patch() {
        // The pipeline writes only into the destination slot: total bytes
        // written to flash equal the firmware size (rounded to the last
        // partial buffer), not firmware + patch.
        let mut layout = layout();
        let old_fw = firmware(5, 10_000);
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &old_fw)
            .unwrap();
        let mut new_fw = old_fw.clone();
        new_fw[0..50].copy_from_slice(&firmware(6, 50));
        let wire = compress(&diff(&old_fw, &new_fw), Params::default());

        layout.erase_slot(standard::SLOT_B).unwrap();
        layout.reset_stats();
        let mut pipeline = Pipeline::new_differential(
            &mut layout,
            standard::SLOT_B,
            standard::SLOT_A,
            old_fw.len() as u32,
            new_fw.len() as u32,
        )
        .unwrap();
        pipeline.push(&mut layout, &wire).unwrap();
        pipeline.finish(&mut layout).unwrap();
        let stats = layout.total_stats();
        assert_eq!(stats.bytes_written, new_fw.len() as u64);
        assert_eq!(stats.sectors_erased, 0, "destination was pre-erased");
    }

    #[test]
    fn buffer_stage_writes_whole_sectors() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let fw = firmware(7, 4096 * 2 + 100);
        let mut pipeline = Pipeline::new_full(&layout, standard::SLOT_B, fw.len() as u32).unwrap();
        // Push in tiny chunks; writes should still be sector-granular.
        for chunk in fw.chunks(13) {
            pipeline.push(&mut layout, chunk).unwrap();
        }
        // Before finish, only the full sectors have been written.
        assert_eq!(pipeline.produced(), fw.len() as u64);
        let written_before_finish = layout.total_stats().bytes_written;
        assert_eq!(written_before_finish, 4096 * 2);
        pipeline.finish(&mut layout).unwrap();
        assert_eq!(layout.total_stats().bytes_written, fw.len() as u64);
        assert_eq!(read_firmware(&layout, standard::SLOT_B, fw.len()), fw);
    }

    #[test]
    fn overflow_is_rejected() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_full(&layout, standard::SLOT_B, 100).unwrap();
        assert_eq!(
            pipeline.push(&mut layout, &[0u8; 101]),
            Err(PipelineError::Overflow)
        );
    }

    #[test]
    fn incomplete_input_is_rejected() {
        let mut layout = layout();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_full(&layout, standard::SLOT_B, 100).unwrap();
        pipeline.push(&mut layout, &[0u8; 40]).unwrap();
        assert_eq!(pipeline.finish(&mut layout), Err(PipelineError::Incomplete));
    }

    #[test]
    fn corrupt_patch_stream_fails_cleanly() {
        let mut layout = layout();
        let old_fw = firmware(8, 5_000);
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &old_fw)
            .unwrap();
        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_differential(
            &mut layout,
            standard::SLOT_B,
            standard::SLOT_A,
            old_fw.len() as u32,
            5_000,
        )
        .unwrap();
        // Garbage instead of an LZSS stream.
        assert!(matches!(
            pipeline.push(&mut layout, &[0u8; 64]),
            Err(PipelineError::Decompress(_))
        ));
    }

    #[test]
    fn wrong_base_image_fails_in_patching_stage() {
        let mut layout = layout();
        let old_fw = firmware(9, 5_000);
        let unrelated = firmware(10, 4_000); // wrong length ⇒ bspatch rejects
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, FIRMWARE_OFFSET, &unrelated)
            .unwrap();
        let new_fw = firmware(11, 5_200);
        let wire = compress(&diff(&old_fw, &new_fw), Params::default());

        layout.erase_slot(standard::SLOT_B).unwrap();
        let mut pipeline = Pipeline::new_differential(
            &mut layout,
            standard::SLOT_B,
            standard::SLOT_A,
            unrelated.len() as u32,
            new_fw.len() as u32,
        )
        .unwrap();
        let result = (|| {
            for chunk in wire.chunks(128) {
                pipeline.push(&mut layout, chunk)?;
            }
            pipeline.finish(&mut layout).map(|_| ())
        })();
        assert!(matches!(result, Err(PipelineError::Patch(_))));
    }
}
