//! Slot tables: how UpKit organizes persistent memory.
//!
//! UpKit divides the device's flash into *slots*, each holding one update
//! image. Slots are **bootable** (directly executable in place) or
//! **non-bootable** (must be copied to a bootable slot first), and may live
//! on internal or external flash — the CC2650, whose internal flash cannot
//! hold two images, keeps its non-bootable slot on external SPI NOR. The
//! two configurations of the paper's Fig. 6 are provided as constructors:
//! Configuration A (two bootable slots, enabling A/B updates) and
//! Configuration B (one bootable + one non-bootable slot, static updates).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::boxed::Box;
use alloc::vec;
use alloc::vec::Vec;

use upkit_trace::{Counters, Event, Tracer};

use crate::device::{FlashDevice, FlashError, FlashStats};

/// Identifies a slot within a [`MemoryLayout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u8);

impl core::fmt::Display for SlotId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Whether a slot's contents can be executed in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// Directly executable: the bootloader can jump into this slot.
    Bootable,
    /// Staging only: images must be moved to a bootable slot before boot.
    NonBootable,
}

/// Placement of one slot on one flash device.
#[derive(Clone, Copy, Debug)]
pub struct SlotSpec {
    /// The slot's identifier.
    pub id: SlotId,
    /// Bootable or non-bootable.
    pub kind: SlotKind,
    /// Index of the backing device within the layout.
    pub device: usize,
    /// Byte offset of the slot on the device (sector-aligned).
    pub offset: u32,
    /// Slot size in bytes (a multiple of the device's sector size).
    pub size: u32,
}

/// Errors raised by layout-level operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The referenced slot does not exist.
    UnknownSlot,
    /// A slot spec was misaligned, out of device bounds, or overlapping.
    InvalidSpec,
    /// Source and destination of a copy/swap differ in size.
    SizeMismatch,
    /// An underlying flash operation failed.
    Flash(FlashError),
}

impl core::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownSlot => f.write_str("unknown slot id"),
            Self::InvalidSpec => f.write_str("slot spec invalid (alignment/bounds/overlap)"),
            Self::SizeMismatch => f.write_str("slot sizes differ"),
            Self::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl core::error::Error for LayoutError {
    fn source(&self) -> Option<&(dyn core::error::Error + 'static)> {
        match self {
            Self::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for LayoutError {
    fn from(e: FlashError) -> Self {
        Self::Flash(e)
    }
}

/// A set of flash devices plus the slot table laid out over them.
///
/// This is the state behind UpKit's *memory module*; the POSIX-like slot IO
/// of [`crate::io`] operates on it.
pub struct MemoryLayout {
    devices: Vec<Box<dyn FlashDevice>>,
    slots: Vec<SlotSpec>,
    bytes_read: u64,
    tracer: Tracer,
}

impl core::fmt::Debug for MemoryLayout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemoryLayout")
            .field("devices", &self.devices.len())
            .field("slots", &self.slots)
            .finish()
    }
}

impl Default for MemoryLayout {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryLayout {
    /// Creates an empty layout.
    #[must_use]
    pub fn new() -> Self {
        Self {
            devices: Vec::new(),
            slots: Vec::new(),
            bytes_read: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the tracer charged by every slot operation. The default
    /// is a disabled tracer: counters accumulate locally, no events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer this layout charges flash activity to.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Adds a flash device, returning its index for use in [`SlotSpec`]s.
    pub fn add_device(&mut self, device: Box<dyn FlashDevice>) -> usize {
        self.devices.push(device);
        self.devices.len() - 1
    }

    /// Registers a slot after validating alignment, bounds, uniqueness, and
    /// non-overlap with existing slots on the same device.
    pub fn add_slot(&mut self, spec: SlotSpec) -> Result<(), LayoutError> {
        let device = self
            .devices
            .get(spec.device)
            .ok_or(LayoutError::InvalidSpec)?;
        let geometry = device.geometry();
        let sector = geometry.sector_size;
        let aligned =
            spec.offset.is_multiple_of(sector) && spec.size.is_multiple_of(sector) && spec.size > 0;
        let in_bounds = u64::from(spec.offset) + u64::from(spec.size) <= u64::from(geometry.size);
        if !aligned || !in_bounds {
            return Err(LayoutError::InvalidSpec);
        }
        let overlaps = self.slots.iter().any(|s| {
            s.id == spec.id
                || (s.device == spec.device
                    && spec.offset < s.offset + s.size
                    && s.offset < spec.offset + spec.size)
        });
        if overlaps {
            return Err(LayoutError::InvalidSpec);
        }
        self.slots.push(spec);
        Ok(())
    }

    /// Looks up a slot spec.
    pub fn slot(&self, id: SlotId) -> Result<SlotSpec, LayoutError> {
        self.slots
            .iter()
            .copied()
            .find(|s| s.id == id)
            .ok_or(LayoutError::UnknownSlot)
    }

    /// All registered slots.
    #[must_use]
    pub fn slots(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// Slots of a given kind, in registration order.
    pub fn slots_of_kind(&self, kind: SlotKind) -> impl Iterator<Item = &SlotSpec> {
        self.slots.iter().filter(move |s| s.kind == kind)
    }

    /// Reads from a slot at `offset` within the slot.
    pub fn read_slot(&self, id: SlotId, offset: u32, buf: &mut [u8]) -> Result<(), LayoutError> {
        let spec = self.slot(id)?;
        if u64::from(offset) + buf.len() as u64 > u64::from(spec.size) {
            return Err(LayoutError::Flash(FlashError::OutOfBounds));
        }
        self.devices[spec.device].read(spec.offset + offset, buf)?;
        Counters::add(
            &self.tracer.counters().flash_reads[Counters::slot_bucket(id.0)],
            buf.len() as u64,
        );
        Ok(())
    }

    /// Reads from a slot, counting the bytes toward [`Self::total_stats`].
    pub fn read_slot_counted(
        &mut self,
        id: SlotId,
        offset: u32,
        buf: &mut [u8],
    ) -> Result<(), LayoutError> {
        self.read_slot(id, offset, buf)?;
        self.bytes_read += buf.len() as u64;
        self.tracer.emit(|| Event::FlashRead {
            slot: id.0,
            bytes: buf.len() as u64,
        });
        Ok(())
    }

    /// Writes to a slot at `offset` within the slot, with no implicit
    /// erase: the caller erases first, as the agent erases the target slot
    /// before the pipeline's buffer stage writes into it.
    pub fn write_slot(&mut self, id: SlotId, offset: u32, data: &[u8]) -> Result<(), LayoutError> {
        let spec = self.slot(id)?;
        if u64::from(offset) + data.len() as u64 > u64::from(spec.size) {
            return Err(LayoutError::Flash(FlashError::OutOfBounds));
        }
        self.devices[spec.device].write(spec.offset + offset, data)?;
        Counters::add(
            &self.tracer.counters().flash_writes[Counters::slot_bucket(id.0)],
            data.len() as u64,
        );
        self.tracer.emit(|| Event::FlashWrite {
            slot: id.0,
            bytes: data.len() as u64,
        });
        Ok(())
    }

    /// Erases every sector of a slot.
    pub fn erase_slot(&mut self, id: SlotId) -> Result<(), LayoutError> {
        let spec = self.slot(id)?;
        let sector = self.devices[spec.device].geometry().sector_size;
        let erase_counter = &self.tracer.counters().flash_erases[Counters::slot_bucket(id.0)];
        let mut addr = spec.offset;
        let mut sectors = 0u64;
        while addr < spec.offset + spec.size {
            // Charge as we go: a power cut mid-erase must still account
            // for the sectors that were consumed before the failure.
            self.devices[spec.device].erase_sector(addr)?;
            Counters::add(erase_counter, 1);
            addr += sector;
            sectors += 1;
        }
        self.tracer.emit(|| Event::FlashErase {
            slot: id.0,
            sectors,
        });
        Ok(())
    }

    /// Erases the sector of a slot containing slot-relative `offset`.
    pub fn erase_slot_sector(&mut self, id: SlotId, offset: u32) -> Result<(), LayoutError> {
        let spec = self.slot(id)?;
        if offset >= spec.size {
            return Err(LayoutError::Flash(FlashError::OutOfBounds));
        }
        self.devices[spec.device].erase_sector(spec.offset + offset)?;
        Counters::add(
            &self.tracer.counters().flash_erases[Counters::slot_bucket(id.0)],
            1,
        );
        self.tracer.emit(|| Event::FlashErase {
            slot: id.0,
            sectors: 1,
        });
        Ok(())
    }

    /// Copies `src` into `dst` sector by sector (erasing `dst` as it goes),
    /// using a single sector-sized RAM buffer as on the device.
    pub fn copy_slot(&mut self, src: SlotId, dst: SlotId) -> Result<(), LayoutError> {
        let src_spec = self.slot(src)?;
        let dst_spec = self.slot(dst)?;
        if src_spec.size != dst_spec.size {
            return Err(LayoutError::SizeMismatch);
        }
        let sector = self.devices[dst_spec.device].geometry().sector_size;
        // Striding with one sector size across two devices is only sound
        // when they agree; mixed geometries would mis-align erases.
        if self.devices[src_spec.device].geometry().sector_size != sector {
            return Err(LayoutError::SizeMismatch);
        }
        let counters = self.tracer.counters();
        let src_bucket = Counters::slot_bucket(src.0);
        let dst_bucket = Counters::slot_bucket(dst.0);
        let mut buf = vec![0u8; sector as usize];
        let mut offset = 0u32;
        while offset < src_spec.size {
            self.devices[src_spec.device].read(src_spec.offset + offset, &mut buf)?;
            self.bytes_read += u64::from(sector);
            Counters::add(&counters.flash_reads[src_bucket], u64::from(sector));
            self.devices[dst_spec.device].erase_sector(dst_spec.offset + offset)?;
            Counters::add(&counters.flash_erases[dst_bucket], 1);
            self.devices[dst_spec.device].write(dst_spec.offset + offset, &buf)?;
            Counters::add(&counters.flash_writes[dst_bucket], u64::from(sector));
            offset += sector;
        }
        Ok(())
    }

    /// Swaps the contents of two equal-sized slots sector by sector with
    /// two RAM buffers — the static-update loading-phase operation whose
    /// cost Fig. 8c compares against the A/B jump.
    pub fn swap_slots(&mut self, a: SlotId, b: SlotId) -> Result<(), LayoutError> {
        let a_spec = self.slot(a)?;
        let b_spec = self.slot(b)?;
        if a_spec.size != b_spec.size {
            return Err(LayoutError::SizeMismatch);
        }
        let sector = self.devices[a_spec.device].geometry().sector_size;
        if self.devices[b_spec.device].geometry().sector_size != sector {
            return Err(LayoutError::SizeMismatch);
        }
        let counters = self.tracer.counters();
        let a_bucket = Counters::slot_bucket(a.0);
        let b_bucket = Counters::slot_bucket(b.0);
        let mut buf_a = vec![0u8; sector as usize];
        let mut buf_b = vec![0u8; sector as usize];
        let mut offset = 0u32;
        while offset < a_spec.size {
            self.devices[a_spec.device].read(a_spec.offset + offset, &mut buf_a)?;
            self.devices[b_spec.device].read(b_spec.offset + offset, &mut buf_b)?;
            self.bytes_read += 2 * u64::from(sector);
            Counters::add(&counters.flash_reads[a_bucket], u64::from(sector));
            Counters::add(&counters.flash_reads[b_bucket], u64::from(sector));
            self.devices[a_spec.device].erase_sector(a_spec.offset + offset)?;
            Counters::add(&counters.flash_erases[a_bucket], 1);
            self.devices[a_spec.device].write(a_spec.offset + offset, &buf_b)?;
            Counters::add(&counters.flash_writes[a_bucket], u64::from(sector));
            self.devices[b_spec.device].erase_sector(b_spec.offset + offset)?;
            Counters::add(&counters.flash_erases[b_bucket], 1);
            self.devices[b_spec.device].write(b_spec.offset + offset, &buf_a)?;
            Counters::add(&counters.flash_writes[b_bucket], u64::from(sector));
            offset += sector;
        }
        Counters::add(&counters.slot_swaps, 1);
        self.tracer.emit(|| Event::SlotsSwapped { a: a.0, b: b.0 });
        Ok(())
    }

    /// Mutable access to a backing device (power-loss arming in tests).
    pub fn device_mut(&mut self, index: usize) -> Option<&mut (dyn FlashDevice + '_)> {
        self.devices.get_mut(index).map(|d| &mut **d as _)
    }

    /// Clears any armed power cut on every backing device — the moment
    /// power returns on a simulated reboot. Fault-injecting devices may
    /// use this signal to arm a follow-up cut on the recovery path.
    pub fn disarm_power_cuts(&mut self) {
        for device in &mut self.devices {
            device.disarm_power_cut();
        }
    }

    /// Geometry of a backing device.
    #[must_use]
    pub fn device_geometry(&self, index: usize) -> Option<crate::device::FlashGeometry> {
        self.devices.get(index).map(|d| d.geometry())
    }

    /// Highest per-sector erase count across all devices (endurance).
    #[must_use]
    pub fn max_sector_wear(&self) -> u32 {
        self.devices
            .iter()
            .map(|d| d.max_sector_wear())
            .max()
            .unwrap_or(0)
    }

    /// Aggregated flash statistics across all devices, plus layout-level
    /// read accounting.
    #[must_use]
    pub fn total_stats(&self) -> FlashStats {
        let mut total = FlashStats {
            bytes_read: self.bytes_read,
            ..FlashStats::default()
        };
        for device in &self.devices {
            let s = device.stats();
            total.bytes_written += s.bytes_written;
            total.write_ops += s.write_ops;
            total.sectors_erased += s.sectors_erased;
        }
        total
    }

    /// Resets all statistics.
    pub fn reset_stats(&mut self) {
        self.bytes_read = 0;
        for device in &mut self.devices {
            device.reset_stats();
        }
    }
}

/// Conventional slot ids used by the standard configurations.
pub mod standard {
    use super::SlotId;

    /// Primary bootable slot.
    pub const SLOT_A: SlotId = SlotId(0);
    /// Secondary slot (bootable in Configuration A, staging in B).
    pub const SLOT_B: SlotId = SlotId(1);
    /// Optional recovery slot on external flash.
    pub const RECOVERY: SlotId = SlotId(2);
}

/// Builds the paper's **Configuration A**: two bootable slots on internal
/// flash (A/B updates — the bootloader jumps to the newest valid slot).
pub fn configuration_a(
    internal: Box<dyn FlashDevice>,
    slot_size: u32,
) -> Result<MemoryLayout, LayoutError> {
    let mut layout = MemoryLayout::new();
    let dev = layout.add_device(internal);
    layout.add_slot(SlotSpec {
        id: standard::SLOT_A,
        kind: SlotKind::Bootable,
        device: dev,
        offset: 0,
        size: slot_size,
    })?;
    layout.add_slot(SlotSpec {
        id: standard::SLOT_B,
        kind: SlotKind::Bootable,
        device: dev,
        offset: slot_size,
        size: slot_size,
    })?;
    Ok(layout)
}

/// Builds the paper's **Configuration A** including the recovery slot of
/// Fig. 6: two bootable slots on internal flash plus a non-bootable
/// recovery slot on external memory holding a known-good image.
pub fn configuration_a_with_recovery(
    internal: Box<dyn FlashDevice>,
    external: Box<dyn FlashDevice>,
    slot_size: u32,
) -> Result<MemoryLayout, LayoutError> {
    let mut layout = configuration_a(internal, slot_size)?;
    let ext = layout.add_device(external);
    layout.add_slot(SlotSpec {
        id: standard::RECOVERY,
        kind: SlotKind::NonBootable,
        device: ext,
        offset: 0,
        size: slot_size,
    })?;
    Ok(layout)
}

/// Builds the paper's **Configuration B**: one bootable slot plus one
/// non-bootable staging slot (static updates — images are swapped or copied
/// into the bootable slot). Pass an external device to place the staging
/// slot off-chip, as on the CC2650.
pub fn configuration_b(
    internal: Box<dyn FlashDevice>,
    external: Option<Box<dyn FlashDevice>>,
    slot_size: u32,
) -> Result<MemoryLayout, LayoutError> {
    let mut layout = MemoryLayout::new();
    let internal_dev = layout.add_device(internal);
    let (staging_dev, staging_offset) = match external {
        Some(dev) => (layout.add_device(dev), 0),
        None => (internal_dev, slot_size),
    };
    layout.add_slot(SlotSpec {
        id: standard::SLOT_A,
        kind: SlotKind::Bootable,
        device: internal_dev,
        offset: 0,
        size: slot_size,
    })?;
    layout.add_slot(SlotSpec {
        id: standard::SLOT_B,
        kind: SlotKind::NonBootable,
        device: staging_dev,
        offset: staging_offset,
        size: slot_size,
    })?;
    Ok(layout)
}

/// Builds a multi-component layout on internal flash: `components`
/// (bootable, staging) slot pairs followed by a one-slot commit journal.
///
/// Component `c`'s bootable slot is `SlotId(2c)`, its staging slot
/// `SlotId(2c + 1)`; the journal slot is `SlotId(2 * components)` and is
/// `journal_size` bytes (one sector is enough).
pub fn configuration_multi(
    internal: Box<dyn FlashDevice>,
    components: u8,
    slot_size: u32,
    journal_size: u32,
) -> Result<MemoryLayout, LayoutError> {
    let mut layout = MemoryLayout::new();
    let dev = layout.add_device(internal);
    for c in 0..components {
        let pair_base = u32::from(c) * 2 * slot_size;
        layout.add_slot(SlotSpec {
            id: SlotId(c * 2),
            kind: SlotKind::Bootable,
            device: dev,
            offset: pair_base,
            size: slot_size,
        })?;
        layout.add_slot(SlotSpec {
            id: SlotId(c * 2 + 1),
            kind: SlotKind::NonBootable,
            device: dev,
            offset: pair_base + slot_size,
            size: slot_size,
        })?;
    }
    layout.add_slot(SlotSpec {
        id: SlotId(components * 2),
        kind: SlotKind::NonBootable,
        device: dev,
        offset: u32::from(components) * 2 * slot_size,
        size: journal_size,
    })?;
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FlashGeometry;
    use crate::sim::SimFlash;

    fn geometry() -> FlashGeometry {
        FlashGeometry {
            size: 4096 * 8,
            sector_size: 4096,
            read_micros_per_byte: 1,
            write_micros_per_byte: 8,
            erase_micros_per_sector: 1000,
        }
    }

    fn layout_ab() -> MemoryLayout {
        configuration_a(Box::new(SimFlash::new(geometry())), 4096 * 3).unwrap()
    }

    #[test]
    fn configuration_a_has_two_bootable_slots() {
        let layout = layout_ab();
        assert_eq!(layout.slots_of_kind(SlotKind::Bootable).count(), 2);
        assert_eq!(layout.slots_of_kind(SlotKind::NonBootable).count(), 0);
    }

    #[test]
    fn configuration_b_internal_staging() {
        let layout = configuration_b(Box::new(SimFlash::new(geometry())), None, 4096 * 2).unwrap();
        assert_eq!(layout.slots_of_kind(SlotKind::Bootable).count(), 1);
        let staging = layout.slot(standard::SLOT_B).unwrap();
        assert_eq!(staging.device, 0);
        assert_eq!(staging.offset, 4096 * 2);
    }

    #[test]
    fn configuration_b_external_staging() {
        let layout = configuration_b(
            Box::new(SimFlash::new(geometry())),
            Some(Box::new(SimFlash::new(FlashGeometry::external_spi_nor()))),
            4096 * 2,
        )
        .unwrap();
        let staging = layout.slot(standard::SLOT_B).unwrap();
        assert_eq!(staging.device, 1);
        assert_eq!(staging.offset, 0);
    }

    #[test]
    fn rejects_misaligned_slot() {
        let mut layout = MemoryLayout::new();
        let dev = layout.add_device(Box::new(SimFlash::new(geometry())));
        let bad = SlotSpec {
            id: SlotId(9),
            kind: SlotKind::Bootable,
            device: dev,
            offset: 100, // not sector aligned
            size: 4096,
        };
        assert_eq!(layout.add_slot(bad), Err(LayoutError::InvalidSpec));
    }

    #[test]
    fn rejects_overlapping_slots() {
        let mut layout = MemoryLayout::new();
        let dev = layout.add_device(Box::new(SimFlash::new(geometry())));
        layout
            .add_slot(SlotSpec {
                id: SlotId(0),
                kind: SlotKind::Bootable,
                device: dev,
                offset: 0,
                size: 4096 * 2,
            })
            .unwrap();
        let overlapping = SlotSpec {
            id: SlotId(1),
            kind: SlotKind::Bootable,
            device: dev,
            offset: 4096,
            size: 4096,
        };
        assert_eq!(layout.add_slot(overlapping), Err(LayoutError::InvalidSpec));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let mut layout = MemoryLayout::new();
        let dev = layout.add_device(Box::new(SimFlash::new(geometry())));
        let spec = SlotSpec {
            id: SlotId(0),
            kind: SlotKind::Bootable,
            device: dev,
            offset: 0,
            size: 4096,
        };
        layout.add_slot(spec).unwrap();
        let same_id_elsewhere = SlotSpec {
            offset: 4096,
            ..spec
        };
        assert_eq!(
            layout.add_slot(same_id_elsewhere),
            Err(LayoutError::InvalidSpec)
        );
    }

    #[test]
    fn rejects_out_of_bounds_slot() {
        let mut layout = MemoryLayout::new();
        let dev = layout.add_device(Box::new(SimFlash::new(geometry())));
        let too_big = SlotSpec {
            id: SlotId(0),
            kind: SlotKind::Bootable,
            device: dev,
            offset: 4096 * 6,
            size: 4096 * 3,
        };
        assert_eq!(layout.add_slot(too_big), Err(LayoutError::InvalidSpec));
    }

    #[test]
    fn slot_read_write_round_trip() {
        let mut layout = layout_ab();
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, 16, b"image-bytes")
            .unwrap();
        let mut buf = [0u8; 11];
        layout.read_slot(standard::SLOT_A, 16, &mut buf).unwrap();
        assert_eq!(&buf, b"image-bytes");
    }

    #[test]
    fn slot_bounds_enforced() {
        let mut layout = layout_ab();
        let mut buf = [0u8; 32];
        assert!(matches!(
            layout.read_slot(standard::SLOT_A, 4096 * 3 - 16, &mut buf),
            Err(LayoutError::Flash(FlashError::OutOfBounds))
        ));
        assert!(matches!(
            layout.write_slot(standard::SLOT_A, 4096 * 3, b"x"),
            Err(LayoutError::Flash(FlashError::OutOfBounds))
        ));
        assert_eq!(
            layout.read_slot(SlotId(77), 0, &mut buf),
            Err(LayoutError::UnknownSlot)
        );
    }

    #[test]
    fn copy_slot_moves_image() {
        let mut layout = layout_ab();
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout
            .write_slot(standard::SLOT_A, 0, b"firmware-v2")
            .unwrap();
        layout
            .copy_slot(standard::SLOT_A, standard::SLOT_B)
            .unwrap();
        let mut buf = [0u8; 11];
        layout.read_slot(standard::SLOT_B, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"firmware-v2");
    }

    #[test]
    fn swap_slots_exchanges_contents() {
        let mut layout = layout_ab();
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout.erase_slot(standard::SLOT_B).unwrap();
        layout.write_slot(standard::SLOT_A, 0, b"AAAA").unwrap();
        layout.write_slot(standard::SLOT_B, 0, b"BBBB").unwrap();
        layout
            .swap_slots(standard::SLOT_A, standard::SLOT_B)
            .unwrap();
        let mut buf = [0u8; 4];
        layout.read_slot(standard::SLOT_A, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"BBBB");
        layout.read_slot(standard::SLOT_B, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"AAAA");
    }

    #[test]
    fn swap_cost_is_two_erases_and_writes_per_sector() {
        let mut layout = layout_ab();
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout.erase_slot(standard::SLOT_B).unwrap();
        layout.reset_stats();
        layout
            .swap_slots(standard::SLOT_A, standard::SLOT_B)
            .unwrap();
        let stats = layout.total_stats();
        // 3 sectors per slot: 6 erases, 6 sector-writes, 6 sector-reads.
        assert_eq!(stats.sectors_erased, 6);
        assert_eq!(stats.bytes_written, 6 * 4096);
        assert_eq!(stats.bytes_read, 6 * 4096);
    }

    #[test]
    fn torn_slot_erase_charges_only_completed_sectors() {
        use upkit_trace::Tracer;

        // The trace ledger and the device stats must tell the same story
        // when a power cut lands mid-erase: sectors that completed are
        // charged, the torn one is not.
        let mut layout = layout_ab();
        let tracer = Tracer::disabled();
        layout.set_tracer(tracer.clone());

        // Budget covers one full 4096-byte sector plus part of the next.
        layout
            .device_mut(0)
            .unwrap()
            .arm_power_cut_after(4096 + 100);
        assert_eq!(
            layout.erase_slot(standard::SLOT_A),
            Err(LayoutError::Flash(FlashError::PowerLoss))
        );
        let snap = tracer.counters().snapshot();
        assert_eq!(
            snap.flash_erases[Counters::slot_bucket(standard::SLOT_A.0)],
            1,
            "exactly one sector completed before the cut"
        );
        assert_eq!(layout.total_stats().sectors_erased, 1);
        assert_eq!(layout.max_sector_wear(), 1, "the torn sector earns no wear");
    }

    #[test]
    fn torn_slot_write_charges_nothing_to_the_tracer() {
        use upkit_trace::Tracer;

        let mut layout = layout_ab();
        let tracer = Tracer::disabled();
        layout.set_tracer(tracer.clone());
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout.reset_stats();

        layout.device_mut(0).unwrap().arm_power_cut_after(7);
        assert_eq!(
            layout.write_slot(standard::SLOT_A, 0, &[0u8; 16]),
            Err(LayoutError::Flash(FlashError::PowerLoss))
        );
        let snap = tracer.counters().snapshot();
        assert_eq!(
            snap.flash_writes[Counters::slot_bucket(standard::SLOT_A.0)],
            0,
            "an interrupted slot write charges no trace bytes"
        );
        assert_eq!(
            layout.total_stats().bytes_written,
            7,
            "device stats count exactly the landed bytes"
        );

        // Power restored: the ledger resumes normally.
        layout.disarm_power_cuts();
        layout.write_slot(standard::SLOT_A, 16, &[0u8; 16]).unwrap();
        let snap = tracer.counters().snapshot();
        assert_eq!(
            snap.flash_writes[Counters::slot_bucket(standard::SLOT_A.0)],
            16
        );
    }

    #[test]
    fn copy_rejects_size_mismatch() {
        let mut layout = MemoryLayout::new();
        let dev = layout.add_device(Box::new(SimFlash::new(geometry())));
        layout
            .add_slot(SlotSpec {
                id: SlotId(0),
                kind: SlotKind::Bootable,
                device: dev,
                offset: 0,
                size: 4096,
            })
            .unwrap();
        layout
            .add_slot(SlotSpec {
                id: SlotId(1),
                kind: SlotKind::NonBootable,
                device: dev,
                offset: 4096,
                size: 4096 * 2,
            })
            .unwrap();
        assert_eq!(
            layout.copy_slot(SlotId(0), SlotId(1)),
            Err(LayoutError::SizeMismatch)
        );
        assert_eq!(
            layout.swap_slots(SlotId(0), SlotId(1)),
            Err(LayoutError::SizeMismatch)
        );
    }
}
