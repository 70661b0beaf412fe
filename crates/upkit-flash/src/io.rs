//! POSIX-like slot IO: UpKit's *memory interface*.
//!
//! The paper models slot access on the standard POSIX IO functions — open,
//! read, write, close — with flash-specific open modes:
//!
//! * [`OpenMode::ReadOnly`] — reads only.
//! * [`OpenMode::WriteAll`] — erases the whole slot at open, then writes
//!   sequentially (used when the incoming image size is known up front).
//! * [`OpenMode::SequentialRewrite`] — erases each sector lazily the first
//!   time the write cursor enters it (for a writer that learns the image
//!   size only as data streams in).
//!
//! No update path opens a [`SlotHandle`]: the agent erases the whole
//! target slot when it issues the device token, and the pipeline's buffer
//! stage then writes sector-sized runs through
//! [`MemoryLayout::write_slot`]. The handle is the paper's POSIX-style
//! interface, kept for integrations that stream into a slot themselves.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::layout::{LayoutError, MemoryLayout, SlotId, SlotSpec};

/// How a slot is opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Only reads are permitted.
    ReadOnly,
    /// The entire slot is erased at open; writes proceed sequentially.
    WriteAll,
    /// Each sector is erased when the write cursor first enters it.
    SequentialRewrite,
}

/// An open slot with a cursor, borrowed from a [`MemoryLayout`].
///
/// # Examples
///
/// ```
/// use upkit_flash::{configuration_a, standard, OpenMode, SimFlash, FlashGeometry};
///
/// let mut layout = configuration_a(
///     Box::new(SimFlash::new(FlashGeometry::internal_nrf52840())),
///     4096 * 4,
/// ).unwrap();
/// let mut slot = layout.open(standard::SLOT_A, OpenMode::WriteAll).unwrap();
/// slot.write(b"firmware image").unwrap();
/// slot.close();
///
/// let mut slot = layout.open(standard::SLOT_A, OpenMode::ReadOnly).unwrap();
/// let mut buf = [0u8; 14];
/// slot.read(&mut buf).unwrap();
/// assert_eq!(&buf, b"firmware image");
/// ```
#[derive(Debug)]
pub struct SlotHandle<'a> {
    layout: &'a mut MemoryLayout,
    spec: SlotSpec,
    mode: OpenMode,
    pos: u32,
    /// Next slot-relative offset that still needs erasing
    /// (`SequentialRewrite` only).
    next_unerased: u32,
    sector_size: u32,
}

impl MemoryLayout {
    /// Opens a slot, applying the mode's erase policy.
    pub fn open(&mut self, id: SlotId, mode: OpenMode) -> Result<SlotHandle<'_>, LayoutError> {
        let spec = self.slot(id)?;
        if mode == OpenMode::WriteAll {
            self.erase_slot(id)?;
        }
        let sector_size = self
            .device_geometry(spec.device)
            .ok_or(LayoutError::InvalidSpec)?
            .sector_size;
        Ok(SlotHandle {
            layout: self,
            spec,
            mode,
            pos: 0,
            next_unerased: 0,
            sector_size,
        })
    }
}

impl SlotHandle<'_> {
    /// Current cursor position within the slot.
    #[must_use]
    pub fn position(&self) -> u32 {
        self.pos
    }

    /// Size of the slot in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.spec.size
    }

    /// Moves the cursor. Seeking is only meaningful for reads; sequential
    /// write modes keep their own erase frontier.
    pub fn seek(&mut self, pos: u32) -> Result<(), LayoutError> {
        if pos > self.spec.size {
            return Err(LayoutError::Flash(crate::device::FlashError::OutOfBounds));
        }
        self.pos = pos;
        Ok(())
    }

    /// Reads `buf.len()` bytes at the cursor, advancing it.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<(), LayoutError> {
        self.layout.read_slot_counted(self.spec.id, self.pos, buf)?;
        self.pos += buf.len() as u32;
        Ok(())
    }

    /// Writes `data` at the cursor, advancing it. Fails in
    /// [`OpenMode::ReadOnly`].
    pub fn write(&mut self, data: &[u8]) -> Result<(), LayoutError> {
        match self.mode {
            OpenMode::ReadOnly => Err(LayoutError::Flash(
                crate::device::FlashError::WriteWithoutErase,
            )),
            OpenMode::WriteAll => {
                self.layout.write_slot(self.spec.id, self.pos, data)?;
                self.pos += data.len() as u32;
                Ok(())
            }
            OpenMode::SequentialRewrite => {
                let end = u64::from(self.pos) + data.len() as u64;
                if end > u64::from(self.spec.size) {
                    return Err(LayoutError::Flash(crate::device::FlashError::OutOfBounds));
                }
                // Erase every sector the write touches that has not been
                // erased yet.
                while u64::from(self.next_unerased) < end {
                    self.layout
                        .erase_slot_sector(self.spec.id, self.next_unerased)?;
                    self.next_unerased += self.sector_size;
                }
                self.layout.write_slot(self.spec.id, self.pos, data)?;
                self.pos += data.len() as u32;
                Ok(())
            }
        }
    }

    /// Closes the handle (drop also suffices; provided for API symmetry
    /// with the paper's POSIX-style interface).
    pub fn close(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{FlashError, FlashGeometry};
    use crate::layout::{configuration_a, standard};
    use crate::sim::SimFlash;

    fn layout() -> MemoryLayout {
        configuration_a(
            Box::new(SimFlash::new(FlashGeometry {
                size: 4096 * 8,
                sector_size: 4096,
                read_micros_per_byte: 1,
                write_micros_per_byte: 8,
                erase_micros_per_sector: 1000,
            })),
            4096 * 3,
        )
        .unwrap()
    }

    #[test]
    fn read_only_forbids_writes() {
        let mut layout = layout();
        let mut slot = layout.open(standard::SLOT_A, OpenMode::ReadOnly).unwrap();
        assert!(slot.write(b"nope").is_err());
    }

    #[test]
    fn write_all_erases_upfront() {
        let mut layout = layout();
        // Dirty the slot first.
        layout.erase_slot(standard::SLOT_A).unwrap();
        layout.write_slot(standard::SLOT_A, 0, &[0u8; 64]).unwrap();
        layout.reset_stats();

        let mut slot = layout.open(standard::SLOT_A, OpenMode::WriteAll).unwrap();
        slot.write(b"fresh").unwrap();
        slot.close();
        // All 3 sectors erased at open.
        assert_eq!(layout.total_stats().sectors_erased, 3);
        let mut buf = [0u8; 5];
        layout.read_slot(standard::SLOT_A, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"fresh");
    }

    #[test]
    fn sequential_rewrite_erases_lazily() {
        let mut layout = layout();
        layout.reset_stats();
        let mut slot = layout
            .open(standard::SLOT_A, OpenMode::SequentialRewrite)
            .unwrap();
        // Write 100 bytes: only the first sector should be erased.
        slot.write(&[0xAB; 100]).unwrap();
        assert_eq!(slot.layout.total_stats().sectors_erased, 1);
        // Write past the first sector boundary: second sector erased.
        slot.write(&vec![0xCD; 4096]).unwrap();
        assert_eq!(slot.layout.total_stats().sectors_erased, 2);
        slot.close();
        assert_eq!(layout.total_stats().sectors_erased, 2);
    }

    #[test]
    fn sequential_rewrite_content_correct_across_sectors() {
        let mut layout = layout();
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
        let mut slot = layout
            .open(standard::SLOT_A, OpenMode::SequentialRewrite)
            .unwrap();
        for chunk in data.chunks(317) {
            slot.write(chunk).unwrap();
        }
        slot.close();
        let mut buf = vec![0u8; data.len()];
        layout.read_slot(standard::SLOT_A, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn cursor_and_seek() {
        let mut layout = layout();
        let mut slot = layout.open(standard::SLOT_A, OpenMode::WriteAll).unwrap();
        slot.write(b"0123456789").unwrap();
        assert_eq!(slot.position(), 10);
        slot.seek(4).unwrap();
        let mut buf = [0u8; 3];
        slot.read(&mut buf).unwrap();
        assert_eq!(&buf, b"456");
        assert_eq!(slot.position(), 7);
        assert!(slot.seek(slot.size() + 1).is_err());
    }

    #[test]
    fn writes_beyond_slot_rejected() {
        let mut layout = layout();
        let mut slot = layout
            .open(standard::SLOT_A, OpenMode::SequentialRewrite)
            .unwrap();
        slot.seek(slot.size() - 4).unwrap();
        assert!(matches!(
            slot.write(&[0u8; 8]),
            Err(LayoutError::Flash(FlashError::OutOfBounds))
        ));
    }

    #[test]
    fn reads_count_into_stats() {
        let mut layout = layout();
        layout.reset_stats();
        let mut slot = layout.open(standard::SLOT_A, OpenMode::ReadOnly).unwrap();
        let mut buf = [0u8; 128];
        slot.read(&mut buf).unwrap();
        slot.close();
        assert_eq!(layout.total_stats().bytes_read, 128);
    }

    #[test]
    fn overwriting_programmed_flash_fails_without_erase() {
        let mut layout = layout();
        let mut slot = layout
            .open(standard::SLOT_A, OpenMode::SequentialRewrite)
            .unwrap();
        slot.write(&[0x11; 16]).unwrap();
        slot.close();
        // Raw write_slot bypasses the erase policy, so setting bits fails —
        // the invariant a real NOR controller enforces.
        let err = layout
            .write_slot(standard::SLOT_A, 0, &[0xFF; 4])
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Flash(FlashError::WriteWithoutErase)
        ));
    }
}
