//! In-memory simulated NOR flash with wear tracking and power-loss
//! injection.

use alloc::vec;
use alloc::vec::Vec;

use crate::device::{FlashDevice, FlashError, FlashGeometry, FlashStats};

/// A simulated NOR flash chip.
///
/// Enforces the real-device invariants — erase-before-write (writes AND
/// into the array and fail if they would need to set a bit), whole-sector
/// erase to `0xFF` — and tracks per-sector wear. A power-loss point can be
/// armed to cut an operation mid-way, leaving partially-programmed data
/// behind exactly as a real brown-out would; UpKit's power-loss-safety
/// tests drive this.
///
/// # Examples
///
/// ```
/// use upkit_flash::{SimFlash, FlashDevice, FlashGeometry};
///
/// let mut flash = SimFlash::new(FlashGeometry::internal_cc2650());
/// flash.erase_sector(0).unwrap();
/// flash.write(0, b"boot").unwrap();
/// let mut buf = [0u8; 4];
/// flash.read(0, &mut buf).unwrap();
/// assert_eq!(&buf, b"boot");
/// ```
#[derive(Debug)]
pub struct SimFlash {
    geometry: FlashGeometry,
    data: Vec<u8>,
    wear: Vec<u32>,
    stats: FlashStats,
    /// Remaining write budget before a simulated power cut, if armed.
    power_cut_after_bytes: Option<u64>,
    strict_program: bool,
}

impl SimFlash {
    /// Creates a device with every sector erased (`0xFF`).
    ///
    /// # Panics
    ///
    /// Panics if the geometry's size is not a positive multiple of its
    /// sector size.
    #[must_use]
    pub fn new(geometry: FlashGeometry) -> Self {
        assert!(
            geometry.sector_size > 0 && geometry.size.is_multiple_of(geometry.sector_size),
            "flash size must be a positive multiple of the sector size"
        );
        Self {
            data: vec![0xFF; geometry.size as usize],
            wear: vec![0; geometry.sector_count() as usize],
            geometry,
            stats: FlashStats::default(),
            power_cut_after_bytes: None,
            strict_program: true,
        }
    }

    /// Disables the erase-before-write check: writes AND silently, as some
    /// flash controllers permit. Used to model the paper's platforms that
    /// tolerate bit-clearing overwrites.
    pub fn set_strict_program(&mut self, strict: bool) {
        self.strict_program = strict;
    }

    /// Erase count of the sector containing `addr`, or `None` when
    /// `addr` is past the end of the device — the same bounds policy as
    /// the read/write/erase paths, which return
    /// [`FlashError::OutOfBounds`] rather than panicking.
    #[must_use]
    pub fn sector_wear(&self, addr: u32) -> Option<u32> {
        self.wear
            .get((addr / self.geometry.sector_size) as usize)
            .copied()
    }

    /// Highest erase count across all sectors.
    #[must_use]
    pub fn max_wear(&self) -> u32 {
        self.wear.iter().copied().max().unwrap_or(0)
    }

    fn check_range(&self, addr: u32, len: usize) -> Result<(), FlashError> {
        let end = u64::from(addr) + len as u64;
        if end > u64::from(self.geometry.size) {
            Err(FlashError::OutOfBounds)
        } else {
            Ok(())
        }
    }
}

impl FlashDevice for SimFlash {
    fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), FlashError> {
        self.check_range(addr, buf.len())?;
        let start = addr as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        // Reads are free to count: interior mutability would complicate the
        // trait, so read stats are tracked by
        // `MemoryLayout::read_slot_counted` instead.
        Ok(())
    }

    fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), FlashError> {
        self.check_range(addr, data.len())?;
        self.stats.write_ops += 1;
        let start = addr as usize;
        for (i, &byte) in data.iter().enumerate() {
            if let Some(budget) = self.power_cut_after_bytes.as_mut() {
                if *budget == 0 {
                    return Err(FlashError::PowerLoss);
                }
                *budget -= 1;
            }
            let current = self.data[start + i];
            if self.strict_program && byte & !current != 0 {
                return Err(FlashError::WriteWithoutErase);
            }
            self.data[start + i] = current & byte;
            self.stats.bytes_written += 1;
        }
        Ok(())
    }

    fn erase_sector(&mut self, addr: u32) -> Result<(), FlashError> {
        self.check_range(addr, 1)?;
        let sector = addr / self.geometry.sector_size;
        let start = (sector * self.geometry.sector_size) as usize;
        let end = start + self.geometry.sector_size as usize;
        if let Some(budget) = self.power_cut_after_bytes.as_mut() {
            // An erase consumes sector-size worth of the write budget.
            let cost = u64::from(self.geometry.sector_size);
            if *budget < cost {
                // Partial erase: model as fully erased up to the budget.
                let partial_end = start + *budget as usize;
                self.data[start..partial_end].fill(0xFF);
                *budget = 0;
                return Err(FlashError::PowerLoss);
            }
            *budget -= cost;
        }
        self.data[start..end].fill(0xFF);
        self.wear[sector as usize] += 1;
        self.stats.sectors_erased += 1;
        Ok(())
    }

    fn stats(&self) -> FlashStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
    }

    fn arm_power_cut_after(&mut self, bytes: u64) {
        self.power_cut_after_bytes = Some(bytes);
    }

    fn disarm_power_cut(&mut self) {
        self.power_cut_after_bytes = None;
    }

    fn max_sector_wear(&self) -> u32 {
        self.max_wear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimFlash {
        SimFlash::new(FlashGeometry {
            size: 4096 * 4,
            sector_size: 4096,
            read_micros_per_byte: 1,
            write_micros_per_byte: 8,
            erase_micros_per_sector: 1000,
        })
    }

    #[test]
    fn starts_erased() {
        let flash = small();
        let mut buf = [0u8; 16];
        flash.read(100, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 16]);
    }

    #[test]
    fn write_then_read_back() {
        let mut flash = small();
        flash.write(0, b"hello flash").unwrap();
        let mut buf = [0u8; 11];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello flash");
    }

    #[test]
    fn write_cannot_set_bits() {
        let mut flash = small();
        flash.write(0, &[0x0F]).unwrap();
        // 0x0F -> 0xF0 would need setting bits 4-7? No: 0xF0 & !0x0F != 0.
        assert_eq!(flash.write(0, &[0xF0]), Err(FlashError::WriteWithoutErase));
        // Clearing more bits is fine.
        flash.write(0, &[0x05]).unwrap();
        let mut buf = [0u8; 1];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x05);
    }

    #[test]
    fn non_strict_mode_ands_silently() {
        let mut flash = small();
        flash.set_strict_program(false);
        flash.write(0, &[0x0F]).unwrap();
        flash.write(0, &[0xF0]).unwrap();
        let mut buf = [0u8; 1];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x00); // AND of both writes
    }

    #[test]
    fn erase_restores_ff_and_counts_wear() {
        let mut flash = small();
        flash.write(4096, &[0u8; 100]).unwrap();
        assert_eq!(flash.sector_wear(4096), Some(0));
        flash.erase_sector(4096 + 50).unwrap();
        assert_eq!(flash.sector_wear(4096), Some(1));
        let mut buf = [0u8; 100];
        flash.read(4096, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 100]);
        // Other sectors untouched.
        assert_eq!(flash.sector_wear(0), Some(0));
        assert_eq!(flash.max_wear(), 1);
    }

    #[test]
    fn sector_wear_is_none_past_the_end() {
        let flash = small(); // 4 sectors of 4096
        assert_eq!(flash.sector_wear(4096 * 4 - 1), Some(0)); // last byte
        assert_eq!(flash.sector_wear(4096 * 4), None); // first invalid addr
        assert_eq!(flash.sector_wear(u32::MAX), None);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut flash = small();
        let mut buf = [0u8; 8];
        assert_eq!(
            flash.read(4096 * 4 - 4, &mut buf),
            Err(FlashError::OutOfBounds)
        );
        assert_eq!(flash.write(4096 * 4, &[1]), Err(FlashError::OutOfBounds));
        assert_eq!(flash.erase_sector(4096 * 4), Err(FlashError::OutOfBounds));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut flash = small();
        flash.write(0, &[0u8; 64]).unwrap();
        flash.erase_sector(0).unwrap();
        let stats = flash.stats();
        assert_eq!(stats.bytes_written, 64);
        assert_eq!(stats.sectors_erased, 1);
        assert_eq!(stats.elapsed_micros(&flash.geometry()), 64 * 8 + 1000);
        flash.reset_stats();
        assert_eq!(flash.stats(), FlashStats::default());
    }

    #[test]
    fn power_cut_interrupts_write() {
        let mut flash = small();
        flash.arm_power_cut_after(10);
        assert_eq!(flash.write(0, &[0u8; 64]), Err(FlashError::PowerLoss));
        // Exactly 10 bytes landed.
        let mut buf = [0u8; 64];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(&buf[..10], &[0u8; 10]);
        assert_eq!(&buf[10..], &[0xFFu8; 54]);
        // After "reboot" the device works again.
        flash.disarm_power_cut();
        flash.write(16, &[0xAA; 4]).unwrap();
    }

    #[test]
    fn power_cut_interrupts_erase() {
        let mut flash = small();
        flash.write(0, &[0u8; 4096]).unwrap();
        flash.arm_power_cut_after(100);
        assert_eq!(flash.erase_sector(0), Err(FlashError::PowerLoss));
        let mut buf = [0u8; 200];
        flash.read(0, &mut buf).unwrap();
        // First 100 bytes erased, rest still programmed.
        assert_eq!(&buf[..100], &[0xFFu8; 100]);
        assert_eq!(&buf[100..], &[0u8; 100]);
    }

    #[test]
    fn torn_erase_earns_no_wear_and_no_erase_count() {
        // Accounting pin: a cut mid-erase leaves partially-reset data
        // behind but must not be counted as a completed erase cycle —
        // neither in the stats nor in the per-sector wear ledger.
        let mut flash = small();
        flash.erase_sector(0).unwrap();
        flash.write(0, &[0u8; 4096]).unwrap();
        let before = flash.stats();
        assert_eq!(flash.sector_wear(0), Some(1));

        flash.arm_power_cut_after(100);
        assert_eq!(flash.erase_sector(0), Err(FlashError::PowerLoss));
        let after = flash.stats();
        assert_eq!(after.sectors_erased, before.sectors_erased);
        assert_eq!(flash.sector_wear(0), Some(1), "torn erase earns no wear");
        assert_eq!(flash.max_wear(), 1);
        assert_eq!(
            after.bytes_written, before.bytes_written,
            "an erase programs no bytes, torn or not"
        );

        // Power restored: the completed retry is charged exactly once.
        flash.disarm_power_cut();
        flash.erase_sector(0).unwrap();
        assert_eq!(flash.stats().sectors_erased, before.sectors_erased + 1);
        assert_eq!(flash.sector_wear(0), Some(2));
    }

    #[test]
    fn torn_write_counts_exactly_the_landed_bytes() {
        // Accounting pin: `bytes_written` is the number of bytes that
        // actually reached the array, while `write_ops` still charges the
        // interrupted operation's fixed setup cost.
        let mut flash = small();
        flash.arm_power_cut_after(10);
        assert_eq!(flash.write(0, &[0u8; 64]), Err(FlashError::PowerLoss));
        let stats = flash.stats();
        assert_eq!(stats.bytes_written, 10);
        assert_eq!(stats.write_ops, 1);
        assert_eq!(stats.sectors_erased, 0);

        // A second attempt while still cut lands nothing more but still
        // pays its op cost.
        assert_eq!(flash.write(32, &[0u8; 8]), Err(FlashError::PowerLoss));
        let stats = flash.stats();
        assert_eq!(stats.bytes_written, 10);
        assert_eq!(stats.write_ops, 2);
    }

    #[test]
    #[should_panic(expected = "multiple of the sector size")]
    fn rejects_misaligned_geometry() {
        let _ = SimFlash::new(FlashGeometry::untimed(5000, 4096));
    }
}
