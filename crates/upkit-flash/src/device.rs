//! The flash-device abstraction: what UpKit's *memory interface* sits on.
//!
//! Real NOR flash — the storage on every platform the paper evaluates —
//! has three properties that shape UpKit's memory module: writes can only
//! clear bits (`1 → 0`), erasure happens in whole sectors (resetting them to
//! `0xFF`), and sectors wear out. [`FlashDevice`] captures exactly this
//! contract so the slot and IO layers behave like their on-device
//! counterparts.

/// Errors surfaced by flash devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// An access extended beyond the end of the device.
    OutOfBounds,
    /// A write tried to set a cleared bit (`0 → 1`) without an erase.
    WriteWithoutErase,
    /// Simulated power loss interrupted the operation mid-way.
    PowerLoss,
    /// The backing store failed (file-backed devices).
    Backing,
}

impl core::fmt::Display for FlashError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::OutOfBounds => f.write_str("flash access out of bounds"),
            Self::WriteWithoutErase => {
                f.write_str("flash write attempted to set a bit without erasing")
            }
            Self::PowerLoss => f.write_str("power lost during flash operation"),
            Self::Backing => f.write_str("flash backing store failed"),
        }
    }
}

impl core::error::Error for FlashError {}

/// Geometry and timing of a flash device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Total capacity in bytes (a multiple of `sector_size`).
    pub size: u32,
    /// Erase-sector size in bytes.
    pub sector_size: u32,
    /// Microseconds to read one byte (amortized).
    pub read_micros_per_byte: u64,
    /// Microseconds to program one byte (amortized).
    pub write_micros_per_byte: u64,
    /// Microseconds to erase one sector.
    pub erase_micros_per_sector: u64,
}

impl FlashGeometry {
    /// Internal flash of an nRF52840-class MCU: 4 kB sectors.
    #[must_use]
    pub fn internal_nrf52840() -> Self {
        Self {
            size: 1024 * 1024,
            sector_size: 4096,
            read_micros_per_byte: 0, // memory-mapped reads
            write_micros_per_byte: 8,
            erase_micros_per_sector: 85_000,
        }
    }

    /// Internal flash of a TI CC2650-class MCU (128 kB, 4 kB sectors).
    #[must_use]
    pub fn internal_cc2650() -> Self {
        Self {
            size: 128 * 1024,
            sector_size: 4096,
            read_micros_per_byte: 0,
            write_micros_per_byte: 10,
            erase_micros_per_sector: 8_000,
        }
    }

    /// External SPI NOR flash (as used by the CC2650 LaunchPad for the
    /// non-bootable slot): slower, accessed over the serial bus.
    #[must_use]
    pub fn external_spi_nor() -> Self {
        Self {
            size: 1024 * 1024,
            sector_size: 4096,
            read_micros_per_byte: 2,
            write_micros_per_byte: 12,
            erase_micros_per_sector: 60_000,
        }
    }

    /// A `size`-byte flash of `sector_size`-byte sectors whose operations
    /// take no simulated time, for runs that count bytes, not microseconds.
    #[must_use]
    pub fn untimed(size: u32, sector_size: u32) -> Self {
        Self {
            size,
            sector_size,
            read_micros_per_byte: 0,
            write_micros_per_byte: 0,
            erase_micros_per_sector: 0,
        }
    }

    /// Number of sectors on the device.
    #[must_use]
    pub fn sector_count(&self) -> u32 {
        self.size / self.sector_size
    }
}

/// Cumulative operation counters, the basis for time/energy accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes programmed.
    pub bytes_written: u64,
    /// Number of program operations (write calls). Real flash controllers
    /// pay a fixed setup cost per operation, which is why UpKit's buffer
    /// stage batches writes to sector size.
    pub write_ops: u64,
    /// Total sector erasures.
    pub sectors_erased: u64,
}

impl FlashStats {
    /// Microseconds of flash time implied by these counters under `geometry`.
    #[must_use]
    pub fn elapsed_micros(&self, geometry: &FlashGeometry) -> u64 {
        self.bytes_read * geometry.read_micros_per_byte
            + self.bytes_written * geometry.write_micros_per_byte
            + self.sectors_erased * geometry.erase_micros_per_sector
    }
}

/// A sector-erased, bit-clearing flash device.
pub trait FlashDevice: Send {
    /// Device geometry.
    fn geometry(&self) -> FlashGeometry;

    /// Reads `buf.len()` bytes starting at `addr`.
    fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), FlashError>;

    /// Programs `data` at `addr`. Only bit transitions `1 → 0` are legal;
    /// attempting to set a bit fails with [`FlashError::WriteWithoutErase`].
    fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), FlashError>;

    /// Erases the sector containing `addr` back to `0xFF`.
    fn erase_sector(&mut self, addr: u32) -> Result<(), FlashError>;

    /// Operation counters since construction (or the last reset).
    fn stats(&self) -> FlashStats;

    /// Resets the operation counters.
    fn reset_stats(&mut self);

    /// Testing hook: arms a simulated power cut after `bytes` further
    /// programmed/erased bytes.
    ///
    /// Required (no default body) deliberately: an early revision gave
    /// `disarm_power_cut` an empty default, so a device could implement
    /// arming and silently inherit a no-op disarm — the cut then stuck
    /// across simulated reboots forever. Forcing every implementation to
    /// spell out both halves keeps arm/disarm in one place per device.
    fn arm_power_cut_after(&mut self, bytes: u64);

    /// Testing hook: clears any armed power cut (the simulated reboot).
    /// Must leave the device fully operational; see [`Self::arm_power_cut_after`]
    /// for why this has no default body.
    fn disarm_power_cut(&mut self);

    /// Highest per-sector erase count, for endurance studies. Devices that
    /// do not track wear report 0.
    fn max_sector_wear(&self) -> u32 {
        0
    }
}
