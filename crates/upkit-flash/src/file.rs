//! File-backed flash device.
//!
//! The paper's memory interface "allows assigning a Linux file to each
//! slot, which gives the ability to work with devices supporting a file
//! system, as well as to test the modules without the need of a simulator."
//! [`FileFlash`] reproduces that: the same NOR semantics as [`crate::SimFlash`],
//! persisted to a file after every mutation.

use std::fs;
use std::path::{Path, PathBuf};

use crate::device::{FlashDevice, FlashError, FlashGeometry, FlashStats};
use crate::sim::SimFlash;

/// A flash device persisted to a file on the host filesystem.
#[derive(Debug)]
pub struct FileFlash {
    inner: SimFlash,
    path: PathBuf,
}

impl FileFlash {
    /// Opens (or creates) a file-backed device at `path`.
    ///
    /// An existing file must match the geometry's size exactly; a missing
    /// file is created fully erased.
    pub fn open(path: impl AsRef<Path>, geometry: FlashGeometry) -> Result<Self, FlashError> {
        let path = path.as_ref().to_path_buf();
        let mut inner = SimFlash::new(geometry);
        match fs::read(&path) {
            Ok(contents) => {
                if contents.len() != geometry.size as usize {
                    return Err(FlashError::Backing);
                }
                // Restore contents bypassing program-semantics checks.
                inner.set_strict_program(false);
                inner.write(0, &contents).map_err(|_| FlashError::Backing)?;
                inner.set_strict_program(true);
                inner.reset_stats();
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::write(&path, vec![0xFF; geometry.size as usize])
                    .map_err(|_| FlashError::Backing)?;
            }
            Err(_) => return Err(FlashError::Backing),
        }
        Ok(Self { inner, path })
    }

    /// Path of the backing file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn persist(&self) -> Result<(), FlashError> {
        let size = self.inner.geometry().size as usize;
        let mut contents = vec![0u8; size];
        self.inner.read(0, &mut contents)?;
        fs::write(&self.path, contents).map_err(|_| FlashError::Backing)
    }
}

impl FlashDevice for FileFlash {
    fn geometry(&self) -> FlashGeometry {
        self.inner.geometry()
    }

    fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), FlashError> {
        self.inner.read(addr, buf)
    }

    fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), FlashError> {
        self.inner.write(addr, data)?;
        self.persist()
    }

    fn erase_sector(&mut self, addr: u32) -> Result<(), FlashError> {
        self.inner.erase_sector(addr)?;
        self.persist()
    }

    fn stats(&self) -> FlashStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn arm_power_cut_after(&mut self, bytes: u64) {
        self.inner.arm_power_cut_after(bytes);
    }

    fn disarm_power_cut(&mut self) {
        self.inner.disarm_power_cut();
    }

    fn max_sector_wear(&self) -> u32 {
        self.inner.max_sector_wear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_geometry() -> FlashGeometry {
        FlashGeometry::untimed(4096 * 2, 4096)
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "upkit-flash-test-{}-{name}.bin",
            std::process::id()
        ));
        p
    }

    #[test]
    fn contents_survive_reopen() {
        let path = temp_path("reopen");
        let _ = fs::remove_file(&path);
        {
            let mut flash = FileFlash::open(&path, tiny_geometry()).unwrap();
            flash.erase_sector(0).unwrap();
            flash.write(0, b"persisted").unwrap();
        }
        {
            let flash = FileFlash::open(&path, tiny_geometry()).unwrap();
            let mut buf = [0u8; 9];
            flash.read(0, &mut buf).unwrap();
            assert_eq!(&buf, b"persisted");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fresh_file_is_erased() {
        let path = temp_path("fresh");
        let _ = fs::remove_file(&path);
        let flash = FileFlash::open(&path, tiny_geometry()).unwrap();
        let mut buf = [0u8; 64];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 64]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn size_mismatch_rejected() {
        let path = temp_path("mismatch");
        fs::write(&path, vec![0u8; 100]).unwrap();
        assert_eq!(
            FileFlash::open(&path, tiny_geometry()).map(|_| ()),
            Err(FlashError::Backing)
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn nor_semantics_enforced() {
        let path = temp_path("semantics");
        let _ = fs::remove_file(&path);
        let mut flash = FileFlash::open(&path, tiny_geometry()).unwrap();
        flash.write(16, &[0x0F]).unwrap();
        assert_eq!(flash.write(16, &[0xF0]), Err(FlashError::WriteWithoutErase));
        flash.erase_sector(0).unwrap();
        flash.write(16, &[0xF0]).unwrap();
        let _ = fs::remove_file(&path);
    }
}
