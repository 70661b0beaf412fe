//! Fault-injecting flash proxy for crash-consistency exploration.
//!
//! [`FaultFlash`] wraps any [`FlashDevice`] and operates in one of two
//! modes. In *recording* mode it passes every operation through and
//! appends each mutating op (write, sector erase) to a shared
//! [`OpLog`]; the log's indices are the *boundaries* a model checker can
//! later inject faults at. In *injection* mode it counts mutating ops
//! and, when the planned boundary is reached, fires a fault drawn from
//! the NOR failure model: a clean power cut, a torn write (half the
//! bytes programmed), a torn erase (half the sector reset), or a bit
//! flip left behind by a half-programmed cell. After the fault the
//! device stays dead — every further mutation fails with
//! [`FlashError::PowerLoss`] — until [`FlashDevice::disarm_power_cut`]
//! simulates power restoration. A [`FaultPlan`] can additionally
//! schedule a *second* cut relative to the moment power returns, which
//! models a crash inside the recovery path itself (the "double cut").

use alloc::sync::Arc;
use std::sync::Mutex;

use crate::device::{FlashDevice, FlashError, FlashGeometry, FlashStats};

/// One recorded flash operation, in device order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlashOp {
    /// A program operation covering `len` bytes at `addr`.
    Write {
        /// Start address of the program operation.
        addr: u32,
        /// Number of bytes programmed.
        len: u32,
    },
    /// A sector erase of the sector containing `addr`.
    EraseSector {
        /// Address inside the erased sector.
        addr: u32,
    },
    /// A reboot marker appended by the harness between the propagation
    /// session and the boot phase (not a device operation; never counted
    /// as an injection boundary).
    Reboot,
}

/// Shared, append-only log of recorded operations.
pub type OpLog = Arc<Mutex<Vec<FlashOp>>>;

/// The primary fault fired at a planned boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation fails before touching the array.
    CleanCut,
    /// A write programs half of its bytes, then power dies. On an erase
    /// boundary this degenerates to a clean cut.
    TornWrite,
    /// An erase resets half of its sector, then power dies. On a write
    /// boundary this degenerates to a clean cut.
    TornErase,
    /// A clean cut that additionally leaves one cell of the target
    /// address half-programmed: the byte's top bit reads back cleared.
    /// (Clearing a bit is always legal on NOR, so the corruption is
    /// injected through the device's own write path.)
    BitFlip,
}

/// A planned fault: fire `kind` at the `boundary`-th mutating operation
/// (zero-based, counting writes and sector erases), optionally followed
/// by a second clean cut `recovery_cut` mutating ops after power is
/// next restored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Zero-based index of the mutating op the fault fires at.
    pub boundary: u64,
    /// Which fault fires there.
    pub kind: FaultKind,
    /// When `Some(n)`, the first call to `disarm_power_cut` after the
    /// fault (power restored) arms a second clean cut at the `n`-th
    /// mutating op from that moment — a crash inside the recovery path.
    pub recovery_cut: Option<u64>,
}

enum Armed {
    /// Recording or pass-through: no fault planned.
    Idle,
    /// A fault is planned but has not fired yet.
    Pending(FaultPlan),
    /// The fault fired; the device is dead until power is restored.
    Cut { recovery_cut: Option<u64> },
}

/// Shared handle that arms a fault plan on a [`FaultFlash`] already
/// owned elsewhere (typically buried inside a `MemoryLayout`). The plan
/// is adopted before the proxy's next mutating op, replacing any plan
/// still pending — which lets a caller provision a world fault-free,
/// reset the boundary epoch, and only then schedule the fault.
#[derive(Clone, Default)]
pub struct FaultHandle(Arc<Mutex<Option<FaultPlan>>>);

impl FaultHandle {
    /// Arms `plan`; the proxy picks it up at its next mutating op.
    pub fn inject(&self, plan: FaultPlan) {
        *self.0.lock().expect("fault handle poisoned") = Some(plan);
    }
}

/// A [`FlashDevice`] proxy that records operation boundaries or injects
/// one planned fault at such a boundary. See the module docs for the
/// fault model.
pub struct FaultFlash {
    inner: Box<dyn FlashDevice>,
    /// Mutating ops seen so far (writes + sector erases; reads excluded).
    ops: u64,
    log: Option<OpLog>,
    armed: Armed,
    inject: FaultHandle,
}

impl FaultFlash {
    /// Wraps `inner` in recording mode; returns the proxy and the shared
    /// op log it appends to.
    #[must_use]
    pub fn recording(inner: Box<dyn FlashDevice>) -> (Self, OpLog) {
        let log: OpLog = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                inner,
                ops: 0,
                log: Some(Arc::clone(&log)),
                armed: Armed::Idle,
                inject: FaultHandle::default(),
            },
            log,
        )
    }

    /// Wraps `inner` in injection mode with one planned fault.
    #[must_use]
    pub fn with_fault(inner: Box<dyn FlashDevice>, plan: FaultPlan) -> Self {
        Self {
            inner,
            ops: 0,
            log: None,
            armed: Armed::Pending(plan),
            inject: FaultHandle::default(),
        }
    }

    /// Wraps `inner` idle; the returned [`FaultHandle`] arms a plan
    /// later, from outside whatever structure ends up owning the proxy.
    #[must_use]
    pub fn injectable(inner: Box<dyn FlashDevice>) -> (Self, FaultHandle) {
        let handle = FaultHandle::default();
        (
            Self {
                inner,
                ops: 0,
                log: None,
                armed: Armed::Idle,
                inject: handle.clone(),
            },
            handle,
        )
    }

    /// Adopts an externally injected plan, if one is waiting.
    fn adopt_injection(&mut self) {
        if let Some(plan) = self.inject.0.lock().expect("fault handle poisoned").take() {
            self.armed = Armed::Pending(plan);
        }
    }

    /// Mutating operations (writes + sector erases) observed so far.
    #[must_use]
    pub fn ops_seen(&self) -> u64 {
        self.ops
    }

    /// Whether the planned fault has fired and power has not been
    /// restored since.
    #[must_use]
    pub fn is_cut(&self) -> bool {
        matches!(self.armed, Armed::Cut { .. })
    }

    /// Counts the op and reports the plan if this op is its boundary.
    fn take_boundary(&mut self) -> Option<FaultPlan> {
        let index = self.ops;
        self.ops += 1;
        match self.armed {
            Armed::Pending(plan) if plan.boundary == index => Some(plan),
            _ => None,
        }
    }

    /// Leaves the byte at `addr` looking half-programmed: its top bit
    /// reads back as 0. Injected through the inner device's own write
    /// path, which only ever clears bits — legal NOR behaviour. When the
    /// bit is already 0 the flip is a deterministic no-op.
    fn flip_bit(&mut self, addr: u32) {
        let mut byte = [0u8; 1];
        if self.inner.read(addr, &mut byte).is_ok() {
            let _ = self.inner.write(addr, &[byte[0] & 0x7F]);
        }
    }
}

impl FlashDevice for FaultFlash {
    fn geometry(&self) -> FlashGeometry {
        self.inner.geometry()
    }

    fn read(&self, addr: u32, buf: &mut [u8]) -> Result<(), FlashError> {
        // Reads pass through even after a cut, matching the byte-budget
        // model: the simulated MCU reboots and reads whatever the array
        // holds. Post-cut corruption is persisted at injection time.
        self.inner.read(addr, buf)
    }

    fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), FlashError> {
        self.adopt_injection();
        if self.is_cut() {
            return Err(FlashError::PowerLoss);
        }
        if let Some(plan) = self.take_boundary() {
            let torn_budget = match plan.kind {
                FaultKind::TornWrite => (data.len() / 2) as u64,
                FaultKind::CleanCut | FaultKind::TornErase => 0,
                FaultKind::BitFlip => {
                    self.flip_bit(addr);
                    0
                }
            };
            self.inner.arm_power_cut_after(torn_budget);
            let result = self.inner.write(addr, data);
            self.inner.disarm_power_cut();
            self.armed = Armed::Cut {
                recovery_cut: plan.recovery_cut,
            };
            // A zero-length write survives a zero budget; the cut still
            // happened, so the caller sees power loss either way.
            return Err(result.err().unwrap_or(FlashError::PowerLoss));
        }
        if let Some(log) = &self.log {
            log.lock().expect("op log poisoned").push(FlashOp::Write {
                addr,
                len: data.len() as u32,
            });
        }
        self.inner.write(addr, data)
    }

    fn erase_sector(&mut self, addr: u32) -> Result<(), FlashError> {
        self.adopt_injection();
        if self.is_cut() {
            return Err(FlashError::PowerLoss);
        }
        if let Some(plan) = self.take_boundary() {
            let torn_budget = match plan.kind {
                FaultKind::TornErase => u64::from(self.inner.geometry().sector_size / 2),
                FaultKind::CleanCut | FaultKind::TornWrite => 0,
                FaultKind::BitFlip => {
                    self.flip_bit(addr);
                    0
                }
            };
            self.inner.arm_power_cut_after(torn_budget);
            let result = self.inner.erase_sector(addr);
            self.inner.disarm_power_cut();
            self.armed = Armed::Cut {
                recovery_cut: plan.recovery_cut,
            };
            return Err(result.err().unwrap_or(FlashError::PowerLoss));
        }
        if let Some(log) = &self.log {
            log.lock()
                .expect("op log poisoned")
                .push(FlashOp::EraseSector { addr });
        }
        self.inner.erase_sector(addr)
    }

    fn stats(&self) -> FlashStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        // The boundary epoch matches the stats epoch: a scenario that
        // resets its counters after provisioning (as `update_world`
        // does) thereby indexes boundaries over update-time ops only —
        // a pending plan's boundary never lands inside provisioning,
        // and a recording starts clean.
        self.ops = 0;
        if let Some(log) = &self.log {
            log.lock().expect("op log poisoned").clear();
        }
        self.inner.reset_stats();
    }

    fn arm_power_cut_after(&mut self, bytes: u64) {
        self.inner.arm_power_cut_after(bytes);
    }

    fn disarm_power_cut(&mut self) {
        self.inner.disarm_power_cut();
        self.armed = match core::mem::replace(&mut self.armed, Armed::Idle) {
            // Power restored after the fault: either the plan's second
            // cut arms now (relative to this moment's op count), or the
            // device is healthy again.
            Armed::Cut {
                recovery_cut: Some(after),
            } => Armed::Pending(FaultPlan {
                boundary: self.ops + after,
                kind: FaultKind::CleanCut,
                recovery_cut: None,
            }),
            Armed::Cut { recovery_cut: None } => Armed::Idle,
            // A pending fault survives reboots: its boundary has not
            // been reached yet.
            other => other,
        };
    }

    fn max_sector_wear(&self) -> u32 {
        self.inner.max_sector_wear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimFlash;

    fn sim() -> SimFlash {
        SimFlash::new(FlashGeometry::untimed(4096 * 4, 4096))
    }

    fn plan(boundary: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            boundary,
            kind,
            recovery_cut: None,
        }
    }

    #[test]
    fn recording_logs_every_mutating_op_and_no_reads() {
        let (mut flash, log) = FaultFlash::recording(Box::new(sim()));
        flash.erase_sector(0).unwrap();
        flash.write(16, &[0xA0; 8]).unwrap();
        let mut buf = [0u8; 8];
        flash.read(16, &mut buf).unwrap();
        flash.erase_sector(4096).unwrap();
        assert_eq!(
            log.lock().unwrap().as_slice(),
            &[
                FlashOp::EraseSector { addr: 0 },
                FlashOp::Write { addr: 16, len: 8 },
                FlashOp::EraseSector { addr: 4096 },
            ]
        );
        assert_eq!(flash.ops_seen(), 3);
    }

    #[test]
    fn clean_cut_fires_at_the_boundary_and_kills_later_ops() {
        let mut flash = FaultFlash::with_fault(Box::new(sim()), plan(1, FaultKind::CleanCut));
        flash.erase_sector(0).unwrap(); // op 0
        assert_eq!(flash.write(0, &[0; 8]), Err(FlashError::PowerLoss)); // op 1: cut
        assert!(flash.is_cut());
        // Nothing landed, and the device stays dead.
        let mut buf = [0xAAu8; 8];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 8]);
        assert_eq!(flash.erase_sector(0), Err(FlashError::PowerLoss));
        // Power restored: fully healthy again.
        flash.disarm_power_cut();
        flash.write(0, &[0; 8]).unwrap();
    }

    #[test]
    fn torn_write_lands_exactly_half_the_bytes() {
        let mut flash = FaultFlash::with_fault(Box::new(sim()), plan(1, FaultKind::TornWrite));
        flash.erase_sector(0).unwrap();
        assert_eq!(flash.write(0, &[0x11; 10]), Err(FlashError::PowerLoss));
        flash.disarm_power_cut();
        let mut buf = [0u8; 10];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(&buf[..5], &[0x11; 5], "first half programmed");
        assert_eq!(&buf[5..], &[0xFF; 5], "second half untouched");
    }

    #[test]
    fn torn_erase_resets_half_the_sector() {
        let mut flash = FaultFlash::with_fault(Box::new(sim()), plan(2, FaultKind::TornErase));
        flash.erase_sector(0).unwrap(); // op 0
        flash.write(0, &[0x00; 4096]).unwrap(); // op 1
        assert_eq!(flash.erase_sector(0), Err(FlashError::PowerLoss)); // op 2: torn
        flash.disarm_power_cut();
        let mut buf = vec![0u8; 4096];
        flash.read(0, &mut buf).unwrap();
        assert!(buf[..2048].iter().all(|&b| b == 0xFF), "front half erased");
        assert!(buf[2048..].iter().all(|&b| b == 0x00), "back half stale");
        assert_eq!(flash.max_sector_wear(), 1, "the torn erase earns no wear");
    }

    #[test]
    fn bit_flip_clears_the_top_bit_of_the_target_byte() {
        let mut flash = FaultFlash::with_fault(Box::new(sim()), plan(2, FaultKind::BitFlip));
        flash.erase_sector(0).unwrap(); // op 0
        flash.write(0, &[0xFF; 4]).unwrap(); // op 1 (no-op program, all ones)
        assert_eq!(flash.write(0, &[0xF0; 4]), Err(FlashError::PowerLoss)); // op 2
        flash.disarm_power_cut();
        let mut buf = [0u8; 4];
        flash.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x7F, "half-programmed cell reads back flipped");
        assert_eq!(&buf[1..], &[0xFF; 3], "only the target byte corrupted");
    }

    #[test]
    fn double_cut_arms_a_second_cut_when_power_returns() {
        let mut flash = FaultFlash::with_fault(
            Box::new(sim()),
            FaultPlan {
                boundary: 1,
                kind: FaultKind::CleanCut,
                recovery_cut: Some(1),
            },
        );
        flash.erase_sector(0).unwrap(); // op 0
        assert_eq!(flash.write(0, &[0; 4]), Err(FlashError::PowerLoss)); // op 1: first cut
        flash.disarm_power_cut(); // power restored; second cut armed 1 op out
        flash.write(0, &[0; 4]).unwrap(); // recovery op survives
        assert_eq!(flash.write(4, &[0; 4]), Err(FlashError::PowerLoss)); // second cut
        flash.disarm_power_cut(); // second restore: healthy for good
        flash.write(4, &[0; 4]).unwrap();
        assert!(!flash.is_cut());
    }

    #[test]
    fn pending_fault_survives_a_disarm_before_its_boundary() {
        let mut flash = FaultFlash::with_fault(Box::new(sim()), plan(2, FaultKind::CleanCut));
        flash.erase_sector(0).unwrap(); // op 0
        flash.disarm_power_cut(); // a reboot before the boundary changes nothing
        flash.write(0, &[0; 4]).unwrap(); // op 1
        assert_eq!(flash.write(4, &[0; 4]), Err(FlashError::PowerLoss)); // op 2
    }

    #[test]
    fn reset_stats_starts_a_fresh_boundary_epoch() {
        // Provisioning-style traffic before reset_stats must count
        // toward neither the recorded log nor a plan's boundary index.
        let (mut flash, log) = FaultFlash::recording(Box::new(sim()));
        flash.erase_sector(0).unwrap();
        flash.write(0, &[0; 8]).unwrap();
        assert_eq!(flash.ops_seen(), 2);
        flash.reset_stats();
        assert_eq!(flash.ops_seen(), 0);
        assert!(log.lock().unwrap().is_empty());
        flash.write(8, &[0; 4]).unwrap();
        assert_eq!(log.lock().unwrap().len(), 1);

        // An injected plan after the reset indexes from the new epoch:
        // boundary 0 means "the first post-provisioning op", not the
        // first op ever.
        let (mut flash, handle) = FaultFlash::injectable(Box::new(sim()));
        flash.erase_sector(0).unwrap(); // provisioning traffic
        flash.reset_stats();
        handle.inject(plan(0, FaultKind::CleanCut));
        assert_eq!(flash.write(0, &[0; 4]), Err(FlashError::PowerLoss)); // op 0 of the new epoch
    }
}
