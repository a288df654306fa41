//! Stateful register arrays with the PISA access discipline.
//!
//! A PISA stage exposes register arrays serviced by stateful ALUs; each
//! packet may perform **at most one read-modify-write per array**. Programs
//! that need to inspect several stored values therefore spread them across
//! several arrays (one per logical stage) — exactly the structure of the
//! paper's `d × w` matrices, which use `w` arrays of depth `d`.
//!
//! The discipline is enforced with per-packet *epochs*: the
//! [`Pipeline`](crate::pipeline::Pipeline) assigns every packet a fresh,
//! strictly increasing epoch, and an array rejects a second access with the
//! same epoch.

use crate::error::SwitchError;
use crate::Result;

/// A register array: `depth` cells of `width` bits, one RMW per packet.
///
/// Obtain instances from
/// [`ResourceLedger::register_array`](crate::resources::ResourceLedger::register_array)
/// so the SRAM and ALU budgets are charged.
#[derive(Debug, Clone)]
pub struct RegisterArray {
    stage: usize,
    width: u32,
    mask: u64,
    cells: Vec<u64>,
    last_epoch: u64,
    /// Accesses permitted per epoch: 1 normally; >1 for multiport arrays
    /// backed by several same-stage ALUs sharing the memory (the `*`
    /// assumption of Table 2, needed for §9's multi-entry packets).
    ports: u32,
    used_this_epoch: u32,
}

impl RegisterArray {
    pub(crate) fn new(stage: usize, depth: usize, width: u32) -> Self {
        Self::with_ports(stage, depth, width, 1)
    }

    pub(crate) fn with_ports(stage: usize, depth: usize, width: u32, ports: u32) -> Self {
        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        Self {
            stage,
            width,
            mask,
            cells: vec![0; depth],
            last_epoch: 0,
            ports: ports.max(1),
            used_this_epoch: 0,
        }
    }

    /// Accesses permitted per packet.
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Number of cells.
    pub fn depth(&self) -> usize {
        self.cells.len()
    }

    /// Cell width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Pipeline stage this array lives in.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Perform the single allowed read-modify-write for this packet.
    ///
    /// `epoch` must be strictly greater than any epoch previously passed to
    /// this array (the pipeline hands out one epoch per packet). The closure
    /// receives the current cell value and returns the new value; the old
    /// value is returned to the caller. Values are masked to the cell width
    /// on the way in and out.
    pub fn rmw(&mut self, epoch: u64, index: usize, f: impl FnOnce(u64) -> u64) -> Result<u64> {
        if epoch == self.last_epoch {
            if self.used_this_epoch >= self.ports {
                return Err(SwitchError::DoubleAccess { stage: self.stage });
            }
        } else if epoch < self.last_epoch {
            return Err(SwitchError::StaleEpoch { epoch, last: self.last_epoch });
        } else {
            self.used_this_epoch = 0;
        }
        let depth = self.cells.len();
        let cell =
            self.cells.get_mut(index).ok_or(SwitchError::IndexOutOfBounds { index, depth })?;
        self.last_epoch = epoch;
        self.used_this_epoch += 1;
        let old = *cell;
        *cell = f(old) & self.mask;
        Ok(old)
    }

    /// Read-only access for this packet. Counts as the packet's single
    /// access (hardware reads through the same RMW port).
    pub fn read(&mut self, epoch: u64, index: usize) -> Result<u64> {
        self.rmw(epoch, index, |v| v)
    }

    /// Control-plane read: no epoch discipline (the CPU reads registers out
    /// of band, e.g. when draining results — see Figure 7).
    pub fn control_read(&self, index: usize) -> Result<u64> {
        self.cells
            .get(index)
            .copied()
            .ok_or(SwitchError::IndexOutOfBounds { index, depth: self.cells.len() })
    }

    /// Control-plane reset of every cell to zero (switch reboot / new query).
    pub fn control_clear(&mut self) {
        self.cells.fill(0);
        self.last_epoch = 0;
        self.used_this_epoch = 0;
    }

    /// Total SRAM bits this array occupies.
    pub fn sram_bits(&self) -> u64 {
        self.cells.len() as u64 * u64::from(self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SwitchProfile;
    use crate::resources::ResourceLedger;

    fn array(depth: usize, width: u32) -> RegisterArray {
        let mut l = ResourceLedger::new(SwitchProfile::tofino1());
        l.register_array(0, depth, width).unwrap()
    }

    #[test]
    fn rmw_returns_old_value_and_stores_new() {
        let mut r = array(4, 64);
        assert_eq!(r.rmw(1, 2, |_| 42).unwrap(), 0);
        assert_eq!(r.rmw(2, 2, |v| v + 1).unwrap(), 42);
        assert_eq!(r.control_read(2).unwrap(), 43);
    }

    #[test]
    fn double_access_same_epoch_rejected() {
        let mut r = array(4, 64);
        r.rmw(1, 0, |v| v).unwrap();
        assert_eq!(r.rmw(1, 1, |v| v).unwrap_err(), SwitchError::DoubleAccess { stage: 0 });
    }

    #[test]
    fn stale_epoch_rejected() {
        let mut r = array(4, 64);
        r.rmw(5, 0, |v| v).unwrap();
        assert_eq!(r.rmw(3, 0, |v| v).unwrap_err(), SwitchError::StaleEpoch { epoch: 3, last: 5 });
    }

    #[test]
    fn values_masked_to_width() {
        let mut r = array(4, 8);
        r.rmw(1, 0, |_| 0x1FF).unwrap();
        assert_eq!(r.control_read(0).unwrap(), 0xFF);
    }

    #[test]
    fn width_64_not_truncated() {
        let mut r = array(1, 64);
        r.rmw(1, 0, |_| u64::MAX).unwrap();
        assert_eq!(r.control_read(0).unwrap(), u64::MAX);
    }

    #[test]
    fn out_of_bounds_index() {
        let mut r = array(4, 64);
        assert_eq!(
            r.rmw(1, 4, |v| v).unwrap_err(),
            SwitchError::IndexOutOfBounds { index: 4, depth: 4 }
        );
        // A failed bounds check must not burn the epoch.
        assert_eq!(r.rmw(1, 3, |_| 7).unwrap(), 0);
    }

    #[test]
    fn control_ops_bypass_epoch_discipline() {
        let mut r = array(2, 64);
        r.rmw(1, 0, |_| 10).unwrap();
        assert_eq!(r.cells, [10, 0]);
        r.control_clear();
        assert_eq!(r.cells, [0, 0]);
        // Clear resets the epoch discipline too.
        r.rmw(1, 0, |_| 1).unwrap();
    }

    #[test]
    fn read_counts_as_access() {
        let mut r = array(2, 64);
        r.read(1, 0).unwrap();
        assert!(r.read(1, 1).is_err());
    }

    #[test]
    fn sram_bits_accounting() {
        let r = array(128, 32);
        assert_eq!(r.sram_bits(), 128 * 32);
    }
}
