//! The 2-D NEST PE array.

use serde::{Deserialize, Serialize};

/// A functional `AH × AW` NEST array with lane-striped accumulators.
///
/// The array is dataflow-agnostic: the caller decides which iAct goes to
/// which PE and which weight it multiplies against; the array provides the
/// ping/pong weight registers, the accumulators, the per-column bus
/// discipline (one row fires at a time) and the activity counters.
///
/// Each PE carries `lanes` accumulators, one per batch sample (a single
/// sample is `lanes = 1`); the stripe of PE `(row, col)` lives at
/// `(row * cols + col) * lanes ..`. The counters describe one sample
/// whatever the lane count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NestArray {
    rows: usize,
    cols: usize,
    lanes: usize,
    /// The ping register of every PE: the weights MACs read.
    active: Vec<Vec<i8>>,
    /// The pong register of every PE: the weights loads write, so the next
    /// tile's weights stream in while the current tile computes (§III-A).
    shadow: Vec<Vec<i8>>,
    accs: Vec<i32>,
    macs: u64,
    fires: u64,
}

impl NestArray {
    /// Creates an array with `rows` (AH) × `cols` (AW) PEs.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        NestArray::with_lanes(rows, cols, 1)
    }

    /// Creates an array whose PEs carry `lanes` batched accumulator lanes
    /// (see [`NestArray::mac_stripe`]). `lanes` is clamped to at least 1.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn with_lanes(rows: usize, cols: usize, lanes: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "NEST array dimensions must be non-zero"
        );
        let lanes = lanes.max(1);
        NestArray {
            rows,
            cols,
            lanes,
            active: vec![Vec::new(); rows * cols],
            shadow: vec![Vec::new(); rows * cols],
            accs: vec![0; rows * cols * lanes],
            macs: 0,
            fires: 0,
        }
    }

    /// Number of batched accumulator lanes per PE.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of PE rows (AH).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PE columns (AW) — also the BIRRD width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of row fires performed so far.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Total MACs performed, one per [`NestArray::mac_operand`] or
    /// [`NestArray::mac_stripe`] call.
    pub fn total_macs(&self) -> u64 {
        self.macs
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "PE ({row},{col}) out of range"
        );
        row * self.cols + col
    }

    /// Loads weights into the shadow register of one PE. Overwrites in
    /// place, so reloading a register allocates nothing.
    pub fn load_weights(&mut self, row: usize, col: usize, weights: &[i8]) {
        let idx = self.index(row, col);
        self.shadow[idx].clear();
        self.shadow[idx].extend_from_slice(weights);
    }

    /// Swaps ping/pong weight registers across the whole array (new tile).
    pub fn swap_all_weights(&mut self) {
        std::mem::swap(&mut self.active, &mut self.shadow);
    }

    /// [`NestArray::mac_operand`] against active weight `weight_index` of the
    /// PE's register.
    ///
    /// # Panics
    /// Panics if `weight_index` is out of range of the active weights or
    /// `iacts` is not one value per lane.
    #[inline]
    pub fn mac_stripe(&mut self, row: usize, col: usize, iacts: &[i8], weight_index: usize) {
        let weight = self.active[self.index(row, col)][weight_index];
        self.mac_operand(row, col, iacts, weight);
    }

    /// Performs one Phase-1 MAC across all lanes of a PE: every lane's input
    /// activation multiplies against the stationary `weight` into that
    /// lane's accumulator, and [`NestArray::total_macs`] advances by **one**
    /// — the activity of a single sample. The caller supplies the weight, so
    /// a tile's filter tensor can be addressed in place instead of copied
    /// into the registers.
    ///
    /// # Panics
    /// Panics if `iacts` is not one value per lane.
    #[inline]
    pub fn mac_operand(&mut self, row: usize, col: usize, iacts: &[i8], weight: i8) {
        assert_eq!(iacts.len(), self.lanes, "one iAct per lane");
        let base = self.index(row, col) * self.lanes;
        self.macs += 1;
        let w = weight as i32;
        for (acc, &iact) in self.accs[base..base + self.lanes].iter_mut().zip(iacts) {
            *acc += iact as i32 * w;
        }
    }

    /// Fires one row (Phase 2): drains every column's lane-striped
    /// accumulators of `row` onto the bus, into caller-owned scratch
    /// (column-major stripes, so column `c` lane `l` lands at
    /// `bus[c * lanes + l]`). Unmapped columns drain too — stale partial
    /// sums never leak into the next tile — but the caller's `mapped` mask
    /// governs which stripes carry data. Counts one fire, matching a single
    /// sample's activity.
    ///
    /// # Panics
    /// Panics if `mapped` is not one entry per column or `bus` is not
    /// `cols * lanes` long.
    #[inline]
    pub fn fire_row_stripe(&mut self, row: usize, mapped: &[bool], bus: &mut [i32]) {
        assert_eq!(
            mapped.len(),
            self.cols,
            "mapped mask must have one entry per column"
        );
        assert_eq!(
            bus.len(),
            self.cols * self.lanes,
            "bus must have one stripe per column"
        );
        let row_base = self.index(row, 0) * self.lanes;
        let row_accs = &mut self.accs[row_base..row_base + self.cols * self.lanes];
        for (slot, acc) in bus.iter_mut().zip(row_accs.iter_mut()) {
            *slot = std::mem::take(acc);
        }
        self.fires += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires `row` of a one-lane array and returns its bus.
    fn fire(arr: &mut NestArray, row: usize) -> Vec<i32> {
        let mut bus = vec![0; arr.cols()];
        arr.fire_row_stripe(row, &vec![true; arr.cols()], &mut bus);
        bus
    }

    #[test]
    fn array_indexing() {
        let mut arr = NestArray::new(2, 3);
        assert_eq!(arr.num_pes(), 6);
        arr.load_weights(1, 2, &[5]);
        arr.swap_all_weights();
        arr.mac_stripe(1, 2, &[2], 0);
        assert_eq!(fire(&mut arr, 1), [0, 0, 10]);
        assert_eq!(fire(&mut arr, 0), [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pe_panics() {
        let mut arr = NestArray::new(2, 2);
        arr.mac_operand(2, 0, &[1], 1);
    }

    #[test]
    #[should_panic]
    fn mac_with_missing_weight_panics() {
        let mut arr = NestArray::new(1, 1);
        arr.load_weights(0, 0, &[4]);
        arr.swap_all_weights();
        arr.mac_stripe(0, 0, &[1], 1);
    }

    #[test]
    fn ping_pong_hides_next_tile_weights() {
        let mut arr = NestArray::new(1, 1);
        arr.load_weights(0, 0, &[1]);
        arr.swap_all_weights();
        // Next tile's weights load into the shadow register while the
        // current tile computes on the old ones.
        arr.load_weights(0, 0, &[10]);
        arr.mac_stripe(0, 0, &[3], 0);
        assert_eq!(fire(&mut arr, 0), [3]);
        arr.swap_all_weights();
        arr.mac_stripe(0, 0, &[3], 0);
        assert_eq!(fire(&mut arr, 0), [30]);
    }

    #[test]
    fn mac_accumulates_locally() {
        let mut arr = NestArray::new(1, 1);
        arr.load_weights(0, 0, &[2, -3]);
        arr.swap_all_weights();
        arr.mac_stripe(0, 0, &[5], 0);
        arr.mac_stripe(0, 0, &[4], 1);
        assert_eq!(arr.total_macs(), 2);
        assert_eq!(fire(&mut arr, 0), [10 - 12]);
    }

    #[test]
    fn fire_clears_accumulator() {
        let mut arr = NestArray::new(1, 1);
        arr.load_weights(0, 0, &[1]);
        arr.swap_all_weights();
        arr.mac_stripe(0, 0, &[7], 0);
        assert_eq!(fire(&mut arr, 0), [7]);
        // The next output starts from zero, not from the fired sum.
        arr.mac_stripe(0, 0, &[2], 0);
        assert_eq!(fire(&mut arr, 0), [2]);
    }

    #[test]
    fn fire_row_returns_column_values_and_clears() {
        let mut arr = NestArray::new(2, 4);
        for col in 0..4 {
            arr.mac_operand(0, col, &[(col + 1) as i8], 1);
        }
        let mut bus = vec![0; 4];
        arr.fire_row_stripe(0, &[true, true, false, true], &mut bus);
        assert_eq!(bus, [1, 2, 3, 4]);
        assert_eq!(arr.fires(), 1);
        // Accumulators cleared, including the unmapped column.
        assert_eq!(fire(&mut arr, 0), [0; 4]);
    }

    #[test]
    fn lane_striped_mac_and_fire_match_scalar_per_lane() {
        let lanes = 3usize;
        let mut batched = NestArray::with_lanes(1, 4, lanes);
        let mut solos: Vec<NestArray> = (0..lanes).map(|_| NestArray::new(1, 4)).collect();
        for col in 0..4 {
            let w = [col as i8 + 1, -(col as i8) - 2];
            batched.load_weights(0, col, &w);
            for solo in &mut solos {
                solo.load_weights(0, col, &w);
            }
        }
        batched.swap_all_weights();
        solos.iter_mut().for_each(NestArray::swap_all_weights);
        for col in 0..4 {
            for widx in 0..2 {
                let iacts: Vec<i8> = (0..lanes)
                    .map(|lane| (lane as i8 + 1) * (col as i8 - 1))
                    .collect();
                batched.mac_stripe(0, col, &iacts, widx);
                for (solo, &iact) in solos.iter_mut().zip(&iacts) {
                    solo.mac_stripe(0, col, &[iact], widx);
                }
            }
        }
        // Activity counters describe one sample.
        assert_eq!(batched.total_macs(), solos[0].total_macs());
        let mapped = [true, false, true, true];
        let mut bus = vec![0i32; 4 * lanes];
        batched.fire_row_stripe(0, &mapped, &mut bus);
        assert_eq!(batched.fires(), 1);
        for (lane, solo) in solos.iter_mut().enumerate() {
            let solo_bus = fire(solo, 0);
            for col in 0..4 {
                assert_eq!(bus[col * lanes + lane], solo_bus[col]);
            }
        }
        // Accumulators drained, mapped or not.
        let mut again = vec![0i32; 4 * lanes];
        batched.fire_row_stripe(0, &mapped, &mut again);
        assert!(again.iter().all(|&v| v == 0));
    }

    #[test]
    fn activity_counters_aggregate() {
        let mut arr = NestArray::new(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                arr.load_weights(r, c, &[1, 2]);
            }
        }
        arr.swap_all_weights();
        for r in 0..2 {
            for c in 0..2 {
                arr.mac_stripe(r, c, &[1], 0);
                arr.mac_operand(r, c, &[1], 2);
            }
        }
        assert_eq!(arr.total_macs(), 8);
    }
}
