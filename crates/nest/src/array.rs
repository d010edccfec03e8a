//! The 2-D NEST PE array.

use serde::{Deserialize, Serialize};

use crate::pe::ProcessingElement;

/// The values one PE row places on the per-column output buses when it fires
/// (one locally-reduced partial sum per column).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowFire {
    /// Index of the firing row.
    pub row: usize,
    /// One value per column (`None` for columns without mapped work).
    pub values: Vec<Option<i32>>,
}

/// A functional `AH × AW` NEST array.
///
/// The array itself is dataflow-agnostic: the caller (the `feather` crate's
/// controller) decides which iAct goes to which PE and which weight index it
/// multiplies against; the array provides the PE storage, the per-column bus
/// discipline (only one row may fire per cycle) and activity counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NestArray {
    rows: usize,
    cols: usize,
    pes: Vec<ProcessingElement>,
    fires: u64,
    /// MACs performed through [`NestArray::mac_operand`].
    operand_macs: u64,
    lanes: usize,
    /// Per-PE lane-striped accumulators, the executor's working set: the
    /// stripe of PE `(row, col)` lives at `index(row, col) * lanes ..`. One
    /// lane carries one batch sample (scalar execution is `lanes = 1`); the
    /// activity counters describe a single sample whatever the lane count.
    /// The PEs' own accumulators serve the register-level `mac`/`fire_row`
    /// API only.
    lane_accs: Vec<i32>,
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
            pes: vec![ProcessingElement::new(); rows * cols],
            fires: 0,
            operand_macs: 0,
            lanes,
            lane_accs: vec![0; rows * cols * lanes],
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

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "PE ({row},{col}) out of range"
        );
        row * self.cols + col
    }

    /// Immutable access to one PE.
    pub fn pe(&self, row: usize, col: usize) -> &ProcessingElement {
        &self.pes[self.index(row, col)]
    }

    /// Mutable access to one PE.
    pub fn pe_mut(&mut self, row: usize, col: usize) -> &mut ProcessingElement {
        let idx = self.index(row, col);
        &mut self.pes[idx]
    }

    /// Loads weights into the shadow registers of one PE.
    pub fn load_weights(&mut self, row: usize, col: usize, weights: &[i8]) {
        self.pe_mut(row, col).load_weights(weights);
    }

    /// Swaps ping/pong weight registers across the whole array (new tile).
    pub fn swap_all_weights(&mut self) {
        for pe in &mut self.pes {
            pe.swap_weights();
        }
    }

    /// Performs one Phase-1 MAC on a single PE.
    pub fn mac(&mut self, row: usize, col: usize, iact: i8, weight_index: usize) {
        self.pe_mut(row, col).mac(iact, weight_index);
    }

    /// Performs one Phase-1 MAC across all lanes of a PE: the weight is read
    /// once, every lane's input activation multiplies against it into that
    /// lane's accumulator, and the PE's `mac_count` advances by **one** — the
    /// activity of a single sample, which is what each lane's report clones.
    ///
    /// # Panics
    /// Panics if `weight_index` is out of range of the active weights or
    /// `iacts` is not one value per lane.
    #[inline]
    pub fn mac_stripe(&mut self, row: usize, col: usize, iacts: &[i8], weight_index: usize) {
        let idx = self.index(row, col);
        let weight = self.pes[idx].active_weights()[weight_index];
        self.pes[idx].mac_count += 1;
        self.accumulate_stripe(idx, iacts, weight);
    }

    /// [`NestArray::mac_stripe`] with the stationary operand supplied by the
    /// caller instead of read from the PE's weight register: the executor
    /// addresses the layer's filter tensor in place, so a tile's weights are
    /// never copied into the array. The scalar MAC is this at `lanes = 1`.
    /// Accumulators and [`NestArray::total_macs`] advance exactly as they do
    /// for `mac_stripe` against a register holding `weight`; the MAC is
    /// counted on the array, not in the PE's own `mac_count`, so the hot loop
    /// touches nothing but the accumulator stripe.
    ///
    /// # Panics
    /// Panics if `iacts` is not one value per lane.
    #[inline]
    pub fn mac_operand(&mut self, row: usize, col: usize, iacts: &[i8], weight: i8) {
        let idx = self.index(row, col);
        self.operand_macs += 1;
        self.accumulate_stripe(idx, iacts, weight);
    }

    #[inline]
    fn accumulate_stripe(&mut self, idx: usize, iacts: &[i8], weight: i8) {
        assert_eq!(iacts.len(), self.lanes, "one iAct per lane");
        let w = weight as i32;
        let base = idx * self.lanes;
        for (acc, &iact) in self.lane_accs[base..base + self.lanes]
            .iter_mut()
            .zip(iacts)
        {
            *acc += iact as i32 * w;
        }
    }

    /// Fires one row: drains the accumulators of every PE in the row onto the
    /// column buses (Phase 2). `mapped` marks which columns actually carry
    /// data under the current dataflow; unmapped columns yield `None`.
    ///
    /// # Panics
    /// Panics if `mapped` does not have one entry per column.
    pub fn fire_row(&mut self, row: usize, mapped: &[bool]) -> RowFire {
        assert_eq!(
            mapped.len(),
            self.cols,
            "mapped mask must have one entry per column"
        );
        let values = (0..self.cols)
            .map(|col| {
                // Unmapped PEs drain anyway so stale partial sums never leak
                // into the next tile, but put nothing on the bus.
                let value = self.pe_mut(row, col).fire();
                mapped[col].then_some(value)
            })
            .collect();
        self.fires += 1;
        RowFire { row, values }
    }

    /// [`NestArray::fire_row`] across all lanes, into caller-owned scratch —
    /// the hot-loop variant: drains every column's lane-striped accumulators
    /// of `row` onto the bus (column-major stripes, so column `c` lane `l`
    /// lands at `bus[c * lanes + l]`). Unmapped columns drain too — stale
    /// partial sums never leak into the next tile — but the caller's `mapped`
    /// mask governs which stripes carry data, the analogue of `fire_row`'s
    /// `None` bus slots. Counts one fire, matching a single sample's
    /// activity.
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
        let row_accs = &mut self.lane_accs[row_base..row_base + self.cols * self.lanes];
        for (slot, acc) in bus.iter_mut().zip(row_accs.iter_mut()) {
            *slot = std::mem::take(acc);
        }
        self.fires += 1;
    }

    /// Total MACs performed by all PEs, register and explicit-operand alike.
    pub fn total_macs(&self) -> u64 {
        self.pes.iter().map(|pe| pe.mac_count).sum::<u64>() + self.operand_macs
    }

    /// Total weight-register loads performed by all PEs.
    pub fn total_weight_loads(&self) -> u64 {
        self.pes.iter().map(|pe| pe.weight_loads).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_indexing() {
        let mut arr = NestArray::new(2, 3);
        assert_eq!(arr.num_pes(), 6);
        arr.load_weights(1, 2, &[5]);
        arr.swap_all_weights();
        arr.mac(1, 2, 2, 0);
        assert_eq!(arr.pe(1, 2).peek(), 10);
        assert_eq!(arr.pe(0, 0).peek(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pe_panics() {
        let arr = NestArray::new(2, 2);
        let _ = arr.pe(2, 0);
    }

    #[test]
    fn fire_row_returns_column_values_and_clears() {
        let mut arr = NestArray::new(2, 4);
        for col in 0..4 {
            arr.load_weights(0, col, &[1]);
        }
        arr.swap_all_weights();
        for col in 0..4 {
            arr.mac(0, col, (col + 1) as i8, 0);
        }
        let fire = arr.fire_row(0, &[true, true, false, true]);
        assert_eq!(fire.row, 0);
        assert_eq!(fire.values, vec![Some(1), Some(2), None, Some(4)]);
        // Accumulators cleared, including the unmapped column.
        assert_eq!(arr.pe(0, 2).peek(), 0);
        assert_eq!(arr.fires(), 1);
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
                    solo.mac(0, col, iact, widx);
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
            let fire = solo.fire_row(0, &mapped);
            for col in 0..4 {
                if mapped[col] {
                    assert_eq!(bus[col * lanes + lane], fire.values[col].unwrap());
                }
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
                arr.mac(r, c, 1, 0);
                arr.mac(r, c, 1, 1);
            }
        }
        assert_eq!(arr.total_macs(), 8);
        assert_eq!(arr.total_weight_loads(), 8);
    }
}
