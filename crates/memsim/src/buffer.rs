//! Data-free buffer ledger with per-cycle port accounting.

use crate::conflict::ConflictModel;
use crate::stats::AccessStats;
use crate::BufferSpec;

/// The access ledger of one logical 2-D buffer. It holds addresses, not
/// values: a bank-conflict stall depends only on which lines a cycle
/// touches (§II-B), so the ledger tracks, per simulated cycle, the lines
/// read and written and charges the stalls when the cycle ends.
///
/// Access pattern: call [`AccessLedger::begin_cycle`] at the start of each
/// simulated cycle, then record reads/writes; the ledger accumulates the set
/// of lines touched and charges the appropriate slowdown when the next cycle
/// begins (or when [`AccessLedger::flush_cycle`] is called).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessLedger {
    spec: BufferSpec,
    stats: AccessStats,
    // Distinct lines touched this cycle. A handful of lines per cycle is the
    // norm, so a linear-scanned Vec (capacity retained across cycles) beats a
    // node-allocating set in the record pass.
    cycle_read_lines: Vec<usize>,
    cycle_write_lines: Vec<usize>,
    in_cycle: bool,
}

impl AccessLedger {
    /// Creates a ledger with no accesses for a buffer of the given shape.
    pub fn new(spec: BufferSpec) -> Self {
        AccessLedger {
            spec,
            stats: AccessStats::new(),
            cycle_read_lines: Vec::new(),
            cycle_write_lines: Vec::new(),
            in_cycle: false,
        }
    }

    /// The buffer specification.
    pub fn spec(&self) -> &BufferSpec {
        &self.spec
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Starts over for a new tenant, keeping the allocations: adopts `spec`,
    /// zeroes the statistics and drops the lines of an unflushed cycle
    /// uncharged. Observationally the same as `AccessLedger::new(spec)`.
    pub fn reset(&mut self, spec: BufferSpec) {
        self.spec = spec;
        self.stats = AccessStats::new();
        self.cycle_read_lines.clear();
        self.cycle_write_lines.clear();
        self.in_cycle = false;
    }

    /// Begins a new simulated cycle: charges the previous cycle's conflicts.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.flush_cycle();
        self.in_cycle = true;
    }

    /// Ends the current cycle, charging conflict stalls for the lines touched.
    pub fn flush_cycle(&mut self) {
        let touched = !self.cycle_read_lines.is_empty() || !self.cycle_write_lines.is_empty();
        if !self.in_cycle && !touched {
            return;
        }
        if touched {
            self.stats.active_cycles += 1;
            // When the distinct lines touched fit within the ports, no bank
            // can exceed its ports either (max_lines_per_bank <= total lines),
            // so the slowdown is exactly 1.0 and the full assessment — which
            // groups lines by bank — can be skipped. This is the common case
            // in the record pass.
            // Otherwise the lines, distinct as recorded, are assessed where
            // they are retained; both lists are cleared below anyway.
            if self.cycle_read_lines.len() > self.spec.read_ports.max(1)
                || self.cycle_write_lines.len() > self.spec.write_ports.max(1)
            {
                let model = ConflictModel::new(self.spec);
                let read = model.assess_distinct_reads(&mut self.cycle_read_lines);
                let write = model.assess_distinct_writes(&mut self.cycle_write_lines);
                let slowdown = read.slowdown.max(write.slowdown);
                // A slowdown of e.g. 2.0 means the accesses of this cycle
                // actually take 2 cycles: one nominal + one stall.
                self.stats.conflict_stall_cycles += (slowdown.ceil() as u64).saturating_sub(1);
            }
        }
        self.cycle_read_lines.clear();
        self.cycle_write_lines.clear();
        self.in_cycle = false;
    }

    #[inline]
    fn check(&self, op: &str, line: usize, offset: usize) {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "{op} out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
    }

    /// Panics as [`AccessLedger::read`] or [`AccessLedger::write`] (`op`
    /// names which) would if `line` is past the buffer, and records nothing:
    /// for a caller that accounts a block of accesses without recording them
    /// because it repeats a recorded block on shifted lines, so that only the
    /// block's last line can leave the buffer.
    ///
    /// # Panics
    /// Panics if the line is out of bounds.
    pub fn check_line(&self, op: &str, line: usize) {
        assert!(
            line < self.spec.num_lines,
            "{op} out of bounds: line {line} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
    }

    /// Records a write of one element at `(line, offset)`.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn write(&mut self, line: usize, offset: usize) {
        self.check("write", line, offset);
        self.stats.element_writes += 1;
        if !self.cycle_write_lines.contains(&line) {
            self.cycle_write_lines.push(line);
            self.stats.line_writes += 1;
        }
    }

    /// Records a read of one element at `(line, offset)`.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn read(&mut self, line: usize, offset: usize) {
        self.check("read", line, offset);
        self.stats.element_reads += 1;
        if !self.cycle_read_lines.contains(&line) {
            self.cycle_read_lines.push(line);
            self.stats.line_reads += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::ops::Range;

    use feather_arch::layout::Layout;
    use feather_arch::Dim;

    use super::*;
    use crate::Banking;

    fn spec() -> BufferSpec {
        BufferSpec::new(16, 4, 4, Banking::VerticalBlocked).with_ports(2, 2)
    }

    #[test]
    #[should_panic(expected = "write out of bounds")]
    fn out_of_bounds_write_panics() {
        AccessLedger::new(spec()).write(99, 0);
    }

    #[test]
    #[should_panic(expected = "read out of bounds")]
    fn out_of_bounds_offset_read_panics() {
        AccessLedger::new(spec()).read(0, 4);
    }

    #[test]
    #[should_panic(expected = "write out of bounds: line 16")]
    fn a_line_past_the_buffer_fails_its_check() {
        let b = AccessLedger::new(spec());
        b.check_line("write", 15);
        b.check_line("write", 16);
    }

    #[test]
    fn line_level_stats() {
        let mut b = AccessLedger::new(spec());
        b.begin_cycle();
        (0..4).for_each(|offset| b.write(0, offset));
        b.begin_cycle();
        (0..4).for_each(|offset| b.read(0, offset));
        b.flush_cycle();
        assert_eq!(b.stats().line_writes, 1);
        assert_eq!(b.stats().line_reads, 1);
        assert_eq!(b.stats().element_reads, 4);
        assert_eq!(b.stats().element_writes, 4);
        assert_eq!(b.stats().active_cycles, 2);
        assert_eq!(b.stats().conflict_stall_cycles, 0);
    }

    #[test]
    fn conflicting_reads_accumulate_stalls() {
        // All of lines 0..4 live in bank 0 (conflict_depth=4): reading 4 lines
        // in one cycle with dual ports costs one extra cycle.
        let mut b = AccessLedger::new(spec());
        for line in 0..4 {
            b.begin_cycle();
            b.write(line, 0);
        }
        b.flush_cycle();
        let stalls_after_writes = b.stats().conflict_stall_cycles;
        assert_eq!(stalls_after_writes, 0);
        b.begin_cycle();
        for line in 0..4 {
            b.read(line, 0);
        }
        b.flush_cycle();
        assert_eq!(b.stats().conflict_stall_cycles, 1);
    }

    #[test]
    fn conflict_free_reads_do_not_stall() {
        let mut b = AccessLedger::new(spec());
        b.begin_cycle();
        for line in [0usize, 4, 8, 12] {
            b.write(line, 0);
        }
        b.begin_cycle();
        for line in [0usize, 4, 8, 12] {
            b.read(line, 0);
        }
        b.flush_cycle();
        assert_eq!(b.stats().conflict_stall_cycles, 0);
    }

    /// Records one cycle of accesses to channels `cs` of pixel `(0, 0)` of
    /// an 8×4×4 (C×H×W) tensor stored under `layout`.
    fn access_channels(b: &mut AccessLedger, layout: &Layout, cs: Range<usize>, write: bool) {
        let dims: BTreeMap<Dim, usize> = [(Dim::C, 8), (Dim::H, 4), (Dim::W, 4)].into();
        b.begin_cycle();
        for c in cs {
            let loc = layout.location(&[(Dim::C, c), (Dim::H, 0), (Dim::W, 0)].into(), &dims);
            if write {
                b.write(loc.line, loc.offset);
            } else {
                b.read(loc.line, loc.offset);
            }
        }
        b.flush_cycle();
    }

    #[test]
    fn ledger_tracks_conflicts_of_discordant_layout_access() {
        // Row-major layout, channel-parallel reads: 4 distinct lines per cycle
        // in a single-bank buffer with 2 ports → 1 stall cycle per access cycle.
        let layout: Layout = "HCW_W4".parse().unwrap();
        let spec = BufferSpec::new(32, 4, 1, Banking::VerticalBlocked).with_ports(2, 2);
        let mut b = AccessLedger::new(spec);
        for c in 0..4 {
            access_channels(&mut b, &layout, c..c + 1, true);
        }
        assert_eq!(b.stats().conflict_stall_cycles, 0);
        access_channels(&mut b, &layout, 0..4, false);
        assert_eq!(b.stats().conflict_stall_cycles, 1);
    }

    #[test]
    fn horizontal_banked_line_reads_are_free_of_conflicts() {
        let layout: Layout = "HWC_C8".parse().unwrap();
        let mut b = AccessLedger::new(BufferSpec::new(16, 8, 8, Banking::Horizontal));
        access_channels(&mut b, &layout, 0..8, false);
        // All eight elements share one line → no conflict.
        assert_eq!(b.stats().line_reads, 1);
        assert_eq!(b.stats().conflict_stall_cycles, 0);
    }

    #[test]
    fn reset_behaves_like_new() {
        let mut b = AccessLedger::new(spec());
        b.begin_cycle();
        for line in 0..4 {
            b.read(line, 0);
        }
        b.flush_cycle();
        // An open cycle is dropped, not charged.
        b.begin_cycle();
        b.write(2, 1);
        let new_spec = BufferSpec::new(8, 8, 8, Banking::Horizontal);
        b.reset(new_spec);
        assert_eq!(b, AccessLedger::new(new_spec));
        b.flush_cycle();
        assert_eq!(*b.stats(), AccessStats::new());
        // The new geometry bounds the next accesses.
        b.read(7, 7);
        assert_eq!(b.stats().element_reads, 1);
    }
}
