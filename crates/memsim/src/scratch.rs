//! Shortcut scratch region: the on-chip staging area a graph executor parks
//! branch tensors in while the main path runs.
//!
//! FEATHER's ping/pong StaB holds exactly two tensors — the layer being read
//! and the layer being produced. A residual shortcut lives *longer* than one
//! layer boundary: its value is produced at a branch point and consumed only
//! at the join several layers later, so it must sit in a separate scratch
//! region (on real silicon: spare StaB lines or a dedicated SRAM slice). This
//! type models that region's accounting: allocations keyed by tensor slot,
//! each holding only its element count, with its own [`AccessStats`] so
//! shortcut traffic is accounted separately from the main-path StaB traffic,
//! plus peak-occupancy tracking for sizing.
//!
//! # Example
//!
//! ```
//! use feather_memsim::ScratchRegion;
//!
//! let mut scratch = ScratchRegion::new(16);
//! scratch.park(7, 4);
//! assert_eq!(scratch.occupancy(), 4);
//! assert_eq!(scratch.fetch(7), Some(4));
//! assert_eq!(scratch.release(7), Some(4));
//! assert_eq!(scratch.occupancy(), 0);
//! assert_eq!(scratch.peak_occupancy(), 4);
//! // One line write per 16-element row, one line read back.
//! assert_eq!(scratch.stats().element_writes, 4);
//! assert_eq!(scratch.stats().element_reads, 4);
//! assert_eq!(scratch.stats().line_reads, 1);
//! ```

use std::collections::BTreeMap;

use crate::stats::AccessStats;

/// The accounting of a scratch region for parked tensors. See the
/// [module docs](self) for the architectural role.
#[derive(Debug, Clone, PartialEq)]
pub struct ScratchRegion {
    /// Element count per parked tensor slot.
    slots: BTreeMap<usize, usize>,
    line_size: usize,
    stats: AccessStats,
    occupancy: usize,
    peak_occupancy: usize,
}

impl ScratchRegion {
    /// Creates an empty region whose line (row) width is `line_size` elements
    /// — the granularity the line-access counters use.
    pub fn new(line_size: usize) -> Self {
        ScratchRegion {
            slots: BTreeMap::new(),
            line_size: line_size.max(1),
            stats: AccessStats::new(),
            occupancy: 0,
            peak_occupancy: 0,
        }
    }

    /// Parks a tensor of `elems` elements in `slot`, counting the element
    /// and line writes. Re-parking an occupied slot replaces its tensor (the
    /// old allocation is freed first).
    pub fn park(&mut self, slot: usize, elems: usize) {
        if let Some(old) = self.slots.insert(slot, elems) {
            self.occupancy -= old;
        }
        self.stats.element_writes += elems as u64;
        self.stats.line_writes += elems.div_ceil(self.line_size) as u64;
        self.occupancy += elems;
        self.peak_occupancy = self.peak_occupancy.max(self.occupancy);
    }

    /// Reads the tensor parked in `slot` without freeing it, counting the
    /// element and line reads. Returns its element count, or `None` for an
    /// empty slot.
    pub fn fetch(&mut self, slot: usize) -> Option<usize> {
        let elems = *self.slots.get(&slot)?;
        self.stats.element_reads += elems as u64;
        self.stats.line_reads += elems.div_ceil(self.line_size) as u64;
        Some(elems)
    }

    /// Frees the tensor parked in `slot`, returning its element count without
    /// counting a read (pair with [`ScratchRegion::fetch`] for
    /// read-then-free).
    pub fn release(&mut self, slot: usize) -> Option<usize> {
        let elems = self.slots.remove(&slot)?;
        self.occupancy -= elems;
        Some(elems)
    }

    /// Returns `true` if a tensor is parked in `slot`.
    pub fn contains(&self, slot: usize) -> bool {
        self.slots.contains_key(&slot)
    }

    /// Elements currently parked.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// High-water mark of parked elements — the capacity a real scratch SRAM
    /// would need for this run.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Number of live allocations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_fetch_release_roundtrip() {
        let mut s = ScratchRegion::new(4);
        s.park(0, 10);
        s.park(1, 6);
        assert_eq!(s.occupancy(), 16);
        assert_eq!(s.len(), 2);
        assert_eq!(s.fetch(0), Some(10));
        assert_eq!(s.release(0), Some(10));
        assert_eq!(s.occupancy(), 6);
        assert!(!s.contains(0));
        assert!(s.contains(1));
        assert_eq!(s.fetch(0), None);
        assert_eq!(s.release(9), None);
    }

    #[test]
    fn stats_count_elements_and_lines() {
        let mut s = ScratchRegion::new(4);
        s.park(3, 10);
        // 10 elements over 4-wide lines → 3 line writes.
        assert_eq!(s.stats().element_writes, 10);
        assert_eq!(s.stats().line_writes, 3);
        s.fetch(3);
        s.fetch(3);
        assert_eq!(s.stats().element_reads, 20);
        assert_eq!(s.stats().line_reads, 6);
        // Release is free (no read counted).
        s.release(3);
        assert_eq!(s.stats().element_reads, 20);
    }

    #[test]
    fn peak_occupancy_is_a_high_water_mark() {
        let mut s = ScratchRegion::new(8);
        s.park(0, 100);
        s.release(0);
        s.park(1, 30);
        assert_eq!(s.occupancy(), 30);
        assert_eq!(s.peak_occupancy(), 100);
        assert!(s.release(1).is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn repark_replaces_without_leaking_occupancy() {
        let mut s = ScratchRegion::new(8);
        s.park(0, 50);
        s.park(0, 10);
        assert_eq!(s.occupancy(), 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.fetch(0), Some(10));
        // Both parks counted as writes.
        assert_eq!(s.stats().element_writes, 60);
    }
}
