//! Access statistics accumulated by the functional buffers.

use serde::{Deserialize, Serialize};

/// Counters for one buffer over the lifetime of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessStats {
    /// Number of element reads served.
    pub element_reads: u64,
    /// Number of element writes served.
    pub element_writes: u64,
    /// Number of distinct line reads (a full line counts once).
    pub line_reads: u64,
    /// Number of distinct line writes.
    pub line_writes: u64,
    /// Number of cycles in which the buffer was accessed at all.
    pub active_cycles: u64,
    /// Extra cycles lost to bank conflicts (reads + writes).
    pub conflict_stall_cycles: u64,
}

impl AccessStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        AccessStats::default()
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.element_reads += other.element_reads;
        self.element_writes += other.element_writes;
        self.line_reads += other.line_reads;
        self.line_writes += other.line_writes;
        self.active_cycles += other.active_cycles;
        self.conflict_stall_cycles += other.conflict_stall_cycles;
    }

    /// Returns the delta relative to an earlier snapshot of the same counters
    /// (saturating, so a stale baseline can never underflow). Simulators use
    /// this to attribute a shared buffer's accesses to a phase: snapshot
    /// before, subtract after — e.g. separating one pipeline layer's StaB
    /// traffic from the accumulated network totals, or excluding the DMA fill.
    pub fn since(&self, baseline: &AccessStats) -> AccessStats {
        AccessStats {
            element_reads: self.element_reads.saturating_sub(baseline.element_reads),
            element_writes: self.element_writes.saturating_sub(baseline.element_writes),
            line_reads: self.line_reads.saturating_sub(baseline.line_reads),
            line_writes: self.line_writes.saturating_sub(baseline.line_writes),
            active_cycles: self.active_cycles.saturating_sub(baseline.active_cycles),
            conflict_stall_cycles: self
                .conflict_stall_cycles
                .saturating_sub(baseline.conflict_stall_cycles),
        }
    }
}

impl std::ops::Add for AccessStats {
    type Output = AccessStats;

    fn add(mut self, rhs: Self) -> Self::Output {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for AccessStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(AccessStats::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let a = AccessStats {
            element_reads: 10,
            line_reads: 2,
            active_cycles: 5,
            conflict_stall_cycles: 1,
            ..Default::default()
        };
        let b = AccessStats {
            element_writes: 4,
            line_writes: 1,
            active_cycles: 3,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.element_reads, 10);
        assert_eq!(c.element_writes, 4);
        assert_eq!((c.line_reads, c.line_writes), (2, 1));
        assert_eq!(c.active_cycles, 8);
        assert_eq!(c.conflict_stall_cycles, 1);
    }

    #[test]
    fn since_returns_saturating_delta() {
        let before = AccessStats {
            element_reads: 10,
            active_cycles: 5,
            ..Default::default()
        };
        let after = AccessStats {
            element_reads: 25,
            element_writes: 3,
            active_cycles: 9,
            ..Default::default()
        };
        let delta = after.since(&before);
        assert_eq!(delta.element_reads, 15);
        assert_eq!(delta.element_writes, 3);
        assert_eq!(delta.active_cycles, 4);
        // Saturation instead of underflow.
        assert_eq!(before.since(&after).element_reads, 0);
    }

    #[test]
    fn sum_over_iterator() {
        let stats: AccessStats = (0..4)
            .map(|_| AccessStats {
                line_reads: 1,
                ..Default::default()
            })
            .sum();
        assert_eq!(stats.line_reads, 4);
    }
}
