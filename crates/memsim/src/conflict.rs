//! Bank-conflict slowdown assessment (§V-B of the paper).
//!
//! > "Layoutloop models slowdown by judging whether bank conflicts occur when
//! > analyzing data access to the on-chip buffer with a specific layout. A
//! > `max(NL/NP, 1)` slowdown is introduced if NL lines are accessed from a
//! > bank with NP ports."

use serde::{Deserialize, Serialize};

use crate::{Banking, BufferSpec};

/// Result of assessing one cycle's worth of concurrent accesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConflictAssessment {
    /// Number of distinct lines touched.
    pub lines_touched: usize,
    /// Maximum number of lines that fall into one bank.
    pub max_lines_per_bank: usize,
    /// Slowdown factor `max(NL/NP, 1)` — 1.0 means conflict-free.
    pub slowdown: f64,
}

impl ConflictAssessment {
    /// Returns `true` when the access pattern is conflict-free.
    pub fn is_concordant(&self) -> bool {
        self.slowdown <= 1.0 + f64::EPSILON
    }
}

/// Bank-conflict model bound to a [`BufferSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConflictModel {
    spec: BufferSpec,
}

impl ConflictModel {
    /// Creates a conflict model for the given buffer.
    pub fn new(spec: BufferSpec) -> Self {
        ConflictModel { spec }
    }

    /// The underlying buffer specification.
    pub fn spec(&self) -> &BufferSpec {
        &self.spec
    }

    /// Assesses a set of lines read in the same cycle.
    pub fn assess_reads(&self, lines: impl IntoIterator<Item = usize>) -> ConflictAssessment {
        self.assess(lines, self.spec.read_ports)
    }

    /// Assesses a set of lines written in the same cycle.
    pub fn assess_writes(&self, lines: impl IntoIterator<Item = usize>) -> ConflictAssessment {
        self.assess(lines, self.spec.write_ports)
    }

    /// Read slowdown factor (`1.0` = conflict-free).
    pub fn read_slowdown(&self, lines: impl IntoIterator<Item = usize>) -> f64 {
        self.assess_reads(lines).slowdown
    }

    /// [`ConflictModel::assess_reads`] on a caller-owned buffer: `lines` is
    /// sorted, deduplicated and then overwritten in place, so a hot loop can
    /// refill and re-assess one `Vec` without allocating.
    pub fn assess_reads_in_place(&self, lines: &mut Vec<usize>) -> ConflictAssessment {
        self.assess_in_place(lines, self.spec.read_ports)
    }

    /// [`ConflictModel::assess_writes`] on a caller-owned buffer, which it
    /// overwrites like [`ConflictModel::assess_reads_in_place`].
    pub fn assess_writes_in_place(&self, lines: &mut Vec<usize>) -> ConflictAssessment {
        self.assess_in_place(lines, self.spec.write_ports)
    }

    fn assess(&self, lines: impl IntoIterator<Item = usize>, ports: usize) -> ConflictAssessment {
        self.assess_in_place(&mut lines.into_iter().collect(), ports)
    }

    /// Sort + dedup leaves the distinct lines; mapping those to their banks
    /// and sorting again turns the fullest bank into the longest run.
    fn assess_in_place(&self, lines: &mut Vec<usize>, ports: usize) -> ConflictAssessment {
        lines.sort_unstable();
        lines.dedup();
        let lines_touched = lines.len();
        let max_lines_per_bank = if self.spec.banking == Banking::Horizontal {
            // Horizontal banking: every line read engages all banks once, so
            // the effective "bank" is the line itself (each extra line costs a
            // full extra access of every bank).
            lines_touched.min(1)
        } else {
            for line in lines.iter_mut() {
                *line = self.spec.bank_of_line(*line).unwrap_or(*line);
            }
            lines.sort_unstable();
            let (mut longest, mut run) = (0, 0);
            for (i, bank) in lines.iter().enumerate() {
                run = if i > 0 && lines[i - 1] == *bank {
                    run + 1
                } else {
                    1
                };
                longest = longest.max(run);
            }
            longest
        };
        let slowdown = if max_lines_per_bank == 0 {
            1.0
        } else {
            (max_lines_per_bank as f64 / ports.max(1) as f64).max(1.0)
        };
        ConflictAssessment {
            lines_touched,
            max_lines_per_bank,
            slowdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    fn blocked_spec() -> BufferSpec {
        BufferSpec::new(64, 8, 4, Banking::VerticalBlocked).with_ports(2, 2)
    }

    #[test]
    fn single_line_is_concordant() {
        let m = ConflictModel::new(blocked_spec());
        let a = m.assess_reads([5usize]);
        assert!(a.is_concordant());
        assert_eq!(a.lines_touched, 1);
    }

    #[test]
    fn duplicate_lines_count_once() {
        let m = ConflictModel::new(blocked_spec());
        let a = m.assess_reads([5usize, 5, 5, 5]);
        assert_eq!(a.lines_touched, 1);
        assert!(a.is_concordant());
    }

    #[test]
    fn four_lines_same_bank_halves_throughput() {
        let m = ConflictModel::new(blocked_spec());
        // Lines 0..4 all live in bank 0 (conflict_depth = 16).
        let a = m.assess_reads([0usize, 1, 2, 3]);
        assert_eq!(a.max_lines_per_bank, 4);
        assert_eq!(a.slowdown, 2.0);
        assert!(!a.is_concordant());
    }

    #[test]
    fn spread_across_banks_is_concordant() {
        let m = ConflictModel::new(blocked_spec());
        let a = m.assess_reads([0usize, 16, 32, 48]);
        assert_eq!(a.max_lines_per_bank, 1);
        assert!(a.is_concordant());
    }

    #[test]
    fn three_lines_with_two_ports_fig4_m3() {
        // Fig. 4 mapping M3: three lines per cycle with dual ports → 2/3
        // throughput, i.e. a 1.5× slowdown.
        let m = ConflictModel::new(blocked_spec());
        let a = m.assess_reads([0usize, 1, 2]);
        assert!((a.slowdown - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_port_doubles_penalty() {
        let spec = blocked_spec().with_ports(1, 1);
        let m = ConflictModel::new(spec);
        let a = m.assess_reads([0usize, 1, 2, 3]);
        assert_eq!(a.slowdown, 4.0);
    }

    #[test]
    fn write_ports_assessed_independently() {
        let spec = BufferSpec::new(64, 8, 4, Banking::VerticalBlocked).with_ports(2, 1);
        let m = ConflictModel::new(spec);
        assert_eq!(m.read_slowdown([0usize, 1]), 1.0);
        assert_eq!(m.assess_writes([0usize, 1]).slowdown, 2.0);
    }

    #[test]
    fn interleaved_banking_separates_adjacent_lines() {
        let spec = BufferSpec::new(64, 8, 4, Banking::VerticalInterleaved).with_ports(2, 2);
        let m = ConflictModel::new(spec);
        // Adjacent lines now live in different banks.
        assert_eq!(m.read_slowdown([0usize, 1, 2, 3]), 1.0);
        // ... but lines 0,4,8,12 collide again.
        assert_eq!(m.read_slowdown([0usize, 4, 8, 12]), 2.0);
    }

    /// The set/map formulation `assess` had before it became sort + dedup +
    /// run-length: distinct lines in a `BTreeSet`, lines per bank in a
    /// `BTreeMap`.
    fn reference_assess(spec: &BufferSpec, lines: &[usize], ports: usize) -> ConflictAssessment {
        let distinct: BTreeSet<usize> = lines.iter().copied().collect();
        let mut per_bank: BTreeMap<usize, usize> = BTreeMap::new();
        for &line in &distinct {
            *per_bank
                .entry(spec.bank_of_line(line).unwrap_or(line))
                .or_insert(0) += 1;
        }
        let max_lines_per_bank = per_bank.values().copied().max().unwrap_or(0);
        ConflictAssessment {
            lines_touched: distinct.len(),
            max_lines_per_bank,
            slowdown: if max_lines_per_bank == 0 {
                1.0
            } else {
                (max_lines_per_bank as f64 / ports.max(1) as f64).max(1.0)
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn assess_equals_set_and_map_reference(
            // A narrow value range forces duplicates; length 0 is the empty cycle.
            lines in collection::vec(0usize..96, 0..48),
            banking_pick in 0usize..3,
            read_pick in 0usize..3,
            write_pick in 0usize..3,
        ) {
            let banking = [
                Banking::VerticalBlocked,
                Banking::VerticalInterleaved,
                Banking::Horizontal,
            ][banking_pick];
            let (read_ports, write_ports) = ([1, 2, 4][read_pick], [1, 2, 4][write_pick]);
            let spec = BufferSpec::new(64, 8, 4, banking).with_ports(read_ports, write_ports);
            let m = ConflictModel::new(spec);
            let reads = reference_assess(&spec, &lines, read_ports);
            prop_assert_eq!(m.assess_reads(lines.iter().copied()), reads);
            prop_assert_eq!(m.assess_reads_in_place(&mut lines.clone()), reads);
            let writes = reference_assess(&spec, &lines, write_ports);
            prop_assert_eq!(m.assess_writes(lines.iter().copied()), writes);
            prop_assert_eq!(m.assess_writes_in_place(&mut lines.clone()), writes);
        }
    }
}
