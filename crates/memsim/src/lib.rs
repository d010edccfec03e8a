//! # feather-memsim
//!
//! Physical on-chip storage substrate for the FEATHER reproduction.
//!
//! The paper's core observation (§II) is that on-chip buffers are *not* ideal
//! bandwidth: they are built from SRAM banks with a fixed number of ports, and
//! a (dataflow, layout) pair that needs more concurrent lines from one bank
//! than the bank has ports stalls the compute array. This crate provides:
//!
//! * [`BufferSpec`] — the logical `num_lines × line_size` 2-D buffer with its
//!   banking organization, port counts and `conflict_depth` (§V-A);
//! * [`ConflictModel`] — the bank-conflict slowdown
//!   assessment used by Layoutloop (§V-B);
//! * [`AccessLedger`] — a data-free buffer ledger: it keeps addresses, not
//!   values, and charges each cycle's port accesses and bank-conflict stalls
//!   to [`AccessStats`];
//! * [`ScratchRegion`] — the accounting of the shortcut staging area a graph
//!   executor parks residual branch tensors in, with separate traffic
//!   statistics.
//!
//! # Example
//!
//! ```
//! use feather_memsim::{BufferSpec, Banking};
//! use feather_memsim::conflict::ConflictModel;
//!
//! // A 64-line buffer built from 4 vertically-stacked dual-port banks.
//! let spec = BufferSpec::new(64, 8, 4, Banking::VerticalBlocked).with_ports(2, 2);
//! let model = ConflictModel::new(spec);
//! // Reading 4 lines that all live in bank 0 needs 2 cycles with 2 ports.
//! assert_eq!(model.read_slowdown([0usize, 1, 2, 3].into_iter()), 2.0);
//! // Reading 4 lines spread over 4 banks is conflict-free.
//! assert_eq!(model.read_slowdown([0usize, 16, 32, 48].into_iter()), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod conflict;
pub mod scratch;
pub mod stats;

pub use buffer::AccessLedger;
pub use conflict::ConflictModel;
pub use scratch::ScratchRegion;
pub use stats::AccessStats;

use serde::{Deserialize, Serialize};

/// How the logical 2-D buffer is carved into physical SRAM banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Banking {
    /// Banks are stacked vertically and hold *contiguous blocks* of lines:
    /// lines `[0, conflict_depth)` live in bank 0, the next block in bank 1, …
    /// (the organization drawn in Fig. 5 of the paper).
    VerticalBlocked,
    /// Banks are stacked vertically with *interleaved* lines: line `i` lives in
    /// bank `i % num_banks`.
    VerticalInterleaved,
    /// Banks are arranged horizontally: each bank stores one element column of
    /// every line (FEATHER's StaB organization, §III-C: "StaB requires a
    /// multi-bank organization (AW banks), with each bank storing a single
    /// data piece").
    Horizontal,
}

/// Specification of a logical 2-D on-chip buffer (Tab. II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufferSpec {
    /// Number of logical buffer lines (rows).
    pub num_lines: usize,
    /// Elements per line (the per-cycle bandwidth of one line read).
    pub line_size: usize,
    /// Number of physical SRAM banks.
    pub num_banks: usize,
    /// Read ports per bank (TSMC 28 nm SRAMs offer at most two, §II-B).
    pub read_ports: usize,
    /// Write ports per bank.
    pub write_ports: usize,
    /// Banking organization.
    pub banking: Banking,
}

impl BufferSpec {
    /// Creates a buffer spec with dual read/write ports per bank.
    pub fn new(num_lines: usize, line_size: usize, num_banks: usize, banking: Banking) -> Self {
        BufferSpec {
            num_lines,
            line_size,
            num_banks: num_banks.max(1),
            read_ports: 2,
            write_ports: 2,
            banking,
        }
    }

    /// Overrides the per-bank port counts (builder style).
    pub fn with_ports(mut self, read_ports: usize, write_ports: usize) -> Self {
        self.read_ports = read_ports.max(1);
        self.write_ports = write_ports.max(1);
        self
    }

    /// Number of lines stored in each vertical bank (`conflict_depth`, §V-A).
    /// For [`Banking::Horizontal`] every line spans all banks, so the depth is
    /// the full line count.
    pub fn conflict_depth(&self) -> usize {
        match self.banking {
            Banking::Horizontal => self.num_lines,
            _ => self.num_lines.div_ceil(self.num_banks),
        }
    }

    /// The bank holding a given line (for vertical organizations) or `None`
    /// when every bank participates in every line (horizontal organization).
    pub fn bank_of_line(&self, line: usize) -> Option<usize> {
        match self.banking {
            Banking::VerticalBlocked => {
                Some((line / self.conflict_depth()).min(self.num_banks - 1))
            }
            Banking::VerticalInterleaved => Some(line % self.num_banks),
            Banking::Horizontal => None,
        }
    }

    /// Total capacity in elements.
    pub fn capacity(&self) -> usize {
        self.num_lines * self.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_depth_matches_banking() {
        let spec = BufferSpec::new(64, 8, 4, Banking::VerticalBlocked);
        assert_eq!(spec.conflict_depth(), 16);
        let spec = BufferSpec::new(64, 8, 4, Banking::Horizontal);
        assert_eq!(spec.conflict_depth(), 64);
    }

    #[test]
    fn bank_of_line_blocked_vs_interleaved() {
        let blocked = BufferSpec::new(8, 4, 2, Banking::VerticalBlocked);
        assert_eq!(blocked.bank_of_line(0), Some(0));
        assert_eq!(blocked.bank_of_line(3), Some(0));
        assert_eq!(blocked.bank_of_line(4), Some(1));
        assert_eq!(blocked.bank_of_line(7), Some(1));

        let inter = BufferSpec::new(8, 4, 2, Banking::VerticalInterleaved);
        assert_eq!(inter.bank_of_line(0), Some(0));
        assert_eq!(inter.bank_of_line(1), Some(1));
        assert_eq!(inter.bank_of_line(2), Some(0));

        let horiz = BufferSpec::new(8, 4, 2, Banking::Horizontal);
        assert_eq!(horiz.bank_of_line(5), None);
    }

    #[test]
    fn out_of_range_line_clamps_to_last_bank() {
        let spec = BufferSpec::new(10, 4, 4, Banking::VerticalBlocked);
        // conflict_depth = 3, line 9 -> bank 3.
        assert_eq!(spec.bank_of_line(9), Some(3));
    }
}
