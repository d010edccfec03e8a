//! BIRRD topology: two back-to-back butterfly networks with bit-reverse
//! inter-stage connections (Algorithm 1 of the paper).

use serde::{Deserialize, Serialize};

/// Errors raised when constructing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The number of inputs is not a power of two ≥ 2.
    InvalidWidth(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::InvalidWidth(w) => {
                write!(f, "BIRRD width must be a power of two >= 2, got {w}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Reverses the lowest `bit_range` bits of `data`, leaving higher bits
/// untouched (the `reverse_bits` helper of Algorithm 1).
pub fn reverse_bits(data: usize, bit_range: u32) -> usize {
    if bit_range == 0 {
        return data;
    }
    let mask = (1usize << bit_range) - 1;
    let mut reversed = 0usize;
    for i in 0..bit_range {
        if data & (1 << i) != 0 {
            reversed |= 1 << (bit_range - 1 - i);
        }
    }
    (data & !mask) | reversed
}

/// The widest network [`Topology::reachability`] covers — one `u64` mask bit
/// per output port — and so the widest one the router can configure.
pub const MAX_ROUTED_WIDTH: usize = 64;

/// The static wiring of an `AW`-input BIRRD.
///
/// The network has [`Topology::stages`] switch stages of `AW/2` switches each.
/// [`Topology::link_permutation`] gives, for each stage, the permutation that
/// maps that stage's output ports onto the next level's input ports (the last
/// permutation maps onto the output buffers).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    width: usize,
    stages: usize,
    /// `perms[s][j]` = input port of level `s+1` that output port `j` of stage `s` drives.
    perms: Vec<Vec<usize>>,
    /// `reach[s][j]` = the output ports reachable from input port `j` of
    /// stage `s`, as a bitmask: a function of the wiring, so computed once
    /// here. Empty above [`MAX_ROUTED_WIDTH`].
    reach: Vec<Vec<u64>>,
}

impl Topology {
    /// Builds the topology for an `width`-input BIRRD.
    ///
    /// # Errors
    /// Returns [`TopologyError::InvalidWidth`] unless `width` is a power of two ≥ 2.
    pub fn new(width: usize) -> Result<Self, TopologyError> {
        if width < 2 || !width.is_power_of_two() {
            return Err(TopologyError::InvalidWidth(width));
        }
        let log = width.trailing_zeros();
        // §III-B.1: 2·log2(AW) stages; a 4-input BIRRD is the special case with
        // 2·log2(AW) − 1 = 3 stages (the middle stages of the two butterfly
        // halves merge). A 2-input network degenerates to a single switch.
        let stages = match width {
            2 => 1,
            4 => 3,
            _ => (2 * log) as usize,
        };
        let perms: Vec<Vec<usize>> = (0..stages)
            .map(|i| {
                let bit_range = (log.min(2 + i as u32)).min(2 * log - i as u32);
                (0..width).map(|j| reverse_bits(j, bit_range)).collect()
            })
            .collect();
        let reach = if width <= MAX_ROUTED_WIDTH {
            reachability(&perms, width)
        } else {
            Vec::new()
        };
        Ok(Topology {
            width,
            stages,
            perms,
            reach,
        })
    }

    /// Number of input (and output) ports.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of switch stages (also the pipelined latency in cycles).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Number of switches per stage.
    pub fn switches_per_stage(&self) -> usize {
        self.width / 2
    }

    /// Total number of Egg switches.
    pub fn total_switches(&self) -> usize {
        self.stages * self.switches_per_stage()
    }

    /// The permutation applied after stage `s` (`s == stages-1` maps onto the
    /// output ports).
    ///
    /// # Panics
    /// Panics if `s >= stages`.
    pub fn link_permutation(&self, s: usize) -> &[usize] {
        &self.perms[s]
    }

    /// Destination of output port `port` of stage `s`.
    pub fn next_port(&self, s: usize, port: usize) -> usize {
        self.perms[s][port]
    }

    /// For every stage, the set of final output ports reachable from each of
    /// that stage's *input* ports, as bitmasks (used for routing pruning);
    /// `None` for a network wider than [`MAX_ROUTED_WIDTH`].
    pub fn reachability(&self) -> Option<&[Vec<u64>]> {
        (self.width <= MAX_ROUTED_WIDTH).then_some(&self.reach)
    }
}

/// The reachability masks of a network of `width ≤ 64` ports wired by `perms`.
fn reachability(perms: &[Vec<usize>], width: usize) -> Vec<Vec<u64>> {
    let stages = perms.len();
    let mut reach = vec![vec![0u64; width]; stages];
    // Last stage: input j sits on switch j/2, can exit either output of
    // that switch, then crosses the final permutation.
    let last = stages - 1;
    for (j, mask) in reach[last].iter_mut().enumerate() {
        let sw = j / 2;
        let a = perms[last][2 * sw];
        let b = perms[last][2 * sw + 1];
        *mask = (1u64 << a) | (1u64 << b);
    }
    for s in (0..last).rev() {
        for j in 0..width {
            let sw = j / 2;
            let a = perms[s][2 * sw];
            let b = perms[s][2 * sw + 1];
            reach[s][j] = reach[s + 1][a] | reach[s + 1][b];
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_bits_basic() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b01, 2), 0b10);
        assert_eq!(reverse_bits(5, 1), 5); // single-bit reverse is identity
        assert_eq!(reverse_bits(0b1101, 2), 0b1110); // upper bits untouched
        assert_eq!(reverse_bits(7, 0), 7);
    }

    #[test]
    fn stage_counts_match_paper() {
        assert_eq!(Topology::new(4).unwrap().stages(), 3); // footnote 1
        assert_eq!(Topology::new(8).unwrap().stages(), 6);
        assert_eq!(Topology::new(16).unwrap().stages(), 8);
        assert_eq!(Topology::new(32).unwrap().stages(), 10);
    }

    #[test]
    fn switch_counts() {
        let t = Topology::new(16).unwrap();
        assert_eq!(t.switches_per_stage(), 8);
        assert_eq!(t.total_switches(), 64);
    }

    #[test]
    fn invalid_widths_rejected() {
        assert!(Topology::new(0).is_err());
        assert!(Topology::new(1).is_err());
        assert!(Topology::new(6).is_err());
        assert!(Topology::new(12).is_err());
    }

    #[test]
    fn permutations_are_bijective() {
        for width in [2usize, 4, 8, 16, 32] {
            let t = Topology::new(width).unwrap();
            for s in 0..t.stages() {
                let perm = t.link_permutation(s);
                let mut seen = vec![false; width];
                for &p in perm {
                    assert!(p < width);
                    assert!(
                        !seen[p],
                        "permutation at stage {s} of width {width} not bijective"
                    );
                    seen[p] = true;
                }
            }
        }
    }

    /// The address bit each stage's switches exchange: a label follows every
    /// input port through the wiring with all switches passing, the two
    /// inputs of every switch of a stage differ in exactly that one bit, and
    /// the sequence is pinned per width. Width 8 is a Beneš network plus one
    /// stage; from 16 on, the network is a three-stage Clos whose 4-port
    /// ingress and egress blocks are 2-stage butterflies.
    #[test]
    fn each_stage_exchanges_one_address_bit() {
        let exchanged = |width: usize| {
            let t = Topology::new(width).unwrap();
            let mut label: Vec<usize> = (0..width).collect();
            let mut bits = Vec::new();
            for s in 0..t.stages() {
                let bit = label[0] ^ label[1];
                assert!(bit.is_power_of_two(), "width {width} stage {s}");
                for pair in label.chunks_exact(2) {
                    assert_eq!(pair[0] ^ pair[1], bit, "width {width} stage {s}");
                }
                bits.push(bit.trailing_zeros());
                let mut next = vec![0; width];
                for (port, &l) in label.iter().enumerate() {
                    next[t.next_port(s, port)] = l;
                }
                label = next;
            }
            bits
        };
        assert_eq!(exchanged(4), [0, 1, 0]);
        assert_eq!(exchanged(8), [0, 1, 2, 1, 2, 0]);
        assert_eq!(exchanged(16), [0, 1, 2, 3, 2, 3, 0, 1]);
        assert_eq!(exchanged(32), [0, 1, 2, 3, 4, 3, 4, 1, 2, 0]);
        assert_eq!(exchanged(64), [0, 1, 2, 3, 4, 5, 4, 5, 2, 3, 0, 1]);
    }

    #[test]
    fn reachability_is_complete_at_input() {
        // From the first stage every input must be able to reach every output
        // (the network is rearrangeably non-blocking).
        for width in [4usize, 8, 16, 32, 64] {
            let t = Topology::new(width).unwrap();
            let reach = t.reachability().unwrap();
            let full = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            for (j, &mask) in reach[0].iter().enumerate() {
                assert_eq!(
                    mask, full,
                    "input {j} of width-{width} BIRRD cannot reach all outputs"
                );
            }
        }
    }

    #[test]
    fn reachability_narrows_towards_output() {
        let t = Topology::new(16).unwrap();
        let reach = t.reachability().unwrap();
        let last = t.stages() - 1;
        for mask in &reach[last] {
            assert_eq!(mask.count_ones(), 2);
        }
    }

    #[test]
    fn reachability_stops_at_sixty_four_ports() {
        assert!(Topology::new(MAX_ROUTED_WIDTH)
            .unwrap()
            .reachability()
            .is_some());
        assert_eq!(Topology::new(128).unwrap().reachability(), None);
    }
}
