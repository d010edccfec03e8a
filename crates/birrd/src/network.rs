//! The functional BIRRD network: route requests, apply configurations to
//! concrete values, account for latency/switch activity.

use serde::{Deserialize, Serialize};

use crate::route::{ReductionRequest, RouteError, Router};
use crate::switch::EggConfig;
use crate::topology::{Topology, TopologyError};

/// A complete per-stage switch configuration for one BIRRD pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// `stages[s][k]` is the configuration of switch `k` at stage `s`.
    pub stages: Vec<Vec<EggConfig>>,
}

impl NetworkConfig {
    /// All-pass configuration for a network of the given dimensions.
    pub fn passthrough(stages: usize, switches_per_stage: usize) -> Self {
        NetworkConfig {
            stages: vec![vec![EggConfig::Pass; switches_per_stage]; stages],
        }
    }

    /// Number of switches configured to add (a proxy for reduction work).
    pub fn adder_activations(&self) -> usize {
        self.stages
            .iter()
            .flat_map(|s| s.iter())
            .filter(|c| c.is_reduce())
            .count()
    }

    /// Serializes the configuration into the 2-bit-per-switch control words
    /// stored in the instruction buffer (stage-major, switch order within a
    /// stage, little-endian packing into bytes).
    pub fn to_control_words(&self) -> Vec<u8> {
        let mut bits: Vec<u8> = Vec::new();
        let mut current = 0u8;
        let mut filled = 0u32;
        for stage in &self.stages {
            for cfg in stage {
                current |= cfg.bits() << filled;
                filled += 2;
                if filled == 8 {
                    bits.push(current);
                    current = 0;
                    filled = 0;
                }
            }
        }
        if filled > 0 {
            bits.push(current);
        }
        bits
    }
}

/// Errors from evaluating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The number of input values does not match the network width.
    WidthMismatch {
        /// Expected width.
        expected: usize,
        /// Provided width.
        got: usize,
    },
    /// The configuration's stage/switch dimensions do not match the network.
    ConfigMismatch,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::WidthMismatch { expected, got } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            EvalError::ConfigMismatch => write!(f, "configuration does not match network shape"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An `AW`-input BIRRD instance.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Birrd {
    topology: Topology,
}

impl Birrd {
    /// Creates a BIRRD with `width` input ports (must be a power of two ≥ 2).
    ///
    /// # Errors
    /// Returns [`TopologyError`] if the width is not a power of two ≥ 2.
    pub fn new(width: usize) -> Result<Self, TopologyError> {
        Ok(Birrd {
            topology: Topology::new(width)?,
        })
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of input/output ports.
    pub fn width(&self) -> usize {
        self.topology.width()
    }

    /// Pipelined latency of one pass through the network, in cycles (one cycle
    /// per stage).
    pub fn latency_cycles(&self) -> u64 {
        self.topology.stages() as u64
    }

    /// Routes a reduction-reorder request into a switch configuration.
    ///
    /// # Errors
    /// Returns [`RouteError`] if the network is wider than the router
    /// supports ([`RouteError::WidthUnsupported`]), the request is of the
    /// wrong width or malformed ([`RouteError::MalformedRequest`]: a
    /// destination out of range or shared by two groups, a group without
    /// inputs, an input whose group has no destination), or no
    /// configuration was found within the router's fixed search budget of
    /// 2 000 000 explored nodes.
    pub fn route(&self, request: &ReductionRequest) -> Result<NetworkConfig, RouteError> {
        let mut router = Router::new(&self.topology)?;
        let stages = router.route(request)?;
        Ok(NetworkConfig { stages })
    }

    /// Applies a configuration to concrete input values and returns the values
    /// appearing on each output port.
    ///
    /// # Errors
    /// Returns [`EvalError`] if the input slice or the configuration do not
    /// match the network shape.
    pub fn evaluate(
        &self,
        config: &NetworkConfig,
        inputs: &[Option<i64>],
    ) -> Result<Vec<Option<i64>>, EvalError> {
        let width = self.width();
        if inputs.len() != width {
            return Err(EvalError::WidthMismatch {
                expected: width,
                got: inputs.len(),
            });
        }
        if config.stages.len() != self.topology.stages()
            || config
                .stages
                .iter()
                .any(|s| s.len() != self.topology.switches_per_stage())
        {
            return Err(EvalError::ConfigMismatch);
        }

        let mut current: Vec<Option<i64>> = inputs.to_vec();
        for (s, stage_cfg) in config.stages.iter().enumerate() {
            let mut after_switch = vec![None; width];
            for (sw, cfg) in stage_cfg.iter().enumerate() {
                let (l, r) = cfg.apply(current[2 * sw], current[2 * sw + 1]);
                after_switch[2 * sw] = l;
                after_switch[2 * sw + 1] = r;
            }
            // Cross the inter-stage (or final) permutation.
            let mut next = vec![None; width];
            for (port, value) in after_switch.into_iter().enumerate() {
                if value.is_some() {
                    let dst = self.topology.next_port(s, port);
                    debug_assert!(next[dst].is_none(), "two values collided on one link");
                    next[dst] = value;
                }
            }
            current = next;
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::ReductionRequest;
    use std::collections::BTreeMap;

    /// Checks a routed request end to end: group sums land on the requested
    /// output ports and nothing else appears anywhere.
    fn check(width: usize, groups: &[(Vec<usize>, usize)], inputs: Vec<Option<i64>>) {
        let birrd = Birrd::new(width).unwrap();
        let request = ReductionRequest::from_groups(width, groups).unwrap();
        let config = birrd
            .route(&request)
            .unwrap_or_else(|e| panic!("routing failed for {groups:?}: {e}"));
        let outputs = birrd.evaluate(&config, &inputs).unwrap();
        let mut expected: BTreeMap<usize, i64> = BTreeMap::new();
        for (members, dest) in groups {
            let sum: i64 = members.iter().map(|&p| inputs[p].unwrap_or(0)).sum();
            expected.insert(*dest, sum);
        }
        for (port, value) in outputs.iter().enumerate() {
            match expected.get(&port) {
                Some(&sum) => assert_eq!(
                    *value,
                    Some(sum),
                    "port {port}: expected {sum}, got {value:?} (groups {groups:?})"
                ),
                None => assert_eq!(
                    *value, None,
                    "port {port} should be empty (groups {groups:?})"
                ),
            }
        }
    }

    fn seq(width: usize) -> Vec<Option<i64>> {
        (0..width).map(|i| Some((i + 1) as i64)).collect()
    }

    #[test]
    fn identity_permutation() {
        let perm: Vec<usize> = (0..8).collect();
        let groups: Vec<(Vec<usize>, usize)> = perm
            .iter()
            .enumerate()
            .map(|(i, &d)| (vec![i], d))
            .collect();
        check(8, &groups, seq(8));
    }

    #[test]
    fn reversal_permutation() {
        let groups: Vec<(Vec<usize>, usize)> = (0..8).map(|i| (vec![i], 7 - i)).collect();
        check(8, &groups, seq(8));
    }

    #[test]
    fn fig9_style_4_to_2_reduction() {
        check(4, &[(vec![0, 1], 0), (vec![2, 3], 1)], seq(4));
        check(4, &[(vec![0, 1], 3), (vec![2, 3], 0)], seq(4));
    }

    #[test]
    fn full_reduction_to_single_output() {
        for dest in 0..8 {
            check(8, &[((0..8).collect(), dest)], seq(8));
        }
    }

    #[test]
    fn mixed_group_sizes_fig10_workload_c() {
        // 3:1 reductions plus pass-through lanes (Fig. 10 workload C style).
        check(
            8,
            &[
                (vec![0, 1, 2], 0),
                (vec![3], 1),
                (vec![4, 5, 6], 2),
                (vec![7], 3),
            ],
            seq(8),
        );
    }

    #[test]
    fn sparse_inputs_with_reordering() {
        // Only some columns carry data; results scatter to arbitrary banks.
        check(
            8,
            &[(vec![1, 2], 6), (vec![5], 0)],
            vec![None, Some(10), Some(20), None, None, Some(7), None, None],
        );
    }

    #[test]
    fn sixteen_wide_reductions() {
        // 4 groups of 4 adjacent inputs scattered to non-adjacent banks.
        check(
            16,
            &[
                (vec![0, 1, 2, 3], 12),
                (vec![4, 5, 6, 7], 8),
                (vec![8, 9, 10, 11], 4),
                (vec![12, 13, 14, 15], 0),
            ],
            seq(16),
        );
    }

    #[test]
    fn sixteen_wide_permutation() {
        let groups: Vec<(Vec<usize>, usize)> = (0..16).map(|i| (vec![i], (i * 5) % 16)).collect();
        check(16, &groups, seq(16));
    }

    /// Deterministic Fisher–Yates driven by a pinned LCG seed, so the routed
    /// permutation below is reproducible forever (regression guard for the
    /// pipeline path and the ROADMAP "wider BIRRD routing" item).
    fn pinned_permutation(width: usize, mut seed: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..width).collect();
        for i in (1..perm.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (seed as usize) % (i + 1));
        }
        perm
    }

    /// Seed for the pinned routed permutations; changing it invalidates the
    /// regression baseline, so don't.
    const PIPELINE_PERM_SEED: u64 = 0xFEA7_2024;

    #[test]
    fn pipeline_16_wide_permutation_routes_deterministically() {
        // The 16-wide array is what the pipeline executor and the paper's
        // evaluation use. This pinned permutation must stay routable, and the
        // router must return the same configuration every time (restart seeds
        // are fixed), otherwise cycle/energy baselines silently drift.
        let perm = pinned_permutation(16, PIPELINE_PERM_SEED);
        let birrd = Birrd::new(16).unwrap();
        let request = ReductionRequest::permutation(&perm).unwrap();
        let config = birrd.route(&request).expect("pinned permutation routable");
        assert_eq!(
            birrd.route(&request).unwrap(),
            config,
            "routing not deterministic"
        );
        let outputs = birrd.evaluate(&config, &seq(16)).unwrap();
        for (i, &dest) in perm.iter().enumerate() {
            assert_eq!(outputs[dest], Some((i + 1) as i64));
        }
    }

    #[test]
    #[ignore = "width-32 routing still degrades under restart-based path packing; \
                current budget: 2_000_000 search nodes (the router's fixed budget). This is \
                the measurable target for the ROADMAP 'wider BIRRD routing' item — \
                un-ignore once an exact Algorithm-1 decomposition or conflict-directed \
                backjumping lands."]
    fn width_32_pinned_permutation_smoke() {
        let perm = pinned_permutation(32, PIPELINE_PERM_SEED);
        let birrd = Birrd::new(32).unwrap();
        let request = ReductionRequest::permutation(&perm).unwrap();
        let config = birrd
            .route(&request)
            .expect("32-wide pinned permutation within the router's 2M-node budget");
        let outputs = birrd.evaluate(&config, &seq(32)).unwrap();
        for (i, &dest) in perm.iter().enumerate() {
            assert_eq!(outputs[dest], Some((i + 1) as i64));
        }
    }

    /// Width 8 is a Beneš network plus one stage, and it is rearrangeably
    /// non-blocking: every one of the 8! = 40 320 permutations routes, and
    /// its configuration delivers input `i` to port `perm[i]` and nothing
    /// anywhere else.
    #[test]
    fn every_width_8_permutation_routes() {
        let birrd = Birrd::new(8).unwrap();
        let inputs = seq(8);
        let mut routed = 0;
        let mut check = |perm: &[usize]| {
            let request = ReductionRequest::permutation(perm).unwrap();
            let config = birrd
                .route(&request)
                .unwrap_or_else(|e| panic!("{perm:?}: {e}"));
            let mut expected = vec![None; 8];
            for (i, &dest) in perm.iter().enumerate() {
                expected[dest] = inputs[i];
            }
            assert_eq!(
                birrd.evaluate(&config, &inputs).unwrap(),
                expected,
                "{perm:?}"
            );
            routed += 1;
        };
        // Heap's algorithm: one swap per step visits every order once.
        let mut perm: Vec<usize> = (0..8).collect();
        let mut counters = [0usize; 8];
        check(&perm);
        let mut i = 1;
        while i < perm.len() {
            if counters[i] < i {
                perm.swap(if i % 2 == 0 { 0 } else { counters[i] }, i);
                check(&perm);
                counters[i] += 1;
                i = 1;
            } else {
                counters[i] = 0;
                i += 1;
            }
        }
        assert_eq!(routed, 40_320);
    }

    /// A request built through the public fields: each port's group, and
    /// `(group, destination)` pairs.
    fn raw(input_groups: Vec<Option<usize>>, destinations: &[(usize, usize)]) -> ReductionRequest {
        ReductionRequest {
            input_groups,
            group_destinations: destinations.iter().copied().collect(),
        }
    }

    /// Routes `request` on a 4-wide BIRRD and expects it refused as
    /// malformed, before any search.
    fn assert_malformed(request: ReductionRequest) {
        match Birrd::new(4).unwrap().route(&request) {
            Err(RouteError::MalformedRequest(_)) => {}
            other => panic!("{request:?} routed to {other:?}"),
        }
    }

    #[test]
    fn a_live_port_whose_group_has_no_destination_is_malformed() {
        assert_malformed(raw(vec![Some(0), Some(1), None, None], &[(0, 0)]));
    }

    #[test]
    fn two_groups_sharing_a_destination_are_malformed() {
        assert_malformed(raw(vec![Some(0), Some(1), None, None], &[(0, 2), (1, 2)]));
    }

    #[test]
    fn a_destination_past_the_width_is_malformed() {
        assert_malformed(raw(vec![Some(0), None, None, None], &[(0, 9)]));
    }

    #[test]
    fn a_destination_past_sixty_four_is_malformed() {
        assert_malformed(raw(vec![Some(0), None, None, None], &[(0, 64)]));
    }

    #[test]
    fn a_group_without_inputs_is_malformed() {
        assert_malformed(raw(vec![Some(0), None, None, None], &[(0, 0), (1, 1)]));
    }

    #[test]
    fn rejects_width_mismatch() {
        let birrd = Birrd::new(8).unwrap();
        let request = ReductionRequest::from_groups(4, &[(vec![0], 0)]).unwrap();
        assert!(matches!(
            birrd.route(&request),
            Err(RouteError::WidthMismatch { .. })
        ));
        let cfg = NetworkConfig::passthrough(6, 4);
        assert!(birrd.evaluate(&cfg, &seq(4)).is_err());
    }

    /// A 128-port network builds and evaluates, but its reachability masks
    /// would need 128 bits: routing it is refused, not a panic.
    #[test]
    fn routing_wider_than_sixty_four_ports_is_an_error() {
        let birrd = Birrd::new(128).unwrap();
        let request = ReductionRequest::from_groups(128, &[(vec![0, 1], 5)]).unwrap();
        assert_eq!(
            birrd.route(&request),
            Err(RouteError::WidthUnsupported {
                width: 128,
                max: 64
            })
        );
        let passthrough = NetworkConfig::passthrough(
            birrd.topology().stages(),
            birrd.topology().switches_per_stage(),
        );
        assert!(birrd.evaluate(&passthrough, &seq(128)).is_ok());
    }

    #[test]
    fn passthrough_config_shape_check() {
        let birrd = Birrd::new(8).unwrap();
        let bad = NetworkConfig::passthrough(2, 4);
        assert_eq!(
            birrd.evaluate(&bad, &seq(8)),
            Err(EvalError::ConfigMismatch)
        );
    }

    #[test]
    fn control_word_packing() {
        let cfg = NetworkConfig {
            stages: vec![vec![
                EggConfig::Pass,
                EggConfig::Swap,
                EggConfig::AddLeft,
                EggConfig::AddRight,
            ]],
        };
        // 2-bit codes 00, 01, 10, 11 packed little-endian: 0b11_10_01_00 = 0xE4.
        assert_eq!(cfg.to_control_words(), vec![0xE4]);
        assert_eq!(cfg.adder_activations(), 2);
    }

    #[test]
    fn latency_matches_stage_count() {
        assert_eq!(Birrd::new(4).unwrap().latency_cycles(), 3);
        assert_eq!(Birrd::new(16).unwrap().latency_cycles(), 8);
    }
}
