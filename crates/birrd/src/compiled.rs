//! Compiled BIRRD route programs: a routed [`NetworkConfig`] lowered into a
//! flat gather-sum program for allocation-free steady-state evaluation.
//!
//! [`Birrd::evaluate`](crate::Birrd::evaluate) is the golden reference: it
//! walks the switch fabric stage by stage, allocating fresh wire vectors per
//! pass. The controller, however, replays the same handful of routed
//! configurations millions of times per layer, so the per-pass fabric walk is
//! pure overhead. [`CompiledRoute::compile`] pushes *port indices* through the
//! stages once, symbolically: every wire carries the set of input ports whose
//! values would merge on it, so after the final stage each live output port
//! knows exactly which input ports sum into it. Evaluation
//! ([`CompiledRoute::run_batched`]) is then a flat gather-sum over those
//! precomputed index lists — no stage walk, no allocation, bit-identical to
//! `evaluate` lane by lane for *any* input vector (the equivalence is
//! property-tested below).

use serde::{Deserialize, Serialize};

use crate::network::{EvalError, NetworkConfig};
use crate::switch::EggConfig;
use crate::topology::Topology;

/// A routed configuration lowered to a gather-sum program.
///
/// # Example
/// ```
/// use feather_birrd::{Birrd, CompiledRoute, ReductionRequest};
///
/// let birrd = Birrd::new(4).unwrap();
/// let request = ReductionRequest::from_groups(4, &[(vec![0, 1], 2), (vec![2, 3], 0)]).unwrap();
/// let config = birrd.route(&request).unwrap();
/// let compiled = CompiledRoute::compile(birrd.topology(), &config).unwrap();
///
/// // One lane: every port present.
/// let (mut outputs, mut out_present) = (vec![0; 4], vec![false; 4]);
/// compiled
///     .run_batched(&[1, 2, 3, 4], &[true; 4], 1, &mut outputs, &mut out_present)
///     .unwrap();
/// let golden = birrd.evaluate(&config, &[Some(1), Some(2), Some(3), Some(4)]).unwrap();
/// assert_eq!(golden, [Some(7), None, Some(3), None]);
/// assert_eq!(outputs, [7, 0, 3, 0]);
/// assert_eq!(out_present, [true, false, true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledRoute {
    width: usize,
    /// Flat list of source input ports, one contiguous span per multi-source
    /// output.
    sources: Vec<u32>,
    /// `(output port, start, end)` spans into `sources`, one per output port
    /// that *sums* two or more inputs under this configuration.
    gathers: Vec<(u32, u32, u32)>,
    /// `(output port, source port)` pairs for pass-through outputs — ports fed
    /// by exactly one input, split out at compile time so evaluation moves
    /// them with a straight copy instead of a degenerate gather loop.
    copies: Vec<(u32, u32)>,
    /// Number of switches configured to add (precomputed from the config so
    /// the hot loop never re-scans the stage matrix).
    adder_activations: usize,
}

impl CompiledRoute {
    /// Lowers a configuration for the given topology into a gather-sum
    /// program.
    ///
    /// # Errors
    /// Returns [`EvalError::ConfigMismatch`] if the configuration's
    /// stage/switch dimensions do not match the topology.
    pub fn compile(topology: &Topology, config: &NetworkConfig) -> Result<Self, EvalError> {
        let width = topology.width();
        if config.stages.len() != topology.stages()
            || config
                .stages
                .iter()
                .any(|s| s.len() != topology.switches_per_stage())
        {
            return Err(EvalError::ConfigMismatch);
        }

        // Symbolic evaluation over input ports: every wire carries the class
        // of input ports whose values merge on it, named by its union-find
        // representative. Pass/Swap move a class, Add unions two; the
        // inter-stage permutation relocates them — exactly mirroring
        // `EggConfig::apply` and `Birrd::evaluate`, with "inputs that
        // contribute" in place of "optional value". A class sits on one wire
        // per level, so every class lands on exactly one output port.
        let mut classes = Classes {
            parent: (0..width as u32).collect(),
            size: vec![1; width],
        };
        let mut current: Vec<Option<u32>> = (0..width as u32).map(Some).collect();
        let mut next: Vec<Option<u32>> = vec![None; width];
        for (s, stage_cfg) in config.stages.iter().enumerate() {
            // The switches' outputs cross a permutation: every slot of
            // `next` is written once.
            for (sw, cfg) in stage_cfg.iter().enumerate() {
                let (left, right) = (current[2 * sw], current[2 * sw + 1]);
                let (l, r) = match cfg {
                    EggConfig::Pass => (left, right),
                    EggConfig::Swap => (right, left),
                    EggConfig::AddLeft => (classes.union(left, right), None),
                    EggConfig::AddRight => (None, classes.union(left, right)),
                };
                next[topology.next_port(s, 2 * sw)] = l;
                next[topology.next_port(s, 2 * sw + 1)] = r;
            }
            std::mem::swap(&mut current, &mut next);
        }

        // Output ports in order: a class of one input is a copy, a larger one
        // a gather, whose run of `sources` is then filled in ascending input
        // order (`cursor`, indexed by representative, walks each run).
        let (mut copies, mut gathers) = (Vec::new(), Vec::new());
        let mut cursor = vec![0u32; width];
        let mut total = 0u32;
        for (port, class) in current.iter().enumerate() {
            let Some(root) = *class else { continue };
            match classes.size[root as usize] {
                1 => copies.push((port as u32, root)),
                n => {
                    cursor[root as usize] = total;
                    gathers.push((port as u32, total, total + n));
                    total += n;
                }
            }
        }
        let mut sources = vec![0u32; total as usize];
        for input in 0..width as u32 {
            let root = classes.find(input) as usize;
            if classes.size[root] > 1 {
                sources[cursor[root] as usize] = input;
                cursor[root] += 1;
            }
        }
        Ok(CompiledRoute {
            width,
            sources,
            gathers,
            copies,
            adder_activations: config.adder_activations(),
        })
    }

    /// Number of input/output ports.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of adder activations one pass through this route performs.
    pub fn adder_activations(&self) -> usize {
        self.adder_activations
    }

    /// Number of output ports that carry data under this route.
    pub fn live_outputs(&self) -> usize {
        self.copies.len() + self.gathers.len()
    }

    /// The input ports whose values sum into output `port` under this route
    /// (empty where no data can arrive) — what a caller folds into its own
    /// gather list when the set of present inputs is known ahead of time.
    pub fn sources_of(&self, port: usize) -> &[u32] {
        if let Some((_, src)) = self.copies.iter().find(|(p, _)| *p as usize == port) {
            return std::slice::from_ref(src);
        }
        match self.gathers.iter().find(|(p, ..)| *p as usize == port) {
            Some(&(_, start, end)) => &self.sources[start as usize..end as usize],
            None => &[],
        }
    }

    /// Evaluates the program once across a whole batch of lanes.
    ///
    /// `inputs` and `outputs` are port-major lane stripes (`lanes` consecutive
    /// values per port, so port `p` lane `l` lives at `p * lanes + l`);
    /// `present` / `out_present` carry the per-port presence that
    /// [`Birrd::evaluate`](crate::Birrd::evaluate)'s `Option`s encode, shared
    /// by every lane: whether a column carries data depends only on the
    /// dataflow mapping, never on the values, so all lanes agree on it. The
    /// values of absent input ports are never read.
    ///
    /// For each lane the result is bit-identical to `evaluate` over that
    /// lane's inputs: copies move stripes, gathers iterate the source ports
    /// once and sum the present sources' stripes with no per-lane checks.
    /// Output stripes of absent ports are zero-filled.
    ///
    /// # Errors
    /// Returns [`EvalError::WidthMismatch`] if `present`/`out_present` are not
    /// width-sized or the stripe slices are not `width * lanes` long.
    #[inline]
    pub fn run_batched(
        &self,
        inputs: &[i64],
        present: &[bool],
        lanes: usize,
        outputs: &mut [i64],
        out_present: &mut [bool],
    ) -> Result<(), EvalError> {
        let lanes = lanes.max(1);
        for (len, expected) in [
            (inputs.len(), self.width * lanes),
            (outputs.len(), self.width * lanes),
            (present.len(), self.width),
            (out_present.len(), self.width),
        ] {
            if len != expected {
                return Err(EvalError::WidthMismatch { expected, got: len });
            }
        }
        outputs.fill(0);
        out_present.fill(false);
        for &(port, src) in &self.copies {
            let (port, src) = (port as usize, src as usize);
            if present[src] {
                out_present[port] = true;
                outputs[port * lanes..(port + 1) * lanes]
                    .copy_from_slice(&inputs[src * lanes..(src + 1) * lanes]);
            }
        }
        for &(port, start, end) in &self.gathers {
            let port = port as usize;
            let mut any = false;
            for &src in &self.sources[start as usize..end as usize] {
                let src = src as usize;
                if present[src] {
                    any = true;
                    let stripe = &inputs[src * lanes..(src + 1) * lanes];
                    for (acc, v) in outputs[port * lanes..(port + 1) * lanes]
                        .iter_mut()
                        .zip(stripe)
                    {
                        *acc += v;
                    }
                }
            }
            out_present[port] = any;
        }
        Ok(())
    }
}

/// Disjoint classes of input ports: union-find with path halving.
struct Classes {
    parent: Vec<u32>,
    /// Input ports per class, valid at representatives.
    size: Vec<u32>,
}

impl Classes {
    /// The representative of `port`'s class.
    fn find(&mut self, mut port: u32) -> u32 {
        while self.parent[port as usize] != port {
            let up = self.parent[self.parent[port as usize] as usize];
            self.parent[port as usize] = up;
            port = up;
        }
        port
    }

    /// The class an adder emits: the union of its two inputs' classes,
    /// either of which may be absent.
    fn union(&mut self, a: Option<u32>, b: Option<u32>) -> Option<u32> {
        match (a, b) {
            (Some(a), Some(b)) => {
                let (a, b) = (self.find(a), self.find(b));
                self.parent[b as usize] = a;
                self.size[a as usize] += self.size[b as usize];
                Some(a)
            }
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::ReductionRequest;
    use crate::Birrd;

    fn seq(width: usize) -> Vec<Option<i64>> {
        (0..width).map(|i| Some((i + 1) as i64)).collect()
    }

    fn compile_for(
        birrd: &Birrd,
        groups: &[(Vec<usize>, usize)],
    ) -> (NetworkConfig, CompiledRoute) {
        let request = ReductionRequest::from_groups(birrd.width(), groups).unwrap();
        let config = birrd.route(&request).unwrap();
        let compiled = CompiledRoute::compile(birrd.topology(), &config).unwrap();
        (config, compiled)
    }

    /// Checks [`CompiledRoute::run_batched`] against [`Birrd::evaluate`]
    /// lane by lane at 1, 3 and 8 lanes. Presence is `pattern`'s, shared by
    /// every lane; lane `l` carries `pattern`'s values times `l + 1`, minus
    /// `l`, and absent ports carry a stray value that must never be read.
    /// The output scratch starts dirty, so every slot must be written.
    fn assert_lanes_match_evaluate(
        birrd: &Birrd,
        config: &NetworkConfig,
        compiled: &CompiledRoute,
        pattern: &[Option<i64>],
    ) {
        let width = pattern.len();
        let present: Vec<bool> = pattern.iter().map(Option::is_some).collect();
        for lanes in [1usize, 3, 8] {
            let inputs: Vec<i64> = (0..width * lanes)
                .map(|i| {
                    let (port, lane) = (i / lanes, (i % lanes) as i64);
                    pattern[port].map_or(1 << 40, |v| v * (lane + 1) - lane)
                })
                .collect();
            let (mut outputs, mut out_present) = (vec![-1; width * lanes], vec![true; width]);
            compiled
                .run_batched(&inputs, &present, lanes, &mut outputs, &mut out_present)
                .unwrap();
            for lane in 0..lanes {
                let lane_inputs: Vec<Option<i64>> = (0..width)
                    .map(|p| present[p].then(|| inputs[p * lanes + lane]))
                    .collect();
                let golden = birrd.evaluate(config, &lane_inputs).unwrap();
                for (port, want) in golden.iter().enumerate() {
                    assert_eq!(out_present[port], want.is_some(), "port {port} presence");
                    assert_eq!(
                        outputs[port * lanes + lane],
                        want.unwrap_or(0),
                        "port {port} lane {lane} of {lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_evaluate_on_reductions_and_permutations() {
        let birrd = Birrd::new(8).unwrap();
        let cases: Vec<Vec<(Vec<usize>, usize)>> = vec![
            (0..8).map(|i| (vec![i], 7 - i)).collect(),
            vec![(vec![0, 1, 2], 0), (vec![3], 1), (vec![4, 5, 6], 2)],
            vec![((0..8).collect(), 5)],
            vec![(vec![1, 2], 6), (vec![5], 0)],
        ];
        for groups in cases {
            let (config, compiled) = compile_for(&birrd, &groups);
            let inputs = seq(8);
            assert_lanes_match_evaluate(&birrd, &config, &compiled, &inputs);
            assert_eq!(compiled.adder_activations(), config.adder_activations());
            // Ports not consumed by a reduction still pass through the
            // fabric, so the live-output count is at least the group count.
            assert!(compiled.live_outputs() >= groups.len());
            // `sources_of` names exactly the inputs `evaluate` sums per port.
            let golden = birrd.evaluate(&config, &inputs).unwrap();
            for (port, &want) in golden.iter().enumerate() {
                let sources = compiled.sources_of(port);
                let sum: i64 = sources.iter().map(|&s| inputs[s as usize].unwrap()).sum();
                assert_eq!((!sources.is_empty()).then_some(sum), want, "port {port}");
            }
            assert!(compiled.sources_of(8).is_empty());
        }
    }

    #[test]
    fn missing_inputs_are_skipped_like_evaluate() {
        let birrd = Birrd::new(4).unwrap();
        let (config, compiled) = compile_for(&birrd, &[(vec![0, 1], 3), (vec![2, 3], 1)]);
        // One operand of each group absent; one group fully absent.
        for inputs in [
            vec![Some(5), None, None, Some(7)],
            vec![None, None, Some(1), Some(2)],
            vec![None, None, None, None],
        ] {
            assert_lanes_match_evaluate(&birrd, &config, &compiled, &inputs);
        }
    }

    #[test]
    fn width_and_shape_checks() {
        let birrd = Birrd::new(4).unwrap();
        let (_, compiled) = compile_for(&birrd, &[(vec![0], 0)]);
        let (mut outputs, mut out_present) = (vec![0; 4], vec![false; 4]);
        assert!(matches!(
            compiled.run_batched(&[0; 8], &[true; 4], 1, &mut outputs, &mut out_present),
            Err(EvalError::WidthMismatch {
                expected: 4,
                got: 8
            })
        ));
        let mut short = vec![0; 2];
        assert!(compiled
            .run_batched(&[0; 4], &[true; 4], 1, &mut short, &mut out_present)
            .is_err());
        let topology = Topology::new(8).unwrap();
        let bad = NetworkConfig::passthrough(2, 4);
        assert_eq!(
            CompiledRoute::compile(&topology, &bad),
            Err(EvalError::ConfigMismatch)
        );
    }

    /// The scalar run of each lane is `evaluate`; presence is shared across
    /// lanes and a couple of ports are absent.
    #[test]
    fn run_batched_matches_per_lane_scalar_runs() {
        let birrd = Birrd::new(8).unwrap();
        let cases: Vec<Vec<(Vec<usize>, usize)>> = vec![
            (0..8).map(|i| (vec![i], 7 - i)).collect(),
            vec![(vec![0, 1, 2], 0), (vec![3], 1), (vec![4, 5, 6], 2)],
            vec![((0..8).collect(), 5)],
        ];
        let pattern: Vec<Option<i64>> = (0..8)
            .map(|p| (p != 3 && p != 6).then(|| (p as i64 + 1) * if p % 2 == 0 { 3 } else { -2 }))
            .collect();
        for groups in cases {
            let (config, compiled) = compile_for(&birrd, &groups);
            assert_lanes_match_evaluate(&birrd, &config, &compiled, &pattern);
        }
    }

    #[test]
    fn run_batched_checks_stripe_lengths() {
        let birrd = Birrd::new(4).unwrap();
        let (_, compiled) = compile_for(&birrd, &[(vec![0, 1], 0)]);
        let mut outputs = vec![0i64; 8];
        let mut out_present = vec![false; 4];
        assert!(compiled
            .run_batched(&[0; 7], &[true; 4], 2, &mut outputs, &mut out_present)
            .is_err());
        assert!(compiled
            .run_batched(&[0; 8], &[true; 3], 2, &mut outputs, &mut out_present)
            .is_err());
    }

    /// The lowering as it was first written — one sorted `Vec` of input
    /// ports per wire, unioned at every adder — kept as the oracle of the
    /// union-find lowering.
    fn lower_with_port_sets(topology: &Topology, config: &NetworkConfig) -> CompiledRoute {
        let width = topology.width();
        let mut current: Vec<Vec<u32>> = (0..width as u32).map(|p| vec![p]).collect();
        for (s, stage_cfg) in config.stages.iter().enumerate() {
            let mut next: Vec<Vec<u32>> = vec![Vec::new(); width];
            for (sw, cfg) in stage_cfg.iter().enumerate() {
                let left = std::mem::take(&mut current[2 * sw]);
                let right = std::mem::take(&mut current[2 * sw + 1]);
                let union = |a: Vec<u32>, b: Vec<u32>| {
                    let mut set = [a, b].concat();
                    set.sort_unstable();
                    set
                };
                let (l, r) = match cfg {
                    EggConfig::Pass => (left, right),
                    EggConfig::Swap => (right, left),
                    EggConfig::AddLeft => (union(left, right), Vec::new()),
                    EggConfig::AddRight => (Vec::new(), union(left, right)),
                };
                next[topology.next_port(s, 2 * sw)] = l;
                next[topology.next_port(s, 2 * sw + 1)] = r;
            }
            current = next;
        }
        let (mut sources, mut gathers, mut copies) = (Vec::new(), Vec::new(), Vec::new());
        for (port, set) in current.into_iter().enumerate() {
            match set.as_slice() {
                [] => {}
                [src] => copies.push((port as u32, *src)),
                _ => {
                    let start = sources.len() as u32;
                    sources.extend(set);
                    gathers.push((port as u32, start, sources.len() as u32));
                }
            }
        }
        CompiledRoute {
            width,
            sources,
            gathers,
            copies,
            adder_activations: config.adder_activations(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any configuration at any width up to 128 — adders over empty
        /// wires included, routable or not — lowers to the program the
        /// per-wire port sets gave, and (up to 16 ports, where `evaluate` is
        /// cheap) runs like the stage walk.
        #[test]
        fn union_find_lowering_equals_the_port_set_lowering(
            log_width in 1u32..=7,
            picks in proptest::collection::vec(0usize..4, 448..449),
        ) {
            let width = 1usize << log_width;
            let topology = Topology::new(width).unwrap();
            let mut picks = picks.iter().cycle();
            let stages = (0..topology.stages())
                .map(|_| {
                    (0..topology.switches_per_stage())
                        .map(|_| {
                            use EggConfig::*;
                            [Pass, Swap, AddLeft, AddRight][*picks.next().unwrap()]
                        })
                        .collect()
                })
                .collect();
            let config = NetworkConfig { stages };
            let compiled = CompiledRoute::compile(&topology, &config).unwrap();
            proptest::prop_assert_eq!(&compiled, &lower_with_port_sets(&topology, &config));
            if width <= 16 {
                let birrd = Birrd::new(width).unwrap();
                assert_lanes_match_evaluate(&birrd, &config, &compiled, &seq(width));
            }
        }
    }

    #[test]
    fn passthrough_compiles_to_identity_like_permutation() {
        // An all-pass configuration still crosses the inter-stage wiring, so
        // the compiled program must reproduce whatever permutation evaluate
        // produces — not the identity.
        let birrd = Birrd::new(8).unwrap();
        let config = NetworkConfig::passthrough(
            birrd.topology().stages(),
            birrd.topology().switches_per_stage(),
        );
        let compiled = CompiledRoute::compile(birrd.topology(), &config).unwrap();
        assert_lanes_match_evaluate(&birrd, &config, &compiled, &seq(8));
        assert_eq!(compiled.live_outputs(), 8);
        assert_eq!(compiled.adder_activations(), 0);
    }
}
