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
//! knows exactly which input ports sum into it. Steady-state evaluation
//! ([`CompiledRoute::run`]) is then a flat gather-sum over those precomputed
//! index lists — no stage walk, no allocation, bit-identical to `evaluate`
//! for *any* input vector (the equivalence is property-tested below).

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
/// let inputs = vec![Some(1), Some(2), Some(3), Some(4)];
/// let mut outputs = vec![None; 4];
/// compiled.run(&inputs, &mut outputs).unwrap();
/// assert_eq!(outputs, birrd.evaluate(&config, &inputs).unwrap());
/// assert_eq!(outputs[2], Some(3));
/// assert_eq!(outputs[0], Some(7));
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

    /// Evaluates the program: `outputs[port]` receives the sum of the present
    /// inputs routed to `port` (`None` where no data arrives), exactly as
    /// [`Birrd::evaluate`](crate::Birrd::evaluate) would produce for the
    /// compiled configuration. `outputs` is caller-owned scratch so the steady
    /// state allocates nothing.
    ///
    /// # Errors
    /// Returns [`EvalError::WidthMismatch`] if either slice length differs
    /// from the network width.
    #[inline]
    pub fn run(
        &self,
        inputs: &[Option<i64>],
        outputs: &mut [Option<i64>],
    ) -> Result<(), EvalError> {
        if inputs.len() != self.width || outputs.len() != self.width {
            return Err(EvalError::WidthMismatch {
                expected: self.width,
                got: if inputs.len() != self.width {
                    inputs.len()
                } else {
                    outputs.len()
                },
            });
        }
        outputs.fill(None);
        for &(port, src) in &self.copies {
            outputs[port as usize] = inputs[src as usize];
        }
        for &(port, start, end) in &self.gathers {
            let mut sum = 0i64;
            let mut any = false;
            for &src in &self.sources[start as usize..end as usize] {
                if let Some(v) = inputs[src as usize] {
                    sum += v;
                    any = true;
                }
            }
            if any {
                outputs[port as usize] = Some(sum);
            }
        }
        Ok(())
    }

    /// Evaluates the program once across a whole batch of lanes.
    ///
    /// `inputs` and `outputs` are port-major lane stripes (`lanes` consecutive
    /// values per port, so port `p` lane `l` lives at `p * lanes + l`);
    /// `present` / `out_present` carry the per-port presence that
    /// [`CompiledRoute::run`]'s `Option`s encode, shared by every lane. This
    /// is exact for the batched replay backend because presence there is
    /// data-independent: whether a column carries data depends only on the
    /// dataflow mapping, never on the values, so all lanes agree on it.
    ///
    /// For each lane the result is bit-identical to a scalar [`run`] over that
    /// lane's inputs: copies move stripes, gathers iterate the source ports
    /// once and sum the present sources' stripes with no per-lane checks.
    /// Output stripes of absent ports are zero-filled.
    ///
    /// [`run`]: CompiledRoute::run
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
            let mut outputs = vec![None; 8];
            compiled.run(&inputs, &mut outputs).unwrap();
            assert_eq!(
                outputs,
                birrd.evaluate(&config, &inputs).unwrap(),
                "compiled mismatch for {groups:?}"
            );
            assert_eq!(compiled.adder_activations(), config.adder_activations());
            // Ports not consumed by a reduction still pass through the
            // fabric, so the live-output count is at least the group count.
            assert!(compiled.live_outputs() >= groups.len());
            // `sources_of` names exactly the inputs `run` sums per port.
            for (port, &got) in outputs.iter().enumerate() {
                let sources = compiled.sources_of(port);
                let want: i64 = sources.iter().map(|&s| inputs[s as usize].unwrap()).sum();
                assert_eq!(got, (!sources.is_empty()).then_some(want), "port {port}");
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
            let mut outputs = vec![None; 4];
            compiled.run(&inputs, &mut outputs).unwrap();
            assert_eq!(outputs, birrd.evaluate(&config, &inputs).unwrap());
        }
    }

    #[test]
    fn width_and_shape_checks() {
        let birrd = Birrd::new(4).unwrap();
        let (_, compiled) = compile_for(&birrd, &[(vec![0], 0)]);
        let mut outputs = vec![None; 4];
        assert!(matches!(
            compiled.run(&seq(8), &mut outputs),
            Err(EvalError::WidthMismatch {
                expected: 4,
                got: 8
            })
        ));
        let mut short = vec![None; 2];
        assert!(compiled.run(&seq(4), &mut short).is_err());
        let topology = Topology::new(8).unwrap();
        let bad = NetworkConfig::passthrough(2, 4);
        assert_eq!(
            CompiledRoute::compile(&topology, &bad),
            Err(EvalError::ConfigMismatch)
        );
    }

    #[test]
    fn run_batched_matches_per_lane_scalar_runs() {
        let birrd = Birrd::new(8).unwrap();
        let cases: Vec<Vec<(Vec<usize>, usize)>> = vec![
            (0..8).map(|i| (vec![i], 7 - i)).collect(),
            vec![(vec![0, 1, 2], 0), (vec![3], 1), (vec![4, 5, 6], 2)],
            vec![((0..8).collect(), 5)],
        ];
        for groups in cases {
            let (_, compiled) = compile_for(&birrd, &groups);
            for lanes in [1usize, 2, 4] {
                // Presence shared across lanes; a couple of ports absent.
                let present: Vec<bool> = (0..8).map(|p| p != 3 && p != 6).collect();
                let inputs: Vec<i64> = (0..8 * lanes)
                    .map(|i| (i as i64 + 1) * if i % 2 == 0 { 3 } else { -2 })
                    .collect();
                let mut outputs = vec![0i64; 8 * lanes];
                let mut out_present = vec![false; 8];
                compiled
                    .run_batched(&inputs, &present, lanes, &mut outputs, &mut out_present)
                    .unwrap();
                for lane in 0..lanes {
                    let solo_in: Vec<Option<i64>> = (0..8)
                        .map(|p| present[p].then(|| inputs[p * lanes + lane]))
                        .collect();
                    let mut solo_out = vec![None; 8];
                    compiled.run(&solo_in, &mut solo_out).unwrap();
                    for p in 0..8 {
                        assert_eq!(
                            solo_out[p].is_some(),
                            out_present[p],
                            "presence mismatch at port {p} ({groups:?})"
                        );
                        assert_eq!(
                            solo_out[p].unwrap_or(0),
                            outputs[p * lanes + lane],
                            "value mismatch at port {p} lane {lane} ({groups:?})"
                        );
                    }
                }
            }
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
                let mut outputs = vec![None; width];
                compiled.run(&seq(width), &mut outputs).unwrap();
                proptest::prop_assert_eq!(outputs, birrd.evaluate(&config, &seq(width)).unwrap());
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
        let inputs = seq(8);
        let mut outputs = vec![None; 8];
        compiled.run(&inputs, &mut outputs).unwrap();
        assert_eq!(outputs, birrd.evaluate(&config, &inputs).unwrap());
        assert_eq!(compiled.live_outputs(), 8);
        assert_eq!(compiled.adder_activations(), 0);
    }
}
