//! Whole-graph DAG execution — residual branches and joins over the pipelined
//! ping/pong StaB — as plan → compile once → replay.
//!
//! Real models are DAGs: ResNet's shortcut tensors branch off, survive
//! several layers, and rejoin through an element-wise add.
//! [`GraphSession`] runs them. Building one *plans* the graph:
//!
//! 1. The [`Graph`] is partitioned into linear [`GraphSegment`]s (branch
//!    fan-outs and joins always fall on segment boundaries).
//! 2. Each segment becomes a validated ping/pong chain of `(layer, mapping)`
//!    steps ([`crate::session`]) — intermediate activations inside a segment
//!    never leave the chip.
//! 3. A tensor still needed after the pipeline moves on (a shortcut) is
//!    parked in the scratch region until its join; the compiled program
//!    counts that traffic apart from the StaB's with a
//!    [`feather_memsim::ScratchRegion`], which keeps element counts per
//!    tensor slot, not values.
//! 4. At a join, the quantized INT8 main-path and shortcut tensors are added
//!    with saturation ([`saturating_add_i8`]) before the result is staged
//!    into the consumer segment in its preferred layout.
//!
//! A linear chain is a graph of one segment: [`GraphSession::chain`] and
//! [`GraphSession::weight_stationary_chain`] build one from per-layer
//! mappings or layouts, and it plans, compiles and runs like any graph.
//!
//! Nothing in that plan depends on the data, so it executes the way FEATHER's
//! controller executes a layer: decided once, then played back. The session's
//! first [`GraphSession::run`] (or [`GraphSession::compile`]) lowers the plan
//! into one flat [`crate::Program`] — the only accounted pass over the graph,
//! which also counts the whole report — and every `run` replays that program
//! as pure data movement ([`crate::ProgramSession`]). A session compiles at
//! most once, however many threads call it first.
//!
//! DRAM accounting is graph-level: only the graph input is staged from DRAM
//! and only the graph output drains back; every other boundary lives in the
//! StaB handoff or the scratch region. [`GraphSession::run`] is bit-identical
//! to [`run_graph_reference`], which shares nothing with the compiler's
//! lowering: reference convolutions and explicit materialization of every
//! tensor, no NEST or BIRRD code at all.
//!
//! # Example
//!
//! ```
//! use feather::{FeatherConfig, GraphSession};
//! use feather::graph_session::run_graph_reference;
//! use feather_arch::graph::Graph;
//! use feather_arch::tensor::Tensor4;
//! use feather_arch::workload::ConvLayer;
//!
//! // conv → (identity ‖ conv) → add → conv: one residual join.
//! let mut g = Graph::new("toy", [1, 4, 6, 6]);
//! let trunk = g
//!     .conv(g.input(), ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1).with_name("stem"))
//!     .unwrap();
//! let branch = g
//!     .conv(trunk, ConvLayer::new(1, 4, 4, 6, 6, 1, 1).with_name("branch"))
//!     .unwrap();
//! let joined = g.add(trunk, branch, "join").unwrap();
//! g.conv(joined, ConvLayer::new(1, 4, 4, 6, 6, 1, 1).with_name("head")).unwrap();
//!
//! let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
//! let iacts = Tensor4::random([1, 4, 6, 6], 1);
//! let weights = g.random_weights(2);
//! let run = session.run(&iacts, &weights).unwrap();
//!
//! let (shift, zero) = session.quantization();
//! let golden = run_graph_reference(&g, &iacts, &weights, shift, zero).unwrap();
//! assert_eq!(run.oacts, golden);
//! assert_eq!(run.report.joins.len(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::OnceLock;

use feather_arch::dataflow::Dataflow;
use feather_arch::energy::EnergyModel;
use feather_arch::fabric::{FeatherConfig, LayerMapping};
use feather_arch::graph::{Graph, GraphSegment, Node, NodeId, NodeOp, TensorId};
use feather_arch::layout::Layout;
use feather_arch::tensor::{conv2d_reference, quantize_to_i8, saturating_add_i8, Tensor4};
use feather_arch::workload::ConvLayer;
use feather_arch::ArchError;

use crate::program::{Program, ProgramSession};
use crate::report::GraphRun;
use crate::session::{validate_chain, DEFAULT_QUANT_SHIFT};

/// Per-node scheduling callback used by the session builders: maps a
/// conv-like node (and its execution convolution) to the `(dataflow, iAct
/// layout)` it should run with (`None` dataflow → the default
/// weight-stationary mapping).
type SchedulePick<'a> =
    &'a dyn Fn(&Node, &ConvLayer) -> Result<(Option<Dataflow>, Layout), ArchError>;

/// One scheduled step of a graph execution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Run segment `i` of the segment list as one pipelined chain.
    Segment(usize),
    /// Perform the residual add of the given node.
    Join(NodeId),
}

/// A planned segment: its graph span plus the validated `(layer, mapping)`
/// chain that executes it, in order.
#[derive(Debug, Clone)]
pub(crate) struct SegmentExec {
    pub(crate) segment: GraphSegment,
    pub(crate) steps: Vec<(ConvLayer, LayerMapping)>,
}

/// A DAG executor over FEATHER's pipelined StaB. See the
/// [module documentation](self) for the architectural story and an example.
#[derive(Debug, Clone)]
pub struct GraphSession {
    config: FeatherConfig,
    graph: Graph,
    pub(crate) segments: Vec<SegmentExec>,
    pub(crate) plan: Vec<Step>,
    /// Batch size every tensor's `N` extent is replaced with at run time
    /// (the graph's authored batch until [`GraphSession::with_batch`]).
    batch: usize,
    quant_shift: u32,
    quant_zero: i8,
    pub(crate) energy_model: EnergyModel,
    /// The plan lowered to its program (or why it does not lower), filled by
    /// the first [`GraphSession::run`] / [`GraphSession::compile`]. A clone
    /// of a filled cell shares the program; anything that changes what the
    /// program would be ([`GraphSession::with_batch`],
    /// [`GraphSession::with_quantization`]) starts from an empty one.
    program: OnceLock<Result<Program, ArchError>>,
}

impl GraphSession {
    /// Builds a session with the default weight-stationary mapping and a
    /// channels-last `HWC_C*` iAct layout per node (capped at the array
    /// width). The go-to constructor when no co-searched plan is available.
    ///
    /// # Errors
    /// Returns an error if the graph is invalid or a segment does not form a
    /// valid pipelined chain.
    pub fn auto(config: FeatherConfig, graph: &Graph) -> Result<Self, ArchError> {
        Self::build(config, graph, &|_, conv| {
            Ok((None, auto_layout(conv, &config)))
        })
    }

    /// Builds a session from per-node `(dataflow, iAct layout)` schedules —
    /// the shape `layoutloop`'s graph planner produces. Nodes absent from the
    /// map (or whose scheduled layout is wider than the array allows) fall
    /// back to the [`GraphSession::auto`] defaults.
    ///
    /// # Errors
    /// Returns an error if the graph is invalid, a scheduled dataflow cannot
    /// be projected onto FEATHER's controller, or a segment does not form a
    /// valid pipelined chain.
    pub fn from_schedules(
        config: FeatherConfig,
        graph: &Graph,
        schedules: &BTreeMap<NodeId, (Dataflow, Layout)>,
    ) -> Result<Self, ArchError> {
        Self::build(config, graph, &|node, conv| match schedules.get(&node.id) {
            Some((df, layout)) if layout.line_size() <= config.cols => {
                Ok((Some(df.clone()), layout.clone()))
            }
            _ => Ok((None, auto_layout(conv, &config))),
        })
    }

    /// A chain of layers with fully resolved mappings, as a graph of one
    /// segment: the layers become the conv nodes of a [`Graph::linear`]
    /// named `chain`, in order, and run back-to-back through the ping/pong
    /// StaB under the given mappings. Node `i` (`NodeId(i)`) takes layer
    /// `i`'s weights.
    ///
    /// # Errors
    /// Returns an error if the chain is empty, a layer or mapping is invalid,
    /// consecutive layers do not chain shape-wise
    /// ([`ConvLayer::chains_into`]), or a layer's oAct layout is not the
    /// producer-side view of the next layer's iAct layout (the RIR boundary
    /// contract, [`Layout::as_producer_oact_layout`]).
    pub fn chain(
        config: FeatherConfig,
        steps: Vec<(ConvLayer, LayerMapping)>,
    ) -> Result<Self, ArchError> {
        validate_chain(&config, &steps)?;
        let layers: Vec<ConvLayer> = steps.iter().map(|(layer, _)| layer.clone()).collect();
        let graph = Graph::linear("chain", &layers)?;
        let segment = GraphSegment {
            nodes: graph.nodes().iter().map(|node| node.id).collect(),
            input: graph.input(),
            output: graph.output(),
        };
        Ok(Self::new(
            config,
            graph,
            vec![SegmentExec { segment, steps }],
        ))
    }

    /// A chain under the paper's weight-stationary mapping, with the given
    /// per-layer iAct layouts. Each layer's oAct layout is derived from the
    /// *next* layer's iAct layout (the RIR boundary contract); the last
    /// layer uses `last_oact_layout`.
    ///
    /// # Errors
    /// Same as [`GraphSession::chain`], plus a shape error if the layout
    /// slice length does not match the layer count and
    /// [`ArchError::ParseLayout`] if a layout string does not parse.
    pub fn weight_stationary_chain(
        config: FeatherConfig,
        layers: &[ConvLayer],
        iact_layouts: &[&str],
        last_oact_layout: &str,
    ) -> Result<Self, ArchError> {
        if layers.len() != iact_layouts.len() {
            return Err(ArchError::ShapeMismatch(format!(
                "{} layers but {} iAct layouts",
                layers.len(),
                iact_layouts.len()
            )));
        }
        let parsed = iact_layouts
            .iter()
            .map(|s| s.parse())
            .collect::<Result<Vec<Layout>, _>>()?;
        let last_oact_layout: Layout = last_oact_layout.parse()?;
        let steps = layers
            .iter()
            .zip(parsed.iter().enumerate())
            .map(|(layer, (i, iact_layout))| {
                let oact_layout = match parsed.get(i + 1) {
                    Some(next) => next.as_producer_oact_layout(),
                    None => last_oact_layout.clone(),
                };
                let mapping = LayerMapping::weight_stationary_layouts(
                    layer,
                    &config,
                    iact_layout.clone(),
                    oact_layout,
                );
                (layer.clone(), mapping)
            })
            .collect();
        Self::chain(config, steps)
    }

    fn build(
        config: FeatherConfig,
        graph: &Graph,
        pick: SchedulePick<'_>,
    ) -> Result<Self, ArchError> {
        config.validate()?;
        graph.validate()?;
        if graph.is_empty() {
            return Err(ArchError::InvalidWorkload(
                "a graph session needs at least one node".to_string(),
            ));
        }
        let segments = graph.segments();

        // Resolve every conv-like node's (dataflow, iAct layout) first: oAct
        // layouts at segment boundaries are derived from *consumer* iAct
        // layouts, possibly across a join.
        let mut schedules: BTreeMap<NodeId, (Option<Dataflow>, Layout)> = BTreeMap::new();
        for seg in &segments {
            for &id in &seg.nodes {
                let node = graph.node(id);
                let conv = node
                    .execution_conv()
                    .expect("segments hold conv-like nodes");
                schedules.insert(id, pick(node, &conv)?);
            }
        }

        let mut planned = Vec::with_capacity(segments.len());
        for segment in segments {
            let mut steps = Vec::with_capacity(segment.nodes.len());
            for (i, &id) in segment.nodes.iter().enumerate() {
                let node = graph.node(id);
                let conv = node
                    .execution_conv()
                    .expect("segments hold conv-like nodes");
                let (dataflow, iact_layout) = schedules[&id].clone();
                let oact_layout = match segment.nodes.get(i + 1) {
                    Some(next) => schedules[next].1.as_producer_oact_layout(),
                    None => boundary_oact_layout(graph, segment.output, &schedules, &conv, &config),
                };
                let mapping = match dataflow {
                    Some(df) => {
                        LayerMapping::from_dataflow(&conv, &config, &df, iact_layout, oact_layout)?
                    }
                    None => LayerMapping::weight_stationary_layouts(
                        &conv,
                        &config,
                        iact_layout,
                        oact_layout,
                    ),
                };
                steps.push((conv, mapping));
            }
            validate_chain(&config, &steps)?;
            planned.push(SegmentExec { segment, steps });
        }
        Ok(Self::new(config, graph.clone(), planned))
    }

    /// A session over planned `segments` of `graph` with the default
    /// quantization. The execution plan walks nodes topologically, entering
    /// a segment at its head (its whole chain runs back-to-back) and a join
    /// at its add.
    fn new(config: FeatherConfig, graph: Graph, segments: Vec<SegmentExec>) -> Self {
        let head_of: BTreeMap<NodeId, usize> = segments
            .iter()
            .enumerate()
            .map(|(i, s)| (s.segment.nodes[0], i))
            .collect();
        let plan = graph
            .nodes()
            .iter()
            .filter_map(|node| {
                if node.op.is_add() {
                    Some(Step::Join(node.id))
                } else {
                    head_of.get(&node.id).map(|&si| Step::Segment(si))
                }
            })
            .collect();
        GraphSession {
            config,
            batch: graph.tensor_shape(graph.input())[0],
            graph,
            segments,
            plan,
            quant_shift: DEFAULT_QUANT_SHIFT,
            quant_zero: 0,
            energy_model: EnergyModel::tsmc28(),
            program: OnceLock::new(),
        }
    }

    /// Overrides the boundary quantization parameters (builder style).
    pub fn with_quantization(mut self, shift: u32, zero_point: i8) -> Self {
        self.quant_shift = shift;
        self.quant_zero = zero_point;
        self.program = OnceLock::new();
        self
    }

    /// The boundary quantization parameters `(shift, zero_point)`.
    pub fn quantization(&self) -> (u32, i8) {
        (self.quant_shift, self.quant_zero)
    }

    /// Returns a copy of the session that executes `n` samples per run: every
    /// segment layer's batch extent becomes `n`, shortcut scratch parking and
    /// the residual joins follow the batched shapes, and each tile's staged
    /// weights serve all `n` samples. Its output is bit-identical to `n` solo
    /// runs of the per-sample session (sample `i` of the batch equals the
    /// solo run of sample `i`).
    ///
    /// # Errors
    /// Returns an error if `n` is zero.
    pub fn with_batch(&self, n: usize) -> Result<Self, ArchError> {
        if n == 0 {
            return Err(ArchError::InvalidWorkload(
                "batch size must be at least 1".to_string(),
            ));
        }
        let mut session = self.clone();
        session.batch = n;
        session.program = OnceLock::new();
        for seg in &mut session.segments {
            for (layer, _) in &mut seg.steps {
                layer.n = n;
            }
        }
        Ok(session)
    }

    /// Samples per [`GraphSession::run`] call.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The hardware configuration.
    pub fn config(&self) -> FeatherConfig {
        self.config
    }

    /// The graph this session executes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of linear segments the graph was partitioned into.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// This session's flat, replayable [`Program`]: all layouts, location
    /// tables, BIRRD routes and scratch moves resolved ahead of time, and the
    /// whole report counted ([`Program::cost`]). The first call — here or
    /// through [`GraphSession::run`] — lowers the plan (one counting record
    /// pass, exactly once even when several threads race it); every later
    /// call hands out another handle to the same program.
    ///
    /// # Errors
    /// Returns an error if a route cannot be compiled. The outcome is kept
    /// either way: lowering is a pure function of the session.
    pub fn compile(&self) -> Result<Program, ArchError> {
        self.program
            .get_or_init(|| crate::program::compile(self))
            .clone()
    }

    /// A stable fingerprint of everything that determines this session's
    /// compiled program: hardware config, batch, quantization, the schedule
    /// (mappings and layouts) and the graph structure. A program's listing
    /// ([`Program::dump`]) opens with it.
    pub fn fingerprint(&self) -> u64 {
        crate::program::session_fingerprint(self)
    }

    /// Executes the whole DAG by replaying this session's program
    /// ([`GraphSession::compile`], lowered on first use) — what
    /// [`ProgramSession::run`] does, report included. `weights` holds one
    /// tensor per node that needs one ([`Node::weight_shape`]); pooling
    /// lowerings synthesize their own window weights.
    ///
    /// # Errors
    /// Returns an error on missing weights, operand shape mismatches, or an
    /// unroutable BIRRD pattern.
    pub fn run(
        &self,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<GraphRun, ArchError> {
        ProgramSession::new(self.compile()?).run(iacts, weights)
    }
}

/// The default channels-last iAct layout for a layer, capped at the array
/// width.
fn auto_layout(conv: &ConvLayer, config: &FeatherConfig) -> Layout {
    format!("HWC_C{}", conv.c.min(config.cols))
        .parse()
        .expect("generated layout is valid")
}

/// The oAct layout for a segment's last layer: the downstream consumer's
/// preferred iAct layout (looking through joins), or a natural `MPQ_Q*`
/// drain layout for the graph output.
fn boundary_oact_layout(
    graph: &Graph,
    output: TensorId,
    schedules: &BTreeMap<NodeId, (Option<Dataflow>, Layout)>,
    conv: &ConvLayer,
    config: &FeatherConfig,
) -> Layout {
    let mut frontier = vec![output];
    while let Some(t) = frontier.pop() {
        let consumers = graph.consumers(t);
        for &c in &consumers {
            let node = graph.node(c);
            if node.is_conv_like() {
                if let Some((_, layout)) = schedules.get(&c) {
                    return layout.as_producer_oact_layout();
                }
            }
        }
        for &c in &consumers {
            let node = graph.node(c);
            if node.op.is_add() {
                frontier.push(node.output);
            }
        }
    }
    format!("MPQ_Q{}", conv.output_width().min(config.cols))
        .parse()
        .expect("generated layout is valid")
}

/// All-ones (depthwise) or channel-identity (standard) window weights for a
/// pooling-as-convolution lowering: each output pixel becomes the plain window
/// sum, whose `1/w²` average scaling folds into the boundary quantization.
pub(crate) fn pool_window_weights(conv: &ConvLayer) -> Tensor4<i8> {
    if conv.is_depthwise() {
        Tensor4::from_fn([conv.c, 1, conv.r, conv.s], |_, _, _, _| 1)
    } else {
        Tensor4::from_fn([conv.m, conv.c, conv.r, conv.s], |m, c, _, _| {
            i8::from(m == c)
        })
    }
}

/// Widens an INT8 tensor to the INT32 accumulator domain (for graphs whose
/// output node is a join).
pub(crate) fn widen(t: &Tensor4<i8>) -> Tensor4<i32> {
    let [a, b, c, d] = t.shape();
    Tensor4::from_fn([a, b, c, d], |i, j, k, l| t.get(i, j, k, l) as i32)
}

/// Executes a graph naively with the golden reference kernels: every tensor
/// materialized, every conv through [`conv2d_reference`], every intermediate
/// quantized to INT8, every join a saturating add — exactly the semantics
/// [`GraphSession::run`] implements on the simulated hardware. Returns the
/// output node's INT32 accumulators (or the widened join result).
///
/// # Errors
/// Returns an error on missing weights or shape mismatches.
pub fn run_graph_reference(
    graph: &Graph,
    iacts: &Tensor4<i8>,
    weights: &BTreeMap<NodeId, Tensor4<i8>>,
    quant_shift: u32,
    quant_zero: i8,
) -> Result<Tensor4<i32>, ArchError> {
    let mut values: BTreeMap<TensorId, Tensor4<i8>> = BTreeMap::new();
    values.insert(graph.input(), iacts.clone());
    let mut final_acc: Option<Tensor4<i32>> = None;
    for node in graph.nodes() {
        if let Some(conv) = node.execution_conv() {
            let w = match &node.op {
                NodeOp::PoolAsConv(c) => pool_window_weights(c),
                _ => weights.get(&node.id).cloned().ok_or_else(|| {
                    ArchError::InvalidWorkload(format!(
                        "no weight tensor supplied for node `{}`",
                        node.name
                    ))
                })?,
            };
            let input = &values[&node.inputs[0]];
            let acc = conv2d_reference(&conv, input, &w)?;
            values.insert(node.output, quantize_to_i8(&acc, quant_shift, quant_zero));
            if node.output == graph.output() {
                final_acc = Some(acc);
            }
        } else {
            let (sum, _) = saturating_add_i8(&values[&node.inputs[0]], &values[&node.inputs[1]])?;
            if node.output == graph.output() {
                final_acc = Some(widen(&sum));
            }
            values.insert(node.output, sum);
        }
    }
    final_acc
        .ok_or_else(|| ArchError::InvalidWorkload(format!("graph `{}` has no nodes", graph.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// conv → (identity ‖ proj conv) → add → conv, plus a second identity
    /// join — two joins, one fan-out of each flavor.
    fn residual_graph() -> Graph {
        let mut g = Graph::new("residual", [1, 4, 6, 6]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        let main = g
            .conv(
                stem,
                ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_main"),
            )
            .unwrap();
        let proj = g
            .conv(
                stem,
                ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_proj"),
            )
            .unwrap();
        let j0 = g.add(main, proj, "b0_add").unwrap();
        let main1 = g
            .conv(
                j0,
                ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                    .with_padding(1)
                    .with_name("b1_main"),
            )
            .unwrap();
        let j1 = g.add(main1, j0, "b1_add").unwrap();
        g.conv(j1, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
            .unwrap();
        g
    }

    fn session_and_operands() -> (
        GraphSession,
        Graph,
        Tensor4<i8>,
        BTreeMap<NodeId, Tensor4<i8>>,
    ) {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 11);
        let weights = g.random_weights(12);
        (session, g, iacts, weights)
    }

    #[test]
    fn graph_run_matches_reference_and_layer_at_a_time() {
        let (session, g, iacts, weights) = session_and_operands();
        let run = session.run(&iacts, &weights).unwrap();
        let (shift, zero) = session.quantization();
        let golden = run_graph_reference(&g, &iacts, &weights, shift, zero).unwrap();
        assert_eq!(run.oacts, golden);
    }

    #[test]
    fn joins_and_segments_are_reported() {
        let (session, _, iacts, weights) = session_and_operands();
        let run = session.run(&iacts, &weights).unwrap();
        // Segments: [stem], [b0_main], [b0_proj], [b1_main], [head].
        assert_eq!(run.report.segments.len(), 5);
        assert_eq!(run.report.joins.len(), 2);
        for join in &run.report.joins {
            assert_eq!(join.elements, 8 * 6 * 6);
        }
        // Shortcuts moved through the scratch region.
        assert!(run.report.scratch.element_writes > 0);
        assert!(run.report.scratch.element_reads > 0);
        assert!(run.report.scratch_peak_elems >= 8 * 6 * 6);
        // One StaB swap per executed layer.
        assert_eq!(run.report.stab_swaps(), 5);
    }

    #[test]
    fn graph_dram_accounting_only_charges_the_graph_edges() {
        let (session, _, iacts, weights) = session_and_operands();
        let run = session.run(&iacts, &weights).unwrap();
        let report = &run.report;
        let layers: Vec<_> = report.layers().collect();
        // Only the first layer stages iActs from DRAM and only the last
        // drains oActs; everything between stayed on chip.
        for (i, layer) in layers.iter().enumerate() {
            if i == 0 {
                assert!(layer.report.dram_iact_bytes > 0, "{}", layer.name);
            } else {
                assert_eq!(layer.report.dram_iact_bytes, 0, "{}", layer.name);
            }
            if i + 1 == layers.len() {
                assert!(layer.report.dram_oact_bytes > 0, "{}", layer.name);
            } else {
                assert_eq!(layer.report.dram_oact_bytes, 0, "{}", layer.name);
            }
        }
        assert!(report.dram_activation_bytes() < report.layer_at_a_time_activation_bytes());
        assert!(report.dram_activation_savings() > 0.0);
        let pes = session.config().num_pes();
        let u = report.utilization(pes);
        assert!(u > 0.0 && u <= 1.0);
        assert!(report.total_energy_pj() > 0.0);
    }

    #[test]
    fn graph_ending_in_a_join_returns_the_widened_sum() {
        let mut g = Graph::new("join_out", [1, 4, 4, 4]);
        let a = g
            .conv(
                g.input(),
                ConvLayer::new(1, 4, 4, 4, 4, 1, 1).with_name("a"),
            )
            .unwrap();
        let b = g
            .conv(a, ConvLayer::new(1, 4, 4, 4, 4, 1, 1).with_name("b"))
            .unwrap();
        g.add(a, b, "out_add").unwrap();
        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 4, 4], 3);
        let weights = g.random_weights(4);
        let run = session.run(&iacts, &weights).unwrap();
        let golden = run_graph_reference(&g, &iacts, &weights, DEFAULT_QUANT_SHIFT, 0).unwrap();
        assert_eq!(run.oacts, golden);
        // The widened sum stays inside the INT8 domain.
        assert!(run
            .oacts
            .as_slice()
            .iter()
            .all(|&v| v >= i8::MIN as i32 && v <= i8::MAX as i32));
    }

    /// Slices sample `i` out of a batched `[N, c, h, w]` INT8 tensor.
    fn sample_of(t: &Tensor4<i8>, i: usize) -> Tensor4<i8> {
        let [_, c, h, w] = t.shape();
        Tensor4::from_fn([1, c, h, w], |_, cc, hh, ww| t.get(i, cc, hh, ww))
    }

    /// Asserts sample `i` of a batched INT32 output equals a solo output.
    fn assert_sample_matches(batched: &Tensor4<i32>, i: usize, solo: &Tensor4<i32>, what: &str) {
        let [_, m, p, q] = solo.shape();
        for mm in 0..m {
            for pp in 0..p {
                for qq in 0..q {
                    assert_eq!(
                        batched.get(i, mm, pp, qq),
                        solo.get(0, mm, pp, qq),
                        "{what}: sample {i} diverged at ({mm},{pp},{qq})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_graph_run_matches_per_sample_solo_runs() {
        let (session, g, _, weights) = session_and_operands();
        let n = 3;
        let batched = session.with_batch(n).unwrap();
        assert_eq!(batched.batch(), n);
        let iacts = Tensor4::random([n, 4, 6, 6], 77);
        let run = batched.run(&iacts, &weights).unwrap();
        // Residual joins stay exact: every sample matches its solo run.
        for i in 0..n {
            let solo = session.run(&sample_of(&iacts, i), &weights).unwrap();
            assert_sample_matches(&run.oacts, i, &solo.oacts, "residual graph");
        }
        // And every sample matches the reference executor.
        let (shift, zero) = batched.quantization();
        for i in 0..n {
            let golden = run_graph_reference(&g, &sample_of(&iacts, i), &weights, shift, zero);
            assert_sample_matches(&run.oacts, i, &golden.unwrap(), "residual graph reference");
        }
        // Per-tile weight staging is shared across the batch.
        let solo0 = session.run(&sample_of(&iacts, 0), &weights).unwrap();
        assert!(
            run.report.total_cycles() < n as u64 * solo0.report.total_cycles(),
            "batching must amortize weight staging"
        );
    }

    /// The program cell holds what *this* session lowers to: a session
    /// re-parameterised after a run compiles again (a stale cell under
    /// `with_quantization` would be silently wrong, not an error), and a
    /// clone of a run session shares the program it already has.
    #[test]
    fn the_program_cell_follows_the_session_it_was_compiled_for() {
        let (session, g, iacts, weights) = session_and_operands();
        let base = session.run(&iacts, &weights).unwrap();

        let requantized = session.clone().with_quantization(4, 3);
        assert_ne!(requantized.fingerprint(), session.fingerprint());
        assert_eq!(
            requantized.compile().unwrap().fingerprint(),
            requantized.fingerprint()
        );
        let run = requantized.run(&iacts, &weights).unwrap();
        let golden = run_graph_reference(&g, &iacts, &weights, 4, 3).unwrap();
        assert_eq!(run.oacts, golden);
        assert_ne!(run.oacts, base.oacts, "the new parameters must matter");

        let batched = session.with_batch(2).unwrap();
        assert_eq!(
            batched.compile().unwrap().fingerprint(),
            batched.fingerprint()
        );
        let pair = Tensor4::random([2, 4, 6, 6], 77);
        let run = batched.run(&pair, &weights).unwrap();
        let (shift, zero) = batched.quantization();
        for i in 0..2 {
            let golden =
                run_graph_reference(&g, &sample_of(&pair, i), &weights, shift, zero).unwrap();
            assert_sample_matches(&run.oacts, i, &golden, "batched after a run");
        }

        // A clone of the run session holds the very program it compiled.
        let clone = session.clone();
        let run = clone.run(&iacts, &weights).unwrap();
        assert_eq!((run.oacts, run.report), (base.oacts, base.report));
        let (compiled, cloned) = (session.compile().unwrap(), clone.compile().unwrap());
        assert!(compiled.shares_tables_with(&cloned));
    }

    /// Threads racing a fresh session's first compile all get the one
    /// program a single compile produced, and every run they make replays it
    /// to the solo session's outputs.
    #[test]
    fn racing_first_runs_share_one_compile() {
        const THREADS: usize = 4;
        let (solo, _, iacts, weights) = session_and_operands();
        let golden = solo.run(&iacts, &weights).unwrap().oacts;
        let (session, ..) = session_and_operands();
        let start = Barrier::new(THREADS);
        let programs: Vec<Program> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let program = session.compile().unwrap();
                        for _ in 0..3 {
                            let run = session.run(&iacts, &weights).unwrap();
                            assert_eq!(run.oacts, golden, "cold-race run diverged");
                        }
                        program
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for program in &programs {
            assert!(program.shares_tables_with(&programs[0]));
        }
        assert_eq!(programs[0].fingerprint(), session.fingerprint());
    }

    /// A 128-column fabric builds, but BIRRD routing stops at 64 ports: its
    /// compile is refused with an error instead of a panic.
    #[test]
    fn a_fabric_wider_than_the_router_is_refused_at_compile() {
        let mut g = Graph::new("wide", [1, 4, 4, 4]);
        g.conv(g.input(), ConvLayer::new(1, 4, 4, 4, 4, 1, 1))
            .unwrap();
        let session = GraphSession::auto(FeatherConfig::new(4, 128), &g).unwrap();
        match session.compile() {
            Err(ArchError::InvalidDataflow(msg)) => assert!(msg.contains("up to 64"), "{msg}"),
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("a 128-port BIRRD cannot be routed"),
        }
    }

    /// A configuration set through its public fields is checked before
    /// anything is planned, by the graph constructors and the chain one
    /// alike: a bad array shape is `config.validate()`'s error.
    fn assert_shape_refused(rows: usize, cols: usize, what: &str) {
        let config = FeatherConfig { rows, cols };
        let layer = ConvLayer::new(1, 4, 4, 4, 4, 1, 1);
        let mut g = Graph::new("tiny", [1, 4, 4, 4]);
        g.conv(g.input(), layer.clone()).unwrap();
        let expected = config.validate().unwrap_err();
        assert!(expected.to_string().contains(what), "{expected}");
        let err = GraphSession::auto(config, &g).unwrap_err();
        assert_eq!(err, expected, "auto on {rows}x{cols}");
        let err = GraphSession::from_schedules(config, &g, &BTreeMap::new()).unwrap_err();
        assert_eq!(err, expected, "from_schedules on {rows}x{cols}");
        let fits = FeatherConfig::new(4, 8);
        let mapping = LayerMapping::weight_stationary(&layer, &fits, "HWC_C4", "MPQ_Q4").unwrap();
        let err = GraphSession::chain(config, vec![(layer, mapping)]).unwrap_err();
        assert_eq!(err, expected, "chain on {rows}x{cols}");
    }

    /// Zero columns once panicked in the default `HWC_C0` iAct layout.
    #[test]
    fn a_zero_width_fabric_is_an_error_not_a_panic() {
        assert_shape_refused(4, 0, "non-zero");
    }

    #[test]
    fn a_zero_height_fabric_is_an_error() {
        assert_shape_refused(0, 8, "non-zero");
    }

    #[test]
    fn a_width_that_is_not_a_power_of_two_is_an_error() {
        assert_shape_refused(4, 12, "power of two");
    }

    /// The StaB has `AW` one-element banks: a chain whose iAct line is wider
    /// than the array is refused, as `from_schedules` refuses such a layout.
    #[test]
    fn an_iact_line_wider_than_the_array_is_an_error() {
        let config = FeatherConfig::new(4, 4);
        let layer = ConvLayer::new(1, 8, 8, 6, 6, 3, 3).with_padding(1);
        let mapping = LayerMapping::weight_stationary(&layer, &config, "HWC_C8", "MPQ_Q4").unwrap();
        match GraphSession::chain(config, vec![(layer, mapping)]) {
            Err(ArchError::InvalidDataflow(msg)) => assert!(msg.contains("iAct"), "{msg}"),
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("an eight-wide iAct line does not fit four StaB banks"),
        }
    }

    /// A compile routes each distinct `(c_cols, request)` once, however many
    /// layers issue it: a chain of six identical 1×1 convs has as many
    /// distinct routes as a chain of two.
    #[test]
    fn identical_layers_look_their_routes_up_once_per_compile() {
        let routes = |k: usize| {
            let mut g = Graph::new("chain", [1, 8, 4, 4]);
            let mut t = g.input();
            for i in 0..k {
                let layer = ConvLayer::new(1, 8, 8, 4, 4, 1, 1).with_name(format!("c{i}"));
                t = g.conv(t, layer).unwrap();
            }
            let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
            session.compile().unwrap().distinct_routes()
        };
        let (two, six) = (routes(2), routes(6));
        assert!(two > 0);
        assert_eq!(six, two);
    }

    /// A shift past the accumulator width leaves every boundary tensor its
    /// sign, in the replay and in the reference alike.
    #[test]
    fn a_shift_of_forty_quantizes_like_the_reference() {
        let (session, g, iacts, weights) = session_and_operands();
        let run = session
            .with_quantization(40, 0)
            .run(&iacts, &weights)
            .unwrap();
        let golden = run_graph_reference(&g, &iacts, &weights, 40, 0).unwrap();
        assert_eq!(run.oacts, golden);
    }

    #[test]
    fn batched_pool_gemm_tail_matches_solo() {
        // The ResNet tail shape: conv → global avgpool → FC (gemm lowering).
        let mut g = Graph::new("pooled_batched", [1, 4, 8, 8]);
        let c = g
            .conv(
                g.input(),
                ConvLayer::new(1, 8, 4, 8, 8, 3, 3)
                    .with_padding(1)
                    .with_name("conv"),
            )
            .unwrap();
        let p = g.avgpool_as_conv(c, 8, 1, 0, "gap").unwrap();
        g.gemm(
            p,
            feather_arch::workload::GemmLayer::new(1, 8, 6).with_name("fc"),
        )
        .unwrap();
        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let n = 2;
        let batched = session.with_batch(n).unwrap();
        let iacts = Tensor4::random([n, 4, 8, 8], 55);
        let run = batched.run(&iacts, &weights_for(&g)).unwrap();
        for i in 0..n {
            let solo = session
                .run(&sample_of(&iacts, i), &weights_for(&g))
                .unwrap();
            assert_sample_matches(&run.oacts, i, &solo.oacts, "pool+gemm tail");
        }
    }

    fn weights_for(g: &Graph) -> BTreeMap<NodeId, Tensor4<i8>> {
        g.random_weights(66)
    }

    #[test]
    fn zero_batch_rejected_and_wrong_batch_shape_rejected() {
        let (session, _, _, weights) = session_and_operands();
        assert!(session.with_batch(0).is_err());
        let batched = session.with_batch(2).unwrap();
        // A solo-shaped input no longer fits the batched session.
        assert!(batched
            .run(&Tensor4::random([1, 4, 6, 6], 1), &weights)
            .is_err());
    }

    #[test]
    fn missing_weights_are_reported_by_node_name() {
        let (session, _, iacts, mut weights) = session_and_operands();
        let missing = *weights.keys().nth(2).unwrap();
        weights.remove(&missing);
        let err = session.run(&iacts, &weights).unwrap_err();
        assert!(err.to_string().contains("no weight tensor"), "{err}");
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let (session, _, _, weights) = session_and_operands();
        let bad = Tensor4::random([1, 4, 5, 5], 1);
        assert!(session.run(&bad, &weights).is_err());
    }

    #[test]
    fn pool_lowerings_carry_no_weight_traffic() {
        let mut g = Graph::new("pooled", [1, 4, 8, 8]);
        let c = g
            .conv(
                g.input(),
                ConvLayer::new(1, 8, 4, 8, 8, 3, 3)
                    .with_padding(1)
                    .with_name("conv"),
            )
            .unwrap();
        let p = g.avgpool_as_conv(c, 8, 1, 0, "gap").unwrap();
        g.gemm(
            p,
            feather_arch::workload::GemmLayer::new(1, 8, 6).with_name("fc"),
        )
        .unwrap();
        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 8, 8], 5);
        let weights = g.random_weights(6);
        let run = session.run(&iacts, &weights).unwrap();
        let (shift, zero) = session.quantization();
        let golden = run_graph_reference(&g, &iacts, &weights, shift, zero).unwrap();
        assert_eq!(run.oacts, golden);
        let pool_layer = run
            .report
            .layers()
            .find(|l| l.name == "gap")
            .expect("pool layer reported");
        assert_eq!(pool_layer.report.dram_weight_bytes, 0);
        // The conv and FC do stream weights.
        assert!(run
            .report
            .layers()
            .filter(|l| l.name != "gap")
            .all(|l| l.report.dram_weight_bytes > 0));
    }
}
