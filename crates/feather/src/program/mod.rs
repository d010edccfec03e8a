//! Ahead-of-time graph compilation: lower a planned [`GraphSession`] into a
//! flat [`Program`] of ops and replay it with zero per-layer planning and
//! zero accounting — the accelerator-as-ISA execution model.
//!
//! FEATHER switches dataflows at negligible cost because nothing is decided
//! at run time: every layer's dataflow, layout and BIRRD configurations are
//! fixed offline and the controller only plays them back. A graph runs here
//! the same way. Walking the DAG — consumer counts, scratch keys, per-layer
//! context builds, BIRRD routing — and the whole
//! cycle/conflict/traffic accounting depend on the plan, never on the data,
//! so all of it happens once, in a compile, and [`GraphSession::run`] is a
//! replay of the result:
//!
//! * **[`Program`]** — a linear op stream (`Stage`, `Fire`, `Reorder`,
//!   `Swap`, `Drain`, `Join`, `Park`/`Unpark`) with every layout, cell index
//!   table, scratch move and BIRRD pass resolved at compile time. Passes live
//!   constant-folded in one program-wide, deduplicated route table; a layer
//!   keeps none of them, only how many it fires. A `Program` is a cheaply
//!   clonable handle: the session that compiled it, every
//!   [`GraphSession::compile`] caller and every [`ProgramSession`] share one
//!   set of tables.
//! * **[`Program::cost`]** — the exact report of one run, assembled once from
//!   what the compile-time record pass counts: the cost oracle for a
//!   (model, batch) pair, available without running a single MAC.
//! * **[`ProgramSession`]** — the executor: dispatches the op stream linearly
//!   as pure data movement, keeping every segment boundary a lane stripe,
//!   and returns [`Program::cost`]'s shared segment list with the one
//!   data-dependent count (join saturation) in a join list of its own. Outputs are
//!   bit-identical to [`crate::graph_session::run_graph_reference`] (the
//!   `program_equivalence` and `graph_equivalence` suites), and every
//!   compiled layer's cost equals what the accounted loop — the tests'
//!   cycle-level oracle — counts over real data (this module's tests).
//! * **[`Program::dump`]** — a diffable text listing of exactly what a run
//!   will do and cost, locked down by a golden snapshot test.
//!
//! Routes and costs can be recorded without any input data because the
//! reduce-reorder pattern and the access pattern of every fire are pure
//! functions of layer geometry (the mapped-lane pattern and the layouts'
//! bank assignment) — never of activation or weight values. The compile pass
//! therefore walks each layer's tile loop once, counting and moving no value
//! — the only accounted pass a program ever gets. Its route table proves
//! every folded pass delivers each `q_lane`'s live columns to that lane's
//! own output cell, so replay sums a row's lanes straight into their cells
//! and reads no pass at all. Every public entry
//! point runs this way: a single layer ([`crate::Feather::execute_conv`]) and
//! a chain ([`GraphSession::chain`]) are one-segment graphs. Each distinct
//! route of a program is routed and lowered once, by the compile's route
//! memo, into the program's route table ([`Program::distinct_routes`]);
//! nothing outlives the compile but that table.
//!
//! The module is split along those seams: this file holds the data model,
//! the [`Program`] handle and its listing; `compile` the one lowering of a
//! session; `replay` the op loop ([`ProgramSession`], [`ReplayScratch`]).

mod compile;
mod replay;

use std::fmt::Write as _;
use std::sync::Arc;

use feather_arch::graph::{NodeId, TensorId};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvKind;

use crate::config::FeatherConfig;
use crate::core::{ReplayLayer, RouteTable};
#[cfg(doc)]
use crate::graph_session::GraphSession;
#[cfg(doc)]
use crate::report::JoinSummary;
use crate::report::{GraphReport, LayerSummary};

pub(crate) use compile::{compile, session_fingerprint};
pub use replay::{ProgramSession, ReplayScratch};

/// One slot of a program's tensor table: a graph tensor's id and its batched
/// run-time shape.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TensorSlot {
    /// The graph [`TensorId`] index.
    id: usize,
    /// `(N, C, H, W)` shape with the batch extent applied.
    shape: [usize; 4],
}

/// Where a compiled layer's weights come from at replay time.
#[derive(Debug, Clone)]
enum WeightSource {
    /// Supplied by the caller, keyed by graph node.
    Node(NodeId),
    /// Synthesized pooling-window constants (never streamed from DRAM).
    Pool(Tensor4<i8>),
}

/// One fully-resolved layer of a compiled segment: what its `Fire` replays
/// and where its weights come from. What it costs is its entry in
/// [`Program::cost`], at the same segment and layer index.
#[derive(Debug, Clone)]
struct CompiledLayer {
    replay: ReplayLayer,
    weight: WeightSource,
}

/// A compiled linear segment: its layers plus the graph-level flags that
/// drove its DRAM accounting.
#[derive(Debug, Clone)]
struct CompiledSegment {
    /// Tensor-table slot the segment reads.
    input: usize,
    /// Tensor-table slot the segment produces.
    output: usize,
    /// The segment reads the graph input (its iAct staging hits DRAM).
    graph_input: bool,
    /// The segment produces the graph output (its oActs drain to DRAM).
    graph_output: bool,
    layers: Vec<CompiledLayer>,
}

/// A compiled residual join: where its two operands come from and where the
/// sum goes.
#[derive(Debug, Clone)]
struct JoinSpec {
    name: String,
    /// Tensor-table slot of the sum.
    output: usize,
    a: OperandSrc,
    b: OperandSrc,
    graph_output: bool,
}

/// How a join operand (or segment input) is acquired at replay time —
/// resolved at compile time from the graph's consumer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OperandSrc {
    /// The fresh StaB resident; `take` moves it out (last consumer),
    /// otherwise it is cloned and stays fresh.
    Fresh {
        /// This is the tensor's last consumer.
        take: bool,
    },
    /// The front of the unpark queue (a preceding [`Op::Unpark`] fetched it
    /// from the scratch region).
    Queue,
}

/// One instruction of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Acquire the segment input and stage it into the active StaB half.
    Stage {
        seg: usize,
        /// Source: the fresh register (`true`) or the unpark queue.
        fresh: bool,
        /// Move the fresh tensor out instead of leaving it in place.
        take: bool,
    },
    /// Run one layer's tile loop, each row fire summing its lanes into
    /// their output cells.
    Fire { seg: usize, layer: usize },
    /// Boundary quantization in place (RIR already reordered the values).
    Reorder { seg: usize, layer: usize },
    /// Swap the StaB halves.
    Swap { seg: usize },
    /// Drain the segment output and quantize it into the fresh register.
    Drain { seg: usize },
    /// Perform a residual add.
    Join { join: usize },
    /// Park the displaced fresh tensor in the scratch region (it still has
    /// consumers).
    Park { tensor: usize },
    /// Fetch a parked tensor into the unpark queue; `free` releases the
    /// allocation (last consumer).
    Unpark { tensor: usize, free: bool },
}

/// A flat, replayable lowering of a planned graph: every layout, cell index,
/// BIRRD pass and scratch move resolved — and the whole report counted —
/// ahead of time. Produced by [`GraphSession::compile`], executed by
/// [`ProgramSession`] (and by [`GraphSession::run`]).
///
/// A `Program` is a handle to immutable tables: cloning it copies a pointer.
#[derive(Debug, Clone)]
pub struct Program {
    tables: Arc<Tables>,
}

/// Everything a [`Program`] holds, shared by all of its handles.
#[derive(Debug)]
struct Tables {
    name: String,
    config: FeatherConfig,
    batch: usize,
    quant_shift: u32,
    quant_zero: i8,
    /// Batched `(N, C, H, W)` shape of the graph input.
    input_shape: [usize; 4],
    /// Tensor-table slot of the graph input.
    input_slot: usize,
    fingerprint: u64,
    tensors: Vec<TensorSlot>,
    segments: Vec<CompiledSegment>,
    joins: Vec<JoinSpec>,
    ops: Vec<Op>,
    /// Every BIRRD pass of every layer, folded and deduplicated.
    routes: RouteTable,
    /// The report of one run with no join saturation — see [`Program::cost`].
    /// Its segment `i` is [`Tables::segments`]`[i]`: segments drain in the
    /// order they were compiled.
    cost: GraphReport,
}

impl Tables {
    /// The cost record of layer `layer` of segment `seg`.
    fn layer_cost(&self, seg: usize, layer: usize) -> &LayerSummary {
        &self.cost.segments[seg].layers[layer]
    }
}

impl Program {
    /// The compiled graph's name.
    pub fn name(&self) -> &str {
        &self.tables.name
    }

    /// Samples per replayed run.
    pub fn batch(&self) -> usize {
        self.tables.batch
    }

    /// The hardware configuration the program was compiled for.
    pub fn config(&self) -> FeatherConfig {
        self.tables.config
    }

    /// The schedule fingerprint this program was compiled from — matches
    /// [`GraphSession::fingerprint`] of the originating session.
    pub fn fingerprint(&self) -> u64 {
        self.tables.fingerprint
    }

    /// Number of ops in the instruction stream.
    pub fn num_ops(&self) -> usize {
        self.tables.ops.len()
    }

    /// Number of distinct BIRRD routes — slots of the program's route table
    /// — that its compile routed and lowered, each once.
    pub fn distinct_routes(&self) -> usize {
        self.tables.routes.requests().len()
    }

    /// Total BIRRD passes one run fires across all layers.
    pub fn route_fires(&self) -> usize {
        let layers = self.tables.cost.layers();
        layers.map(|l| l.report.birrd_passes as usize).sum()
    }

    /// The exact cost of one run of this program — the cost oracle for its
    /// (model, batch) pair: cycles, stalls, MACs, BIRRD passes, buffer and
    /// scratch traffic, DRAM bytes and energy, per layer and in total, equal
    /// to the report [`GraphSession::run`] of the originating session
    /// returns for *any* input and weights. It is counted once, by the
    /// compile-time record pass, so reading it executes nothing.
    ///
    /// Each layer's [`LayerSummary`] is the only record
    /// of what that compiled layer costs — the listing, [`route_fires`] and
    /// replay profiles all read it — and [`GraphReport`] is the only place
    /// that totals it. Segment `i` of the report is the program's segment
    /// `i`.
    ///
    /// [`route_fires`]: Program::route_fires
    ///
    /// The one data-dependent field of a report, [`JoinSummary::saturated`],
    /// is zero here; every replay returns this report's segment list — the
    /// same allocation, shared — with a join list of its own that carries
    /// the sample's counts.
    pub fn cost(&self) -> &GraphReport {
        &self.tables.cost
    }

    /// A diffable text listing of exactly what a replayed run does and
    /// costs: the fabric, the tensor table, every compiled layer with its
    /// mapping, layouts, cost, BIRRD passes and work blocks, the joins, the
    /// program-wide folded route table and the full op stream. The format is
    /// deterministic and locked by a golden snapshot test.
    pub fn dump(&self) -> String {
        let t = &*self.tables;
        let name = |slot: usize| TensorId(t.tensors[slot].id);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program \"{}\" fingerprint {:016x}",
            t.name, t.fingerprint
        );
        let _ = writeln!(
            out,
            "fabric {}x{} stab_lines={} strb_lines={}",
            t.config.rows, t.config.cols, t.config.stab_lines, t.config.strb_lines
        );
        let _ = writeln!(
            out,
            "batch {} quant shift={} zero={}",
            t.batch, t.quant_shift, t.quant_zero
        );
        let _ = writeln!(out, "input {} {:?}", name(t.input_slot), t.input_shape);
        let _ = writeln!(
            out,
            "cost cycles={} dram_bytes={} scratch_peak={}",
            t.cost.total_cycles(),
            t.cost.dram_bytes(),
            t.cost.scratch_peak_elems
        );
        let _ = writeln!(out, "tensors:");
        for slot in &t.tensors {
            let _ = writeln!(out, "  {} {:?}", TensorId(slot.id), slot.shape);
        }
        let _ = writeln!(out, "segments:");
        for (si, seg) in t.segments.iter().enumerate() {
            let mut flags = String::new();
            if seg.graph_input {
                flags.push_str(" graph_input");
            }
            if seg.graph_output {
                flags.push_str(" graph_output");
            }
            let _ = writeln!(
                out,
                "  seg {si}: in={} out={}{}",
                name(seg.input),
                name(seg.output),
                flags
            );
            for (li, layer) in seg.layers.iter().enumerate() {
                let l = &layer.replay.tiling.layer;
                let m = &layer.replay.tiling.mapping;
                let kind = kind_token(l.kind);
                let weights = match &layer.weight {
                    WeightSource::Node(id) => format!("w={id}"),
                    WeightSource::Pool(_) => "w=pool".to_string(),
                };
                let LayerSummary { name, report, .. } = t.layer_cost(si, li);
                let _ = writeln!(
                    out,
                    "    layer {li} {name}: conv n{} m{} c{} {}x{} k{}x{} s{} p{} {kind} {weights}",
                    l.n, l.m, l.c, l.h, l.w, l.r, l.s, l.stride, l.padding
                );
                let _ = writeln!(
                    out,
                    "      map m_rows={} c_cols={} q_cols={} iact={} oact={}",
                    m.m_rows, m.c_cols, m.q_cols, m.iact_layout, m.oact_layout
                );
                let _ = writeln!(
                    out,
                    "      cost cycles={} stalls={} macs={} passes={} adds={}",
                    report.cycles,
                    report.stall_cycles,
                    report.macs,
                    report.birrd_passes,
                    report.birrd_adds
                );
                let _ = writeln!(
                    out,
                    "      routes fires={} blocks={}",
                    report.birrd_passes,
                    layer.replay.tiling.blocks()
                );
            }
        }
        let _ = writeln!(out, "joins:");
        for (ji, join) in t.joins.iter().enumerate() {
            let _ = writeln!(
                out,
                "  join {ji} {}: out={} a={} b={}{}",
                join.name,
                name(join.output),
                operand_token(join.a),
                operand_token(join.b),
                if join.graph_output {
                    " graph_output"
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "routes:");
        for (slot, (c_cols, request)) in t.routes.requests().iter().enumerate() {
            let _ = write!(out, "  {slot:04} c_cols={c_cols}");
            let banks = request.group_destinations.values();
            for ((q_lane, cols), bank) in t.routes.pass_groups(slot).zip(banks) {
                let cols: Vec<u32> = cols.collect();
                let _ = write!(out, " q{q_lane}@bank{bank}<-{}", join_ints(&cols));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "ops:");
        for (i, op) in t.ops.iter().enumerate() {
            let text = match *op {
                Op::Stage { seg, fresh, take } => {
                    let src = match (fresh, take) {
                        (true, true) => "fresh move",
                        (true, false) => "fresh copy",
                        (false, _) => "queue",
                    };
                    format!("stage   seg={seg} src={src}")
                }
                Op::Fire { seg, layer } => format!("fire    seg={seg} layer={layer}"),
                Op::Reorder { seg, layer } => format!("reorder seg={seg} layer={layer}"),
                Op::Swap { seg } => format!("swap    seg={seg}"),
                Op::Drain { seg } => format!("drain   seg={seg}"),
                Op::Join { join } => format!("join    {}", t.joins[join].name),
                Op::Park { tensor } => format!("park    {}", name(tensor)),
                Op::Unpark { tensor, free } => format!(
                    "unpark  {}{}",
                    name(tensor),
                    if free { " free" } else { "" }
                ),
            };
            let _ = writeln!(out, "  {i:04} {text}");
        }
        out
    }
}

fn kind_token(kind: ConvKind) -> &'static str {
    match kind {
        ConvKind::Standard => "standard",
        ConvKind::Depthwise => "depthwise",
        ConvKind::Pointwise => "pointwise",
    }
}

fn operand_token(src: OperandSrc) -> &'static str {
    match src {
        OperandSrc::Fresh { take: true } => "fresh_move",
        OperandSrc::Fresh { take: false } => "fresh_copy",
        OperandSrc::Queue => "queue",
    }
}

fn join_ints<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
impl Program {
    /// Whether `other` is a handle to this very program (not merely an equal
    /// one): one compile's tables.
    pub(crate) fn shares_tables_with(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::accounted::run_layer;
    use crate::core::{LayerExec, RouteMemo};
    use crate::graph_session::{run_graph_reference, GraphSession};
    use crate::profile::OpFamily;
    use crate::report::GraphRun;
    use feather_arch::graph::{resnet50_graph_scaled, Graph};
    use feather_arch::tensor::conv2d_reference;
    use feather_arch::workload::ConvLayer;
    use std::collections::BTreeMap;

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

    /// The golden output of `session`'s graph for these operands.
    fn reference(
        session: &GraphSession,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Tensor4<i32> {
        let (shift, zero) = session.quantization();
        run_graph_reference(session.graph(), iacts, weights, shift, zero).unwrap()
    }

    /// A session's `run` and a `ProgramSession` over its `compile()` are the
    /// same replay, and both produce the reference executor's output.
    #[test]
    fn session_run_equals_program_session_replay() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 11);
        let weights = g.random_weights(12);
        let run = session.run(&iacts, &weights).unwrap();
        let program = session.compile().unwrap();
        let replayed = ProgramSession::new(program).run(&iacts, &weights).unwrap();
        assert_eq!(replayed.oacts, reference(&session, &iacts, &weights));
        assert_eq!(run.oacts, replayed.oacts);
        assert_eq!(run.report, replayed.report);
    }

    #[test]
    fn replay_is_reusable_and_thread_invariant() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 21);
        let weights = g.random_weights(22);
        let golden = reference(&session, &iacts, &weights);
        let replay = ProgramSession::new(session.compile().unwrap());
        // Replay twice (a serving process reuses one program) and from
        // several threads at once through the shared `&self` — all
        // bit-identical.
        let first = replay.run(&iacts, &weights).unwrap();
        let second = replay.run(&iacts, &weights).unwrap();
        assert_eq!(first.oacts, golden);
        assert_eq!(second.report, first.report);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| replay.run(&iacts, &weights).unwrap()))
                .collect();
            for handle in handles {
                let run = handle.join().unwrap();
                assert_eq!(run.oacts, golden);
                assert_eq!(run.report, first.report);
            }
        });
    }

    /// The cost oracle: available without executing anything, and equal to
    /// a run's report up to join saturation. (What pins it to the accounted
    /// simulator is
    /// `compiled_layer_costs_equal_accounted_real_data_runs`.)
    #[test]
    fn cost_oracle_equals_a_runs_report_without_saturation() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let program = session.compile().unwrap();
        let run = session
            .run(&Tensor4::random([1, 4, 6, 6], 5), &g.random_weights(6))
            .unwrap();
        let mut expected = run.report;
        expected.joins.iter_mut().for_each(|j| j.saturated = 0);
        assert_eq!(program.cost(), &expected);
        assert!(program.cost().total_cycles() > 0);
    }

    /// `build_ragged_dag` of `tests/program_equivalence.rs`: channel counts
    /// that do not tile the array, an optional stride-2 stem, an optional
    /// depthwise layer, padded 3×3 kernels and one residual join with an
    /// identity or projected shortcut.
    fn ragged_dag(
        [c_in, c_mid, c_out, hw]: [usize; 4],
        stride2: bool,
        depthwise: bool,
        identity: bool,
    ) -> Graph {
        let mut g = Graph::new("ragged_dag", [1, c_in, hw, hw]);
        let stride = if stride2 { 2 } else { 1 };
        let stem = ConvLayer::new(1, c_mid, c_in, hw, hw, 3, 3)
            .with_stride(stride)
            .with_padding(1)
            .with_name("stem");
        let mut cur = g.conv(g.input(), stem).unwrap();
        let hw = (hw + 2 - 3) / stride + 1;
        let conv3 = |name: &str| {
            ConvLayer::new(1, c_mid, c_mid, hw, hw, 3, 3)
                .with_padding(1)
                .with_name(name)
        };
        if depthwise {
            cur = g.conv(cur, conv3("dw").depthwise()).unwrap();
        }
        let block_input = cur;
        cur = g.conv(cur, conv3("main")).unwrap();
        let shortcut = if identity {
            block_input
        } else {
            let proj = ConvLayer::new(1, c_mid, c_mid, hw, hw, 1, 1).with_name("proj");
            g.conv(block_input, proj).unwrap()
        };
        cur = g.add(cur, shortcut, "add").unwrap();
        let head = ConvLayer::new(1, c_out, c_mid, hw, hw, 1, 1).with_name("head");
        g.conv(cur, head).unwrap();
        g
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The record pass counts without data, and nothing but a replay
        /// ever runs a graph — so this is where compiled costs meet the
        /// accounted simulator: every layer of every segment, run through
        /// the accounted loop over real data (zero, extreme and random
        /// operands, modelled batches 1–3) as the first or a pipelined layer
        /// of its chain, must count exactly what the program says it costs.
        #[test]
        fn compiled_layer_costs_equal_accounted_real_data_runs(
            dims in proptest::collection::vec(1usize..7, 3),
            hw in 4usize..8,
            stride2 in 0usize..2,
            depthwise in 0usize..2,
            identity in 0usize..2,
            batch in 1usize..4,
            seed in 0u64..100,
        ) {
            let g = ragged_dag(
                [dims[0], dims[1], dims[2], hw],
                stride2 == 1,
                depthwise == 1,
                identity == 1,
            );
            let solo = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
            let session = solo.with_batch(batch).unwrap();
            let program = session.compile().unwrap();
            assert_segments_are_reported_in_order(&session, &program);

            for fill in [Some(0), Some(i8::MIN), Some(i8::MAX), None] {
                let operand = |shape: [usize; 4], seed: u64| match fill {
                    Some(value) => Tensor4::from_fn(shape, |_, _, _, _| value),
                    None => Tensor4::random(shape, seed),
                };
                let compiled = session.segments.iter().zip(&program.tables.segments);
                for (si, (exec, segment)) in compiled.enumerate() {
                    let steps = &exec.steps;
                    prop_assert_eq!(steps.len(), segment.layers.len());
                    for (i, ((layer, mapping), compiled)) in steps.iter().zip(&segment.layers).enumerate() {
                        let iacts = operand([layer.n, layer.c, layer.h, layer.w], seed);
                        let weights = match &compiled.weight {
                            WeightSource::Pool(window) => window.clone(),
                            WeightSource::Node(id) => {
                                operand(g.node(*id).weight_shape().unwrap(), seed + 1 + i as u64)
                            }
                        };
                        let ctx = LayerExec::new(&session.config(), layer, mapping).unwrap();
                        let (_, core, iact, oact) =
                            run_layer(&ctx, &iacts, &weights, &mut RouteMemo::default(), i == 0).unwrap();
                        let report = &program.tables.layer_cost(si, i).report;
                        let counted = (
                            report.cycles - report.stall_cycles,
                            report.stall_cycles,
                            report.macs,
                            report.birrd_passes,
                            report.birrd_adds,
                            report.iact_stats,
                            report.oact_stats,
                        );
                        let oracle = (
                            core.cycles,
                            iact.conflict_stall_cycles,
                            core.macs,
                            core.birrd_passes,
                            core.birrd_adds,
                            iact,
                            oact,
                        );
                        prop_assert_eq!(counted, oracle, "{}", layer.name);
                    }
                }
            }
        }
    }

    /// The op-stream invariants the report's derived counts rest on: each
    /// segment's ops hold exactly one `Swap` per layer (what
    /// [`GraphReport::stab_swaps`] counts), and segment `i` of
    /// [`Program::cost`] is segment `i` of the program — its layer count that
    /// of `tables.segments[i]`, its names those of the session's segment `i`
    /// nodes — which the listing, `route_fires` and replay profiles index by.
    fn assert_segments_are_reported_in_order(session: &GraphSession, program: &Program) {
        let t = &*program.tables;
        assert_eq!(t.cost.segments.len(), t.segments.len());
        let segments = t
            .cost
            .segments
            .iter()
            .zip(&t.segments)
            .zip(&session.segments);
        for (si, ((summary, segment), exec)) in segments.enumerate() {
            let swaps = t.ops.iter().filter(|op| **op == Op::Swap { seg: si });
            assert_eq!(swaps.count(), segment.layers.len(), "segment {si} swaps");
            assert_eq!(summary.layers.len(), segment.layers.len(), "segment {si}");
            let nodes = exec
                .segment
                .nodes
                .iter()
                .map(|&id| &session.graph().node(id).name);
            let names: Vec<&String> = summary.layers.iter().map(|l| &l.name).collect();
            assert_eq!(names, nodes.collect::<Vec<_>>(), "segment {si}");
        }
        assert_eq!(
            program.cost().stab_swaps(),
            t.ops
                .iter()
                .filter(|op| matches!(op, Op::Swap { .. }))
                .count() as u64
        );
    }

    /// [`assert_segments_are_reported_in_order`] on the benchmark's Models A
    /// (`resnet50_graph_scaled(16, 16)` on 8×16) and B (÷8 on 16×16, planned
    /// by the weight-stationary default here) and the golden dump's residual
    /// graph.
    #[test]
    fn op_stream_holds_one_swap_per_layer_and_reports_segments_in_order() {
        let golden = {
            let conv = |m, c, k, name| {
                ConvLayer::new(1, m, c, 6, 6, k, k)
                    .with_padding(k / 2)
                    .with_name(name)
            };
            let mut g = Graph::new("golden_residual", [1, 4, 6, 6]);
            let stem = g.conv(g.input(), conv(4, 4, 3, "stem")).unwrap();
            let main = g.conv(stem, conv(8, 4, 1, "b0_main")).unwrap();
            let proj = g.conv(stem, conv(8, 4, 1, "b0_proj")).unwrap();
            let joined = g.add(main, proj, "b0_add").unwrap();
            let tail = g.conv(joined, conv(8, 8, 3, "pre_head")).unwrap();
            g.conv(tail, conv(4, 8, 1, "head")).unwrap();
            g
        };
        let models = [
            (FeatherConfig::new(8, 16), resnet50_graph_scaled(16, 16)),
            (FeatherConfig::new(16, 16), resnet50_graph_scaled(8, 8)),
            (FeatherConfig::new(4, 8), golden),
        ];
        for (config, graph) in models {
            let session = GraphSession::auto(config, &graph).unwrap();
            assert_segments_are_reported_in_order(&session, &session.compile().unwrap());
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_retargets_across_programs() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(42);
        let replay = ProgramSession::new(session.compile().unwrap());
        let batched = ProgramSession::new(session.with_batch(2).unwrap().compile().unwrap());

        let mut scratch = ReplayScratch::new();
        for seed in 0..3u64 {
            // Different inputs through one reused scratch: each run must
            // match a fresh-scratch run exactly (outputs and full report),
            // i.e. no state may leak between requests.
            let iacts = Tensor4::random([1, 4, 6, 6], 50 + seed);
            let fresh = replay.run(&iacts, &weights).unwrap();
            let reused = replay
                .run_with_scratch(&mut scratch, &iacts, &weights)
                .unwrap();
            assert_eq!(reused.oacts, fresh.oacts, "seed {seed} outputs diverged");
            assert_eq!(reused.report, fresh.report, "seed {seed} report diverged");
        }

        // Handing the same scratch a different program (the batch-2 variant)
        // retargets the stash instead of corrupting the run.
        let iacts2 = Tensor4::random([2, 4, 6, 6], 60);
        let fresh2 = batched.run(&iacts2, &weights).unwrap();
        let reused2 = batched
            .run_with_scratch(&mut scratch, &iacts2, &weights)
            .unwrap();
        assert_eq!(reused2.oacts, fresh2.oacts);
        assert_eq!(reused2.report, fresh2.report);

        // And back again, still exact.
        let iacts3 = Tensor4::random([1, 4, 6, 6], 70);
        let fresh3 = replay.run(&iacts3, &weights).unwrap();
        let reused3 = replay
            .run_with_scratch(&mut scratch, &iacts3, &weights)
            .unwrap();
        assert_eq!(reused3.oacts, fresh3.oacts);
        assert_eq!(reused3.report, fresh3.report);
    }

    /// The operand gather row and the drained (not re-zeroed) accumulators
    /// are the only state a `Fire` leaves in a scratch: after eight lanes, one lane and then another program's
    /// geometry — halo-only taps in both Phase-1 loop orders, a depthwise
    /// layer — a reused scratch still equals a fresh one.
    #[test]
    fn scratch_carries_nothing_across_lane_counts_and_programs() {
        let padded = |name: &str, m, c, hw, r, s| {
            ConvLayer::new(1, m, c, hw, hw, r, s)
                .with_padding(2)
                .with_name(name)
        };
        // Window-major (25 taps over 3 channels), then bus-major with lanes
        // whose pixel is padding.
        let mut wide = Graph::new("wide", [1, 3, 5, 5]);
        let stem = wide
            .conv(wide.input(), padded("stem", 3, 3, 5, 5, 5))
            .unwrap();
        wide.conv(stem, padded("point", 5, 3, 5, 1, 1)).unwrap();
        let mut deep = Graph::new("deep", [1, 7, 5, 5]);
        let dw = padded("dw", 7, 7, 5, 3, 3).depthwise();
        let dw = deep.conv(deep.input(), dw).unwrap();
        deep.conv(dw, padded("tall", 9, 7, 7, 3, 1)).unwrap();

        let compiled = |g: &Graph, rows, cols| {
            let session = GraphSession::auto(FeatherConfig::new(rows, cols), g).unwrap();
            ProgramSession::new(session.compile().unwrap())
        };
        let wide_run = (&wide, compiled(&wide, 4, 8), wide.random_weights(3));
        let deep_run = (&deep, compiled(&deep, 4, 4), deep.random_weights(4));
        let wide_samples: Vec<Tensor4<i8>> = (0..8u64)
            .map(|seed| Tensor4::random([1, 3, 5, 5], 100 + seed))
            .collect();
        let deep_sample = [Tensor4::random([1, 7, 5, 5], 200)];

        let mut scratch = ReplayScratch::new();
        let steps = [
            (&wide_run, &wide_samples[..]),
            (&wide_run, &wide_samples[7..]),
            (&deep_run, &deep_sample[..]),
            (&wide_run, &wide_samples[..3]),
        ];
        for (step, ((graph, replay, weights), samples)) in steps.into_iter().enumerate() {
            let fresh = replay.run_batched(samples, weights).unwrap();
            let reused = replay
                .run_batched_with_scratch(&mut scratch, samples, weights)
                .unwrap();
            let (shift, zero) = (
                replay.program.tables.quant_shift,
                replay.program.tables.quant_zero,
            );
            for (lane, sample) in samples.iter().enumerate() {
                let golden = run_graph_reference(graph, sample, weights, shift, zero).unwrap();
                assert_eq!(fresh[lane].oacts, golden, "step {step} lane {lane}");
                assert_eq!(reused[lane].oacts, golden, "step {step} lane {lane} reused");
                assert_eq!(reused[lane].report, fresh[lane].report);
            }
        }
    }

    /// A profiled replay is the same replay — outputs and reports — with
    /// one row per executed op whose `Fire` rows carry the layers' modelled
    /// cost exactly once.
    #[test]
    fn profiled_replay_equals_run_and_accounts_for_every_op() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(52);
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..3u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 50 + seed))
            .collect();
        for lanes in [1usize, 3] {
            let batch = &samples[..lanes];
            let plain = replay.run_batched(batch, &weights).unwrap();
            let (runs, profile) = replay
                .run_profiled(&mut ReplayScratch::new(), batch, &weights)
                .unwrap();
            for (run, plain) in runs.iter().zip(&plain) {
                assert_eq!(run.oacts, plain.oacts);
                assert_eq!(run.report, plain.report);
            }
            assert_eq!(profile.rows.len(), replay.program().num_ops());
            // Provisioning, striping and the reports are in no row.
            assert!(profile.outside_ns > 0);

            let cost = replay.program().cost();
            let fires = profile.rows.iter().filter(|r| r.family == OpFamily::Fire);
            assert_eq!(fires.clone().count(), cost.layers().count());
            assert_eq!(
                fires.clone().map(|r| r.macs).sum::<u64>(),
                cost.total_macs()
            );
            assert_eq!(fires.map(|r| r.cycles).sum::<u64>(), cost.total_cycles());
            let others = profile.rows.iter().filter(|r| r.family != OpFamily::Fire);
            assert!(others.clone().all(|r| r.macs == 0 && r.cycles == 0));

            // Every op of a layer lands in that layer's sum; families tile
            // the whole.
            let total: u64 = profile.rows.iter().map(|r| r.wall_ns).sum();
            let by_family: u64 = profile.by_family().iter().map(|(_, ns)| ns).sum();
            assert_eq!(by_family, total);
            let by_layer = profile.by_layer();
            assert_eq!(by_layer.len(), cost.layers().count() + cost.joins.len());
            assert_eq!(
                by_layer.iter().map(|l| l.macs).sum::<u64>(),
                cost.total_macs()
            );
            let other: u64 = others
                .filter(|r| r.layer.is_empty())
                .map(|r| r.wall_ns)
                .sum();
            assert_eq!(
                by_layer.iter().map(|l| l.wall_ns).sum::<u64>() + other,
                total
            );
        }
        let no_samples = replay.run_profiled(&mut ReplayScratch::new(), &[], &weights);
        assert!(no_samples.is_err());
    }

    #[test]
    fn run_batched_is_bit_identical_to_solo_replays() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(82);
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..4u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 80 + seed))
            .collect();

        let mut scratch = ReplayScratch::new();
        for lanes in [1usize, 2, 4] {
            let batch = &samples[..lanes];
            let fresh = replay.run_batched(batch, &weights).unwrap();
            let reused = replay
                .run_batched_with_scratch(&mut scratch, batch, &weights)
                .unwrap();
            assert_eq!(fresh.len(), lanes);
            for (lane, sample) in batch.iter().enumerate() {
                let solo = replay.run(sample, &weights).unwrap();
                assert_eq!(fresh[lane].oacts, solo.oacts, "lane {lane} outputs");
                assert_eq!(fresh[lane].report, solo.report, "lane {lane} report");
                assert_eq!(reused[lane].oacts, solo.oacts, "lane {lane} reused outputs");
                assert_eq!(
                    reused[lane].report, solo.report,
                    "lane {lane} reused report"
                );
            }
        }
        assert!(replay.run_batched(&[], &weights).is_err());
    }

    /// Weights are a per-call input: nothing derived from one call's weight
    /// map may survive into the next, whatever is reused between them.
    #[test]
    fn alternating_weight_maps_through_one_session_and_scratch() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let (shift, zero) = session.quantization();
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..4u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 90 + seed))
            .collect();
        let weight_maps = [g.random_weights(7), g.random_weights(1007)];
        assert_ne!(weight_maps[0], weight_maps[1]);
        let golden = |sample: &Tensor4<i8>, which: usize| {
            run_graph_reference(&g, sample, &weight_maps[which], shift, zero).unwrap()
        };
        // Join saturation is the one data-dependent count in a report.
        let accounting = |run: &GraphRun| {
            let mut report = run.report.clone();
            report.joins.iter_mut().for_each(|j| j.saturated = 0);
            report
        };

        let mut scratch = ReplayScratch::new();
        let mut lane_scratch = ReplayScratch::new();
        let mut reports = Vec::new();
        for round in 0..4 {
            let which = round % 2;
            let weights = &weight_maps[which];
            let fresh = replay.run(&samples[0], weights).unwrap();
            let reused = replay
                .run_with_scratch(&mut scratch, &samples[0], weights)
                .unwrap();
            assert_eq!(fresh.oacts, golden(&samples[0], which), "round {round} run");
            assert_eq!(reused.oacts, fresh.oacts, "round {round} run_with_scratch");
            reports.push(accounting(&fresh));
            reports.push(accounting(&reused));
            for lanes in [1usize, 4] {
                let fresh = replay.run_batched(&samples[..lanes], weights).unwrap();
                let reused = replay
                    .run_batched_with_scratch(&mut lane_scratch, &samples[..lanes], weights)
                    .unwrap();
                for (lane, sample) in samples[..lanes].iter().enumerate() {
                    let want = golden(sample, which);
                    assert_eq!(fresh[lane].oacts, want, "round {round} lane {lane}/{lanes}");
                    assert_eq!(
                        reused[lane].oacts, want,
                        "round {round} lane {lane}/{lanes}"
                    );
                    reports.push(accounting(&fresh[lane]));
                    reports.push(accounting(&reused[lane]));
                }
            }
        }
        // Cycles, traffic and energy never depend on the weight values.
        assert!(reports.iter().all(|r| *r == reports[0]));
    }

    /// The in-place weight addressing on its awkward shapes: ragged `(M, C)`
    /// tail tiles under a strided, padded 3×3 kernel, and the depthwise
    /// `[C, 1, R, S]` filter layout — through every replay flavour.
    #[test]
    fn ragged_and_depthwise_layers_replay_to_the_reference_convolution() {
        let ragged = ConvLayer::new(1, 7, 11, 9, 9, 3, 3)
            .with_stride(2)
            .with_padding(1)
            .with_name("ragged");
        let depthwise = ConvLayer::new(1, 6, 6, 9, 9, 3, 3)
            .with_padding(1)
            .depthwise()
            .with_name("depthwise");
        for layer in [ragged, depthwise] {
            let mut g = Graph::new(&layer.name, [layer.n, layer.c, layer.h, layer.w]);
            g.conv(g.input(), layer.clone()).unwrap();
            let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
            let program = session.compile().unwrap();
            let mapping = &program.tables.segments[0].layers[0].replay.tiling.mapping;
            assert_ne!(
                layer.m % mapping.m_rows,
                0,
                "{}: M tiles evenly",
                layer.name
            );
            if !layer.is_depthwise() {
                assert_ne!(
                    layer.c % mapping.c_cols,
                    0,
                    "{}: C tiles evenly",
                    layer.name
                );
            }

            let weights = g.random_weights(31);
            let filter = weights.values().next().unwrap();
            let samples: Vec<Tensor4<i8>> = (0..3u64)
                .map(|seed| Tensor4::random([layer.n, layer.c, layer.h, layer.w], 40 + seed))
                .collect();
            let golden: Vec<Tensor4<i32>> = samples
                .iter()
                .map(|sample| conv2d_reference(&layer, sample, filter).unwrap())
                .collect();

            let replay = ProgramSession::new(program);
            for (sample, want) in samples.iter().zip(&golden) {
                assert_eq!(&session.run(sample, &weights).unwrap().oacts, want);
                assert_eq!(&replay.run(sample, &weights).unwrap().oacts, want);
            }
            let lanes = replay.run_batched(&samples, &weights).unwrap();
            for (lane, want) in lanes.iter().zip(&golden) {
                assert_eq!(&lane.oacts, want, "{} batched", layer.name);
            }
        }
    }

    #[test]
    fn fingerprint_tracks_schedule_changes() {
        let g = residual_graph();
        let base = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        assert_eq!(base.fingerprint(), base.fingerprint());
        let batched = base.with_batch(4).unwrap();
        assert_ne!(base.fingerprint(), batched.fingerprint());
        let requantized = base.clone().with_quantization(5, 1);
        assert_ne!(base.fingerprint(), requantized.fingerprint());
        let other_fabric = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        assert_ne!(base.fingerprint(), other_fabric.fingerprint());
    }
}
