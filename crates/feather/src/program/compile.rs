//! The one lowering of a planned [`GraphSession`] into a [`Program`]: tensor
//! table, replay contexts, op stream and [`Program::cost`] all come from the
//! session; each layer's cost record — its [`LayerSummary`], made once from
//! the counts — and the route table come from the record pass, a counting
//! walk ([`count_conv_core`]) of each distinct layer context that moves no
//! value. The accounted tile loop over real data, which is test
//! code, is the oracle it is tested against.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

use feather_arch::fabric::{FeatherConfig, LayerMapping};
use feather_arch::fingerprint::fnv1a64;
use feather_arch::graph::{NodeOp, TensorId};
use feather_arch::workload::ConvLayer;
use feather_arch::ArchError;
use feather_memsim::{AccessLedger, AccessStats, Banking, BufferSpec, ScratchRegion};

use crate::core::{count_conv_core, CoreRun, LayerExec, ReplayLayer, RouteMemo};
use crate::graph_session::{pool_window_weights, GraphSession, Step};
use crate::report::{GraphReport, JoinSummary, LayerSummary, SegmentSummary};
use crate::session::{iact_spec, layer_summary, oact_spec};

use super::{
    kind_token, CompiledLayer, CompiledSegment, JoinSpec, Op, OperandSrc, Program, Tables,
    TensorSlot, WeightSource,
};

/// Assembles [`Program::cost`], whose segment list every run of the program
/// shares, by walking the op stream symbolically: each `Drain` moves its
/// segment's layer records (`layers[seg]`, already final) into the report —
/// segments drain in the order they were compiled, so segment `i` of the
/// report is segment `i` of the program — each `Join` contributes its shape,
/// and `Park`/`Unpark` drive a [`ScratchRegion`], keyed by tensor slot and
/// holding element counts, so shortcut traffic is counted by the code that
/// defines it. `None` when a tensor is fetched that is not parked or a
/// segment drains out of order.
fn cost_of(
    config: &FeatherConfig,
    tensors: &[TensorSlot],
    mut layers: Vec<Vec<LayerSummary>>,
    joins: &[JoinSpec],
    ops: &[Op],
) -> Option<GraphReport> {
    let elems = |tensor: usize| tensors[tensor].shape.iter().product::<usize>();
    let mut scratch = ScratchRegion::new(config.cols.max(1));
    let mut summaries: Vec<SegmentSummary> = Vec::with_capacity(layers.len());
    let mut join_summaries: Vec<JoinSummary> = Vec::with_capacity(joins.len());
    // Of the segment between its Stage and Drain: staged from the scratch
    // region.
    let mut input_from_scratch = false;
    for op in ops {
        match *op {
            Op::Stage { fresh, .. } => input_from_scratch = !fresh,
            Op::Fire { .. } | Op::Reorder { .. } | Op::Swap { .. } => {}
            Op::Drain { seg } => {
                if seg != summaries.len() {
                    return None;
                }
                summaries.push(SegmentSummary {
                    layers: std::mem::take(&mut layers[seg]),
                    input_from_scratch,
                });
            }
            Op::Join { join } => join_summaries.push(JoinSummary {
                name: joins[join].name.clone(),
                elements: elems(joins[join].output) as u64,
                saturated: 0,
            }),
            Op::Park { tensor } => scratch.park(tensor, elems(tensor)),
            Op::Unpark { tensor, free } => {
                scratch.fetch(tensor)?;
                if free {
                    scratch.release(tensor);
                }
            }
        }
    }
    Some(GraphReport {
        segments: summaries.into(),
        joins: join_summaries,
        scratch: *scratch.stats(),
        scratch_peak_elems: scratch.peak_occupancy() as u64,
    })
}

// ------------------------------------------------------------------ compile

/// Lowers a planned session into a [`Program`] — what fills the cell behind
/// [`GraphSession::compile`], once per session: each distinct layer context
/// runs its counting record pass and is lowered once, and its repeats share
/// both.
///
/// # Errors
/// Fails on a layer that does not fit the fabric or a route that cannot be
/// compiled.
pub(crate) fn compile(session: &GraphSession) -> Result<Program, ArchError> {
    let graph = session.graph();
    let config = session.config();
    let (quant_shift, quant_zero) = session.quantization();
    let batch = session.batch();

    // Tensor table: the graph input plus every node output, with batched
    // shapes.
    let mut tensors: Vec<TensorSlot> = Vec::new();
    let mut slot_of: BTreeMap<TensorId, usize> = BTreeMap::new();
    let mut add_tensor = |t: TensorId, tensors: &mut Vec<TensorSlot>| {
        let mut shape = graph.tensor_shape(t);
        shape[0] = batch;
        slot_of.entry(t).or_insert_with(|| {
            tensors.push(TensorSlot { id: t.0, shape });
            tensors.len() - 1
        });
    };
    add_tensor(graph.input(), &mut tensors);
    for node in graph.nodes() {
        add_tensor(node.output, &mut tensors);
    }
    let input_slot = slot_of[&graph.input()];
    let input_shape = tensors[input_slot].shape;

    // Lower every segment: build each distinct layer context and walk its
    // tile loop once, counting, through the StaB sequence of a pipelined
    // chain. Routes and costs are data-independent, so
    // this one pass resolves every BIRRD pass a replay's row fires stand for
    // and counts what every replay will report.
    let mut segments: Vec<CompiledSegment> = Vec::with_capacity(session.segments.len());
    // Each segment's layer records: the record pass's counts, with their
    // final graph-level DRAM accounting.
    let mut costs: Vec<Vec<LayerSummary>> = Vec::with_capacity(session.segments.len());
    let energy = &session.energy_model;
    // One memo for the whole program: the fabric width is fixed, so each
    // distinct route is requested, routed, lowered and folded into the
    // program's route table once, by the first layer that issues it.
    let mut memo = RouteMemo::default();
    // The StaB's two halves as a layer uses them: the iAct half it reads and
    // the oAct half it writes. A layer's costs are its own accesses, and the
    // walk flushes every cycle it opens, so a ping/pong swap carries nothing
    // over: each layer resets both ledgers to its own specs.
    let empty = BufferSpec::new(0, 0, 1, Banking::Horizontal);
    let (mut iact_half, mut oact_half) = (AccessLedger::new(empty), AccessLedger::new(empty));
    // One record and one lowered layer per distinct layer context: the layer
    // without its name, its mapping, and whether it opens its segment (which
    // exposes its first weight load). The buffer specs follow from those, and
    // a repeat's walk would only make route-memo hits, so it would count the
    // same and leave the route table alone; its lowering would equal the
    // first occurrence's but for the name, which replay never reads.
    // ResNet's repeated bottleneck blocks make about half the layers repeats.
    let mut lowered: HashMap<LayerContext, (LayerRecord, Arc<ReplayLayer>)> = HashMap::new();
    for exec in &session.segments {
        let (seg, steps) = (&exec.segment, &exec.steps);
        let (graph_input, graph_output) =
            (seg.input == graph.input(), seg.output == graph.output());
        let mut layers: Vec<CompiledLayer> = Vec::with_capacity(steps.len());
        let mut cost: Vec<LayerSummary> = Vec::with_capacity(steps.len());

        for (i, (layer, mapping)) in steps.iter().enumerate() {
            let node = graph.node(seg.nodes[i]);
            let weight = match &node.op {
                NodeOp::PoolAsConv(_) => WeightSource::Pool(pool_window_weights(layer)),
                _ => WeightSource::Node(node.id),
            };
            let (ispec, ospec) = (iact_spec(layer, mapping), oact_spec(layer, mapping));
            let mut count = |exec: &LayerExec| {
                iact_half.reset(ispec);
                oact_half.reset(ospec);
                count_conv_core(exec, &mut iact_half, &mut oact_half, &mut memo, i == 0)
            };
            let context = (
                ConvLayer {
                    name: String::new(),
                    ..layer.clone()
                },
                mapping.clone(),
                i == 0,
            );
            let ((core, iact, oact), replay) = match lowered.entry(context) {
                Entry::Occupied(first) => {
                    let (record, replay) = first.get();
                    // Debug builds lower and walk the repeat as well and
                    // check that it counts what its first occurrence counted.
                    if cfg!(debug_assertions) {
                        let walked = count(&LayerExec::new(&config, layer, mapping)?)?;
                        assert_eq!(walked, *record, "layer `{}` repeats a context", layer.name);
                    }
                    (*record, Arc::clone(replay))
                }
                Entry::Vacant(slot) => {
                    let exec = LayerExec::new(&config, layer, mapping)?;
                    let record = count(&exec)?;
                    #[cfg(test)]
                    tests::tally_record();
                    let replay = ReplayLayer::new(exec, ispec.capacity(), ospec.capacity())?;
                    let (record, replay) = slot.insert((record, Arc::new(replay)));
                    (*record, Arc::clone(replay))
                }
            };
            cost.push(layer_summary(
                &config,
                energy,
                layer,
                &core,
                iact,
                oact,
                graph_input && i == 0,
                graph_output && i + 1 == steps.len(),
                matches!(weight, WeightSource::Node(_)),
            ));
            layers.push(CompiledLayer { replay, weight });
        }

        costs.push(cost);
        segments.push(CompiledSegment {
            input: slot_of[&seg.input],
            output: slot_of[&seg.output],
            graph_input,
            graph_output,
            layers,
        });
    }

    // Emit the op stream by walking the plan symbolically: consumer counts
    // decide which tensor is the fresh StaB resident, which one a consumer
    // moves out, and which must be parked in (or fetched from) the scratch
    // region because the pipeline moved on while it still had consumers.
    let mut remaining: BTreeMap<TensorId, usize> = BTreeMap::new();
    remaining.insert(graph.input(), graph.consumers(graph.input()).len());
    for node in graph.nodes() {
        remaining.insert(node.output, graph.consumers(node.output).len());
    }
    let mut fresh_t: Option<TensorId> = Some(graph.input());
    let mut ops: Vec<Op> = Vec::new();
    let mut joins: Vec<JoinSpec> = Vec::new();

    let take_sym = |t: TensorId,
                    remaining: &mut BTreeMap<TensorId, usize>,
                    fresh_t: &mut Option<TensorId>,
                    ops: &mut Vec<Op>|
     -> OperandSrc {
        let uses = remaining.get_mut(&t).expect("planned tensors are known");
        *uses = uses.saturating_sub(1);
        let last = *uses == 0;
        if *fresh_t == Some(t) {
            if last {
                *fresh_t = None;
            }
            OperandSrc::Fresh { take: last }
        } else {
            ops.push(Op::Unpark {
                tensor: slot_of[&t],
                free: last,
            });
            OperandSrc::Queue
        }
    };
    let publish_sym = |t: TensorId,
                       remaining: &BTreeMap<TensorId, usize>,
                       fresh_t: &mut Option<TensorId>,
                       ops: &mut Vec<Op>,
                       slot_of: &BTreeMap<TensorId, usize>| {
        if let Some(old) = fresh_t.take() {
            if remaining.get(&old).copied().unwrap_or(0) > 0 {
                ops.push(Op::Park {
                    tensor: slot_of[&old],
                });
            }
        }
        *fresh_t = Some(t);
    };

    for step in &session.plan {
        match *step {
            Step::Segment(si) => {
                let seg = &session.segments[si].segment;
                let src = take_sym(seg.input, &mut remaining, &mut fresh_t, &mut ops);
                let (from_fresh, take) = match src {
                    OperandSrc::Fresh { take } => (true, take),
                    OperandSrc::Queue => (false, false),
                };
                ops.push(Op::Stage {
                    seg: si,
                    fresh: from_fresh,
                    take,
                });
                let num_layers = segments[si].layers.len();
                for li in 0..num_layers {
                    ops.push(Op::Fire { seg: si, layer: li });
                    if li + 1 < num_layers {
                        ops.push(Op::Reorder { seg: si, layer: li });
                    }
                    ops.push(Op::Swap { seg: si });
                }
                ops.push(Op::Drain { seg: si });
                publish_sym(seg.output, &remaining, &mut fresh_t, &mut ops, &slot_of);
            }
            Step::Join(id) => {
                let node = graph.node(id);
                let a = take_sym(node.inputs[0], &mut remaining, &mut fresh_t, &mut ops);
                let b = take_sym(node.inputs[1], &mut remaining, &mut fresh_t, &mut ops);
                let ji = joins.len();
                joins.push(JoinSpec {
                    name: node.name.clone(),
                    output: slot_of[&node.output],
                    a,
                    b,
                    graph_output: node.output == graph.output(),
                });
                ops.push(Op::Join { join: ji });
                publish_sym(node.output, &remaining, &mut fresh_t, &mut ops, &slot_of);
            }
        }
    }

    let routes = memo.into_table();
    let cost = cost_of(&config, &tensors, costs, &joins, &ops).ok_or_else(|| {
        ArchError::InvalidWorkload("compiled program is inconsistent: op stream".to_string())
    })?;
    Ok(Program {
        tables: Arc::new(Tables {
            name: graph.name.clone(),
            config,
            batch,
            quant_shift,
            quant_zero,
            input_shape,
            input_slot,
            fingerprint: session_fingerprint(session),
            tensors,
            segments,
            joins,
            ops,
            routes,
            cost,
        }),
    })
}

/// What a layer's record pass and lowering depend on: the layer without its
/// name, its mapping, and whether it is the first of its segment.
type LayerContext = (ConvLayer, LayerMapping, bool);

/// What a layer's record pass counts ([`count_conv_core`]).
type LayerRecord = (CoreRun, AccessStats, AccessStats);

/// FNV-1a 64 fingerprint of everything that determines a session's compiled
/// program — the implementation behind [`GraphSession::fingerprint`].
pub(crate) fn session_fingerprint(session: &GraphSession) -> u64 {
    let graph = session.graph();
    let config = session.config();
    let (shift, zero) = session.quantization();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "program|{}|rows={}|cols={}|batch={}|shift={shift}|zero={zero}",
        graph.name,
        config.rows,
        config.cols,
        session.batch()
    );
    for node in graph.nodes() {
        let tag = match &node.op {
            NodeOp::Conv(_) => "conv",
            NodeOp::Gemm(_) => "gemm",
            NodeOp::PoolAsConv(_) => "pool",
            NodeOp::Add => "add",
        };
        let inputs: Vec<String> = node.inputs.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(
            text,
            "node|{}|{}|{tag}|in={}|out={}",
            node.id,
            node.name,
            inputs.join(","),
            node.output
        );
    }
    for (si, exec) in session.segments.iter().enumerate() {
        for (li, (layer, mapping)) in exec.steps.iter().enumerate() {
            let _ = writeln!(
                text,
                "layer|{si}|{li}|{},{},{},{},{},{},{},{},{},{}|{},{},{}|{}|{}",
                layer.n,
                layer.m,
                layer.c,
                layer.h,
                layer.w,
                layer.r,
                layer.s,
                layer.stride,
                layer.padding,
                kind_token(layer.kind),
                mapping.m_rows,
                mapping.c_cols,
                mapping.q_cols,
                mapping.iact_layout,
                mapping.oact_layout
            );
        }
    }
    for step in &session.plan {
        let _ = match *step {
            Step::Segment(si) => writeln!(text, "step|seg{si}"),
            Step::Join(id) => writeln!(text, "step|join{id}"),
        };
    }
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use feather_arch::graph::resnet50_graph_scaled;

    use super::*;

    thread_local! {
        /// Layer records this thread's compiles counted, repeats not
        /// included.
        static RECORDS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn tally_record() {
        RECORDS.with(|n| n.set(n.get() + 1));
    }

    /// `(records counted, distinct lowered layers, layers)` of compiling
    /// `graph` on `config`.
    fn records_of(
        config: FeatherConfig,
        graph: &feather_arch::graph::Graph,
    ) -> (usize, usize, usize) {
        let session = GraphSession::auto(config, graph).unwrap();
        let before = RECORDS.with(Cell::get);
        let program = session.compile().unwrap();
        let layers: Vec<&Arc<ReplayLayer>> = program
            .tables
            .segments
            .iter()
            .flat_map(|s| &s.layers)
            .map(|l| &l.replay)
            .collect();
        let distinct = layers
            .iter()
            .enumerate()
            .filter(|&(i, l)| !layers[..i].iter().any(|e| Arc::ptr_eq(e, l)))
            .count();
        (RECORDS.with(Cell::get) - before, distinct, layers.len())
    }

    #[test]
    fn the_benchmark_models_count_each_distinct_layer_once() {
        // Model A: ÷16 ResNet-50 on 8×16. Model B: ÷8 on 16×16, which the
        // planner's schedules reach as `auto` (same fingerprint). 29 of each
        // model's 56 layers repeat a layer context: they take its record and
        // share its lowered layer.
        let a = records_of(FeatherConfig::new(8, 16), &resnet50_graph_scaled(16, 16));
        assert_eq!(a, (27, 27, 56));
        let b_graph = resnet50_graph_scaled(8, 8);
        let b = GraphSession::auto(FeatherConfig::new(16, 16), &b_graph).unwrap();
        assert_eq!(b.fingerprint(), 0x2d63_a0bd_c4a9_2374);
        assert_eq!(
            records_of(FeatherConfig::new(16, 16), &b_graph),
            (27, 27, 56)
        );
    }

    #[test]
    fn an_unpark_of_a_never_parked_slot_is_inconsistent() {
        let config = FeatherConfig::new(4, 8);
        let tensors = [TensorSlot {
            id: 0,
            shape: [1, 4, 6, 6],
        }];
        let unpark = |free| Op::Unpark { tensor: 0, free };
        let cost = |ops: &[Op]| cost_of(&config, &tensors, Vec::new(), &[], ops);
        assert!(cost(&[unpark(true)]).is_none());
        assert!(cost(&[Op::Park { tensor: 0 }, unpark(true), unpark(false)]).is_none());
        let report = cost(&[Op::Park { tensor: 0 }, unpark(false), unpark(true)]).unwrap();
        assert_eq!(report.scratch.element_reads, 2 * 144);
    }
}
