//! The one lowering of a planned [`GraphSession`] into a [`Program`]: tensor
//! table, per-layer replay contexts, op stream and [`Program::cost`] all come
//! from the session; each layer's measured half — its [`LayerCost`] and pass
//! stream — and the route table come from the record pass, a counting walk
//! of each layer ([`count_conv_core`]) that moves no value. The accounted
//! tile loop over real data, which is test code, is the oracle it is tested
//! against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use feather_arch::energy::EnergyModel;
use feather_arch::fingerprint::fnv1a64;
use feather_arch::graph::{NodeOp, TensorId};
use feather_arch::ArchError;
use feather_memsim::{AccessStats, LayoutView, PingPong, ScratchRegion};

use crate::config::FeatherConfig;
use crate::core::{count_conv_core, LayerExec, ReplayLayer, RouteRecorder};
use crate::graph_session::{pool_window_weights, GraphSession, Step};
use crate::report::{GraphReport, JoinSummary, NetworkReport, SegmentSummary};
use crate::session::{iact_spec, layer_summary, oact_spec};

use super::{
    kind_token, CompiledLayer, CompiledSegment, JoinSpec, LayerCost, Op, OperandSrc, Program,
    Tables, TensorSlot, WeightSource,
};

/// Rewrites a drained segment's report for graph-level DRAM accounting:
/// interior boundary tensors stay on chip (StaB handoff or scratch region),
/// and pooling lowerings carry no weight traffic — their window constants
/// are synthesized, not streamed.
fn adjust_report(report: &mut NetworkReport, seg: &CompiledSegment, energy: &EnergyModel) {
    let mut dirty: Vec<usize> = Vec::new();
    if !seg.graph_input {
        report.layers[0].report.dram_iact_bytes = 0;
        dirty.push(0);
    }
    if !seg.graph_output {
        let last = report.layers.len() - 1;
        report.layers[last].report.dram_oact_bytes = 0;
        dirty.push(last);
    }
    for (i, layer) in seg.layers.iter().enumerate() {
        if matches!(layer.weight, WeightSource::Pool(_)) {
            report.layers[i].report.dram_weight_bytes = 0;
            dirty.push(i);
        }
    }
    for i in dirty {
        let layer = &mut report.layers[i].report;
        layer.energy.dram_pj = energy.dram_pj(layer.dram_bytes());
    }
}

/// Assembles [`Program::cost`] by walking the op stream symbolically: each
/// `Drain` turns its segment's recorded layer costs into a report entry,
/// each `Join` contributes its shape, and `Park`/`Unpark` drive a real
/// [`ScratchRegion`] (over zeros) so shortcut traffic is counted by the code
/// that defines it. `None` when a tensor is fetched that is not parked.
fn cost_of(
    config: &FeatherConfig,
    energy: &EnergyModel,
    tensors: &[TensorSlot],
    segments: &[CompiledSegment],
    joins: &[JoinSpec],
    ops: &[Op],
) -> Option<GraphReport> {
    let elems = |tensor: usize| tensors[tensor].shape.iter().product::<usize>();
    let mut scratch: ScratchRegion<i8> = ScratchRegion::new(config.cols.max(1));
    let mut report = GraphReport {
        segments: Vec::with_capacity(segments.len()),
        joins: Vec::with_capacity(joins.len()),
        scratch: AccessStats::new(),
        scratch_peak_elems: 0,
    };
    // Of the segment between its Stage and Drain: staged from the scratch
    // region, swaps so far.
    let (mut input_from_scratch, mut stab_swaps) = (false, 0);
    for op in ops {
        match *op {
            Op::Stage { fresh, .. } => (input_from_scratch, stab_swaps) = (!fresh, 0),
            Op::Fire { .. } | Op::Reorder { .. } => {}
            Op::Swap { .. } => stab_swaps += 1,
            Op::Drain { seg } => {
                let cs = &segments[seg];
                let last = cs.layers.len() - 1;
                let layers = cs
                    .layers
                    .iter()
                    .enumerate()
                    .map(|(i, cl)| {
                        layer_summary(
                            config,
                            energy,
                            &cl.replay.tiling.layer,
                            &cl.cost.core,
                            cl.cost.iact,
                            cl.cost.oact,
                            i == 0,
                            i == last,
                        )
                    })
                    .collect();
                let mut network = NetworkReport { layers, stab_swaps };
                adjust_report(&mut network, cs, energy);
                report.segments.push(SegmentSummary {
                    nodes: cs.names.clone(),
                    report: network,
                    input_from_scratch,
                });
            }
            Op::Join { join } => report.joins.push(JoinSummary {
                name: joins[join].name.clone(),
                elements: elems(joins[join].output) as u64,
                saturated: 0,
            }),
            Op::Park { tensor } => {
                scratch.park(tensors[tensor].key.clone(), vec![0; elems(tensor)]);
            }
            Op::Unpark { tensor, free } => {
                let key = &tensors[tensor].key;
                scratch.fetch(key)?;
                if free {
                    scratch.release(key);
                }
            }
        }
    }
    report.scratch = *scratch.stats();
    report.scratch_peak_elems = scratch.peak_occupancy() as u64;
    Some(report)
}

// ------------------------------------------------------------------ compile

/// Lowers a planned session into a [`Program`] — what fills the cell behind
/// [`GraphSession::compile`], once per session: every layer runs its
/// counting record pass.
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
    // shapes and scratch keys.
    let mut tensors: Vec<TensorSlot> = Vec::new();
    let mut slot_of: BTreeMap<TensorId, usize> = BTreeMap::new();
    let mut add_tensor = |t: TensorId, tensors: &mut Vec<TensorSlot>| {
        let mut shape = graph.tensor_shape(t);
        shape[0] = batch;
        slot_of.entry(t).or_insert_with(|| {
            tensors.push(TensorSlot {
                id: t.0,
                key: t.to_string(),
                shape,
            });
            tensors.len() - 1
        });
    };
    add_tensor(graph.input(), &mut tensors);
    for node in graph.nodes() {
        add_tensor(node.output, &mut tensors);
    }
    let input_slot = slot_of[&graph.input()];
    let input_shape = tensors[input_slot].shape;

    // Lower every segment: build the owned layer contexts and walk each
    // layer's tile loop once, counting, through the StaB sequence of a
    // pipelined chain. Routes and costs are data-independent, so
    // this one pass records the BIRRD pass stream every replay will consume
    // and counts what every replay will report.
    let mut segments: Vec<CompiledSegment> = Vec::with_capacity(session.segments.len());
    let mut recorder = RouteRecorder::default();
    for exec in &session.segments {
        let seg = &exec.segment;
        let steps = exec.session.steps();
        let route_cache = exec.session.route_cache();
        let mut layers: Vec<CompiledLayer> = Vec::with_capacity(steps.len());
        let mut names: Vec<String> = Vec::with_capacity(steps.len());

        let (first, first_mapping) = &steps[0];
        let mut stab: PingPong<i32> = PingPong::new(iact_spec(first, first_mapping));
        for (i, (layer, mapping)) in steps.iter().enumerate() {
            let node = graph.node(seg.nodes[i]);
            names.push(node.name.clone());
            let weight = match &node.op {
                NodeOp::PoolAsConv(_) => WeightSource::Pool(pool_window_weights(layer)),
                _ => WeightSource::Node(node.id),
            };
            let exec = LayerExec::new(&config, layer, mapping)?;
            let ispec = iact_spec(layer, mapping);
            let ospec = oact_spec(layer, mapping);
            let idims = layer.iact_dim_sizes();
            let odims = layer.oact_dim_sizes();
            stab.shadow().reshape(ospec);
            if i > 0 {
                stab.active().rebank(ispec);
            }
            let (core, iact, oact) = {
                let (active, shadow) = stab.split_mut();
                let mut iact_view = LayoutView::new(active, &mapping.iact_layout, &idims);
                let mut oact_view = LayoutView::new(shadow, &mapping.oact_layout, &odims);
                count_conv_core(
                    &exec,
                    &mut iact_view,
                    &mut oact_view,
                    route_cache,
                    &mut recorder,
                    i == 0,
                )?
            };
            let cost = LayerCost { core, iact, oact };
            stab.swap();
            let stream = recorder.finish_layer();

            layers.push(CompiledLayer {
                replay: ReplayLayer::new(exec, ispec.capacity(), ospec.capacity(), stream)?,
                weight,
                cost,
            });
        }

        segments.push(CompiledSegment {
            names,
            input: slot_of[&seg.input],
            output: slot_of[&seg.output],
            graph_input: seg.input == graph.input(),
            graph_output: seg.output == graph.output(),
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

    let routes = recorder.into_table();
    let energy = &session.energy_model;
    let cost = cost_of(&config, energy, &tensors, &segments, &joins, &ops).ok_or_else(|| {
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

/// FNV-1a 64 fingerprint of everything that determines a session's compiled
/// program — the implementation behind [`GraphSession::fingerprint`].
pub(crate) fn session_fingerprint(session: &GraphSession) -> u64 {
    let graph = session.graph();
    let config = session.config();
    let (shift, zero) = session.quantization();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "program|{}|rows={}|cols={}|stab={}|strb={}|batch={}|shift={shift}|zero={zero}",
        graph.name,
        config.rows,
        config.cols,
        config.stab_lines,
        config.strb_lines,
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
        for (li, (layer, mapping)) in exec.session.steps().iter().enumerate() {
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
