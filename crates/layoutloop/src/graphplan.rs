//! Whole-graph (DAG) co-search planning: `plan_network` generalized from a
//! flat layer chain to a tensor DAG with branches and residual joins.
//!
//! The planner works per [`GraphSegment`](feather_arch::graph::GraphSegment):
//! every linear segment is planned like a small network — each layer's
//! chosen layout chains into the next layer's predecessor constraint — and
//! the layout context propagates across segment boundaries, through joins
//! (a join hands its *main-path* operand's layout downstream; the shortcut
//! operand is reordered into the consumer's layout at the join itself, which
//! RIR prices at zero for FEATHER).
//!
//! Both steps are exact because co-search tables are predecessor-independent
//! ([`crate::cosearch::CoSearchTable`]): all missing tables — across *every*
//! branch and layer of the graph — are computed concurrently, after which
//! chaining is table lookups in one walk over the (topologically ordered)
//! nodes: a segment is chained at its head node, and a join forwards its
//! main-path operand's layout.

use std::collections::BTreeMap;

use feather_arch::dataflow::Dataflow;
use feather_arch::graph::{Graph, NodeId, TensorId};
use feather_arch::layout::Layout;
use feather_arch::workload::ConvLayer;
use feather_arch::ArchError;

use crate::arch::ArchSpec;
use crate::cache::CoSearchCache;
use crate::cosearch::{chain, ensure_tables, CoSearchResult, CoSearchTable};
use crate::mapper::MapperConfig;

/// The per-node `(dataflow, layout)` schedule of a planned graph, the shape
/// `feather::GraphSession::from_schedules` consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPlan {
    /// Graph name the plan was produced for.
    pub graph_name: String,
    /// Per conv-like node winners (joins need no mapping).
    pub per_node: BTreeMap<NodeId, CoSearchResult>,
    /// Number of linear segments the graph was partitioned into.
    pub segment_count: usize,
    /// Lookups served from already-computed co-search tables.
    pub cache_hits: u64,
    /// Fresh co-search tables computed while planning.
    pub cache_misses: u64,
}

impl GraphPlan {
    /// The per-node `(dataflow, iAct layout)` schedules for the executor.
    pub fn schedules(&self) -> BTreeMap<NodeId, (Dataflow, Layout)> {
        self.per_node
            .iter()
            .map(|(&id, r)| (id, (r.dataflow.clone(), r.layout.clone())))
            .collect()
    }

    /// Total modeled cycles across all planned nodes.
    pub fn total_cycles(&self) -> u64 {
        self.per_node.values().map(|r| r.evaluation.cycles).sum()
    }

    /// Total modeled energy in pJ across all planned nodes.
    pub fn total_energy_pj(&self) -> f64 {
        self.per_node
            .values()
            .map(|r| r.evaluation.energy.total_pj())
            .sum()
    }

    /// FNV-1a 64 fingerprint of the plan's *schedule* — graph name plus every
    /// node's chosen `(dataflow, layout)` pair, in node order. Two plans that
    /// fingerprint equal would lower to byte-identical compiled programs: it
    /// changes exactly when a co-search decision changes, not when modeled
    /// costs drift.
    pub fn fingerprint(&self) -> u64 {
        let mut text = format!("graph={}\n", self.graph_name);
        for (id, r) in &self.per_node {
            use std::fmt::Write;
            let _ = writeln!(
                text,
                "node={id} dataflow={} layout={}",
                r.dataflow, r.layout
            );
        }
        feather_arch::fingerprint::fnv1a64(text.as_bytes())
    }
}

/// Plans a whole tensor DAG for pipelined execution. See the
/// [module docs](self) for the algorithm and its parallel structure.
///
/// # Errors
/// Propagates the first per-layer co-search failure (e.g. no valid
/// (dataflow, layout) pair for a node, or a malformed graph).
pub fn plan_graph(
    arch: &ArchSpec,
    graph: &Graph,
    mapper: &MapperConfig,
    seed: u64,
    cache: &mut CoSearchCache,
) -> Result<GraphPlan, ArchError> {
    graph.validate()?;
    let hits_before = cache.hits();
    let misses_before = cache.misses();
    let segments = graph.segments();

    // The execution convolution of every conv-like node (GEMMs and pools as
    // their convolution lowerings).
    let convs: BTreeMap<NodeId, ConvLayer> = segments
        .iter()
        .flat_map(|s| s.nodes.iter())
        .map(|&id| {
            let conv = graph.node(id).execution_conv();
            (id, conv.expect("segments hold conv-like nodes"))
        })
        .collect();

    // Phase 1: compute every missing co-search table, concurrently across all
    // branches and layers of the graph.
    let keys = ensure_tables(arch, convs.values(), mapper, seed, cache)?;
    let tables: BTreeMap<NodeId, &CoSearchTable> = convs
        .keys()
        .zip(&keys)
        .map(|(&id, key)| {
            let table = cache.peek_table(key).expect("phase 1 computed every table");
            (id, table)
        })
        .collect();

    // Phase 2: one walk in node order, which is topological, so every
    // segment's input layout is known by the time its head node comes up.
    let head_of: BTreeMap<NodeId, _> = segments.iter().map(|s| (s.nodes[0], s)).collect();
    let mut tensor_layout: BTreeMap<TensorId, Layout> = BTreeMap::new();
    let mut per_node: BTreeMap<NodeId, CoSearchResult> = BTreeMap::new();
    for node in graph.nodes() {
        if node.op.is_add() {
            // A join forwards its main-path layout.
            if let Some(layout) = tensor_layout.get(&node.inputs[0]).cloned() {
                tensor_layout.insert(node.output, layout);
            }
        } else if let Some(seg) = head_of.get(&node.id) {
            let layers = seg
                .nodes
                .iter()
                .map(|id| (&*graph.node(*id).name, tables[id]));
            let planned = chain(arch, tensor_layout.get(&seg.input), layers)?;
            let last = planned.last().expect("segments are non-empty");
            tensor_layout.insert(seg.output, last.layout.clone());
            per_node.extend(seg.nodes.iter().copied().zip(planned));
        }
    }

    Ok(GraphPlan {
        graph_name: graph.name.clone(),
        per_node,
        segment_count: segments.len(),
        cache_hits: cache.hits() - hits_before,
        cache_misses: cache.misses() - misses_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosearch::{co_search_table, search_table, TableWork};
    use feather_arch::dataflow::ParallelDim;
    use feather_arch::dims::Dim;
    use feather_arch::fabric::{FeatherConfig, LayerMapping};
    use feather_arch::graph::resnet50_graph_scaled;
    use feather_memsim::{Banking, BufferSpec};

    fn branched_graph() -> Graph {
        let mut g = Graph::new("branched", [1, 8, 14, 14]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 16, 8, 14, 14, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        let main = g
            .conv(
                stem,
                ConvLayer::new(1, 16, 16, 14, 14, 3, 3)
                    .with_padding(1)
                    .with_name("main"),
            )
            .unwrap();
        let proj = g
            .conv(
                stem,
                ConvLayer::new(1, 16, 16, 14, 14, 1, 1).with_name("proj"),
            )
            .unwrap();
        let j = g.add(main, proj, "join").unwrap();
        // Same shape as `main` → its co-search table is reused.
        g.conv(
            j,
            ConvLayer::new(1, 16, 16, 14, 14, 3, 3)
                .with_padding(1)
                .with_name("head"),
        )
        .unwrap();
        g
    }

    #[test]
    fn plan_graph_covers_every_conv_like_node() {
        let g = branched_graph();
        let arch = ArchSpec::feather_like(16, 16);
        let mut cache = CoSearchCache::new();
        let plan = plan_graph(&arch, &g, &MapperConfig::fast(), 0, &mut cache).unwrap();
        assert_eq!(plan.per_node.len(), 4);
        assert_eq!(plan.segment_count, 4);
        assert_eq!(plan.schedules().len(), 4);
        assert!(plan.total_cycles() > 0);
        assert!(plan.total_energy_pj() > 0.0);
        // `head` repeats `main`'s shape: one of the four searches is a hit.
        assert_eq!(plan.cache_misses, 3);
        assert_eq!(plan.cache_hits, 1);
    }

    #[test]
    fn plan_graph_is_deterministic_and_warm_cache_hits() {
        let g = branched_graph();
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let mut cache = CoSearchCache::new();
        let cold = plan_graph(&arch, &g, &mapper, 0, &mut cache).unwrap();
        let warm = plan_graph(&arch, &g, &mapper, 0, &mut cache).unwrap();
        assert_eq!(cold.per_node, warm.per_node);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, 4);
    }

    #[test]
    fn fingerprint_tracks_schedule_not_costs() {
        let g = branched_graph();
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let mut cache = CoSearchCache::new();
        let cold = plan_graph(&arch, &g, &mapper, 0, &mut cache).unwrap();
        let warm = plan_graph(&arch, &g, &mapper, 0, &mut cache).unwrap();
        // Identical schedules fingerprint equal, cold or warm.
        assert_eq!(cold.fingerprint(), warm.fingerprint());

        // Changing a node's chosen layout must change the fingerprint even
        // when every modeled cost stays the same.
        let mut altered = cold.clone();
        let (&first, result) = altered.per_node.iter().next().unwrap();
        let mut result = result.clone();
        result.layout = if result.layout.to_string() == "HWC_C16" {
            "CHW_W16".parse().unwrap()
        } else {
            "HWC_C16".parse().unwrap()
        };
        altered.per_node.insert(first, result);
        assert_ne!(cold.fingerprint(), altered.fingerprint());

        // Cost drift alone (cycles, energy) leaves the fingerprint alone.
        let mut drifted = cold.clone();
        for r in drifted.per_node.values_mut() {
            r.evaluation.cycles += 1;
        }
        assert_eq!(cold.fingerprint(), drifted.fingerprint());
    }

    #[test]
    fn plan_graph_handles_resnet50_topology() {
        // The scaled graph keeps all 53 convs + 16 joins; shape repetition
        // across bottleneck blocks must collapse the search count.
        let g = resnet50_graph_scaled(16, 16);
        let arch = ArchSpec::feather_like(16, 16);
        let mut cache = CoSearchCache::new();
        let plan = plan_graph(&arch, &g, &MapperConfig::fast(), 0, &mut cache).unwrap();
        // 53 convs + 2 pools + 1 gemm.
        assert_eq!(plan.per_node.len(), 56);
        assert_eq!(plan.segment_count, 22);
        assert!(
            plan.cache_misses < 30,
            "expected heavy shape reuse, got {} misses",
            plan.cache_misses
        );
        assert_eq!(plan.cache_hits + plan.cache_misses, 56);
    }

    #[test]
    fn model_b_plan_is_pinned() {
        // The benchmark's `cold_start` plan. Its simulated cycles (gated at
        // bound 0) follow from this schedule, so a planner change that moves
        // a co-search decision has to fail here first.
        let g = resnet50_graph_scaled(8, 8);
        let arch = ArchSpec::feather_like(16, 16);
        let mut cache = CoSearchCache::new();
        let plan = plan_graph(&arch, &g, &MapperConfig::fast(), 0, &mut cache).unwrap();
        assert_eq!(plan.fingerprint(), 0x2605_bb24_d6d2_f58e);
        assert_eq!(plan.total_cycles(), 17701);
        assert_eq!((plan.cache_misses, plan.cache_hits), (26, 30));
    }

    #[test]
    fn model_b_tables_are_pinned() {
        // Every entry of the 26 tables behind `model_b_plan_is_pinned`, not
        // only the winners the plan selects: an FNV-1a hash of their Debug
        // forms, in key order.
        let g = resnet50_graph_scaled(8, 8);
        let (arch, mapper) = (ArchSpec::feather_like(16, 16), MapperConfig::fast());
        let mut cache = CoSearchCache::new();
        plan_graph(&arch, &g, &mapper, 0, &mut cache).unwrap();
        let keys = crate::cache::TableKeys::new(&arch, &mapper, 0);
        let tables: BTreeMap<String, &CoSearchTable> = g
            .nodes()
            .iter()
            .filter_map(|node| node.execution_conv())
            .map(|conv| {
                let key = keys.key(&conv);
                let table = cache.peek_table(&key).unwrap();
                (key, table)
            })
            .collect();
        assert_eq!(tables.len(), 26);
        let text = format!("{:?}", tables.values().collect::<Vec<_>>());
        assert_eq!(
            feather_arch::fingerprint::fnv1a64(text.as_bytes()),
            0x7d25_229c_c711_f445
        );
    }

    #[test]
    fn model_b_selections_are_pinned() {
        // What the tables behind `model_b_plan_is_pinned` answer, not how they
        // store it: each distinct layer of Model B, in node order, selected
        // for no predecessor and for every conv layout, hashed (FNV-1a) over
        // the answers' Debug forms. Off-chip reordering makes *switch*
        // differ from *stay*.
        let g = resnet50_graph_scaled(8, 8);
        let layouts = Layout::conv_candidates();
        let selections = |arch: &ArchSpec| {
            let mut seen: Vec<ConvLayer> = Vec::new();
            let mut text = String::new();
            for node in g.nodes() {
                let Some(conv) = node.execution_conv() else {
                    continue;
                };
                let shape = ConvLayer {
                    name: String::new(),
                    ..conv.clone()
                };
                if seen.contains(&shape) {
                    continue;
                }
                seen.push(shape);
                let table = co_search_table(arch, &conv, &MapperConfig::fast(), 0).unwrap();
                for prev in std::iter::once(None).chain(layouts.iter().map(Some)) {
                    text += &format!("{:?}\n", table.select(prev));
                }
            }
            (
                seen.len(),
                feather_arch::fingerprint::fnv1a64(text.as_bytes()),
            )
        };
        let feather = selections(&ArchSpec::feather_like(16, 16));
        assert_eq!(feather, (26, 0x7274_d08b_9c4a_ae45));
        let offchip = selections(&ArchSpec::sigma_like_offchip_reorder(16, 16));
        assert_eq!(offchip, (26, 0xa8bc_63ed_ea2f_d172));
    }

    #[test]
    fn model_b_tables_price_only_candidates_whose_floor_can_win() {
        // The branch and bound of `co_search_table` over Model B's 26
        // distinct tables: how many of the mapper's valid dataflows get their
        // reads sampled, analysed and priced. A search that quietly stops
        // pruning (or prunes a candidate that could win, which the table pin
        // above catches) moves this.
        let g = resnet50_graph_scaled(8, 8);
        let (arch, mapper) = (ArchSpec::feather_like(16, 16), MapperConfig::fast());
        let keys = crate::cache::TableKeys::new(&arch, &mapper, 0);
        let workloads: BTreeMap<String, ConvLayer> = g
            .nodes()
            .iter()
            .filter_map(|node| node.execution_conv())
            .map(|conv| (keys.key(&conv), conv))
            .collect();
        assert_eq!(workloads.len(), 26);
        let mut total = TableWork {
            candidates: 0,
            priced: 0,
        };
        for workload in workloads.values() {
            let (_, work) = search_table(&arch, workload, &mapper, 0).unwrap();
            total.candidates += work.candidates;
            total.priced += work.priced;
        }
        let expected = TableWork {
            candidates: 780,
            priced: 138,
        };
        assert_eq!(total, expected);
    }

    /// A dataflow's spatial factors per dimension, one list per array side,
    /// with unit factors dropped: what the array runs, whatever the name.
    fn spatial_factors(df: &Dataflow) -> [BTreeMap<Dim, usize>; 2] {
        let side = |dims: &[ParallelDim]| {
            let mut factors = BTreeMap::new();
            for p in dims.iter().filter(|p| p.factor > 1) {
                *factors.entry(p.dim).or_insert(1) *= p.factor;
            }
            factors
        };
        [side(&df.row_parallel), side(&df.col_parallel)]
    }

    /// How far the plan is from the machine once the planner's line is the
    /// array's own: Models A and B planned with `cols`-wide lines and layout
    /// candidates (one bank, two read and two write ports), every node
    /// projected onto the controller through `LayerMapping::from_dataflow`.
    /// Counted are the nodes whose projection errs and those whose `M`-row
    /// and `C`/`Q`-column factors differ from the planned dataflow's (the
    /// projection's clamp), and among those the ones left on a single PE.
    /// The count sizes the work of making the plan reach the machine; the
    /// plan `feather_like` makes today never does (standing finding 1).
    #[test]
    fn cols_wide_plans_change_in_projection_on_this_many_nodes() {
        let count = |g: &Graph, config: FeatherConfig| {
            let cols = config.cols;
            let candidates = [
                "HWC_C16",
                "HWC_W16",
                "HWC_H16",
                "HWC_C4W4",
                "HWC_C4H4",
                "HWC_W4H4",
                "HWC_C4W2H2",
            ];
            let arch = ArchSpec {
                activation_buffer: BufferSpec::new(
                    128 * 1024 / cols,
                    cols,
                    1,
                    Banking::VerticalBlocked,
                )
                .with_ports(2, 2),
                layouts: candidates.iter().map(|s| s.parse().unwrap()).collect(),
                ..ArchSpec::feather_like(config.rows, cols)
            };
            let plan = plan_graph(
                &arch,
                g,
                &MapperConfig::fast(),
                0,
                &mut CoSearchCache::new(),
            )
            .unwrap();
            assert_eq!(plan.per_node.len(), 56);
            let (mut errs, mut changed, mut one_pe) = (0, 0, 0);
            for (&id, r) in &plan.per_node {
                assert_eq!(r.layout.line_size(), cols, "{id}: {}", r.layout);
                let conv = g.node(id).execution_conv().unwrap();
                let oact = format!("MPQ_Q{}", conv.output_width().min(cols))
                    .parse()
                    .unwrap();
                let projected = LayerMapping::from_dataflow(
                    &conv,
                    &config,
                    &r.dataflow,
                    r.layout.clone(),
                    oact,
                );
                match projected {
                    Err(_) => errs += 1,
                    Ok(m) => {
                        let runs = m.as_dataflow(&config);
                        if spatial_factors(&runs) != spatial_factors(&r.dataflow) {
                            changed += 1;
                            one_pe += usize::from(runs.mapped_pes() == 1);
                        }
                    }
                }
            }
            (errs, changed, one_pe)
        };
        let a = count(&resnet50_graph_scaled(16, 16), FeatherConfig::new(8, 16));
        let b = count(&resnet50_graph_scaled(8, 8), FeatherConfig::new(16, 16));
        // Model A: nine nodes clamped onto one PE; Model B: none changes.
        assert_eq!((a, b), ((0, 9, 9), (0, 0, 0)));
    }
}
