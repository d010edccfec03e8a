//! Whole-graph (DAG) co-search planning: `plan_network` generalized from a
//! flat layer chain to a tensor DAG with branches and residual joins.
//!
//! The planner works per [`GraphSegment`]: every linear segment is planned
//! like a small network — each layer's chosen layout chains into the next
//! layer's predecessor constraint — and the layout context propagates across
//! segment boundaries, through joins (a join hands its *main-path* operand's
//! layout downstream; the shortcut operand is reordered into the consumer's
//! layout at the join itself, which RIR prices at zero for FEATHER).
//!
//! Both steps are exact because co-search tables are predecessor-independent
//! ([`crate::cosearch::LayoutChoice`]): all missing tables — across *every*
//! branch and layer of the graph — are computed concurrently, after which
//! the chaining passes are table lookups, run segment by segment in
//! dependency waves.

use std::collections::BTreeMap;

use feather_arch::dataflow::Dataflow;
use feather_arch::graph::{Graph, GraphSegment, NodeId, TensorId};
use feather_arch::layout::Layout;
use feather_arch::workload::Workload;
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

    // The execution workload of every conv-like node (GEMMs and pools as
    // their convolution lowerings).
    let workloads: BTreeMap<NodeId, Workload> = segments
        .iter()
        .flat_map(|s| s.nodes.iter())
        .map(|&id| {
            let conv = graph
                .node(id)
                .execution_conv()
                .expect("segments hold conv-like nodes");
            (id, Workload::Conv(conv))
        })
        .collect();

    // Phase 1: compute every missing co-search table, concurrently across all
    // branches and layers of the graph.
    let keys = ensure_tables(arch, workloads.values(), mapper, seed, cache)?;
    let tables: BTreeMap<NodeId, &CoSearchTable> = workloads
        .keys()
        .zip(&keys)
        .map(|(&id, key)| {
            let table = cache.peek_table(key).expect("phase 1 computed every table");
            (id, table)
        })
        .collect();

    // Phase 2: chain layouts per segment, in dependency waves (independent
    // branches share a wave).
    let (seg_levels, max_level) = segment_levels(graph, &segments);
    let mut tensor_layout: BTreeMap<TensorId, Layout> = BTreeMap::new();
    let mut per_node: BTreeMap<NodeId, CoSearchResult> = BTreeMap::new();
    for level in 0..=max_level {
        for seg in (0..segments.len())
            .filter(|&si| seg_levels[si] == level)
            .map(|si| &segments[si])
        {
            let layers = seg
                .nodes
                .iter()
                .map(|id| (&*graph.node(*id).name, tables[id]));
            let planned = chain(arch, tensor_layout.get(&seg.input), layers)?;
            let last = planned.last().expect("segments are non-empty");
            tensor_layout.insert(seg.output, last.layout.clone());
            per_node.extend(seg.nodes.iter().copied().zip(planned));
        }
        // Resolve joins whose operands are now planned (a join forwards its
        // main-path layout).
        loop {
            let mut changed = false;
            for node in graph.nodes() {
                if node.op.is_add() && !tensor_layout.contains_key(&node.output) {
                    if let Some(layout) = tensor_layout.get(&node.inputs[0]).cloned() {
                        tensor_layout.insert(node.output, layout);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
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

/// Dependency level of every segment: a segment's level is its input
/// tensor's level; a segment's output lands one level deeper; a join's output
/// sits at the deepest of its operands. Segments of equal level are
/// independent of each other.
fn segment_levels(graph: &Graph, segments: &[GraphSegment]) -> (Vec<usize>, usize) {
    let head_of: BTreeMap<NodeId, usize> = segments
        .iter()
        .enumerate()
        .map(|(i, s)| (s.nodes[0], i))
        .collect();
    let mut tensor_level: BTreeMap<TensorId, usize> = BTreeMap::new();
    tensor_level.insert(graph.input(), 0);
    let mut seg_levels = vec![0usize; segments.len()];
    let mut max_level = 0usize;
    for node in graph.nodes() {
        if node.op.is_add() {
            let level = node
                .inputs
                .iter()
                .map(|t| tensor_level[t])
                .max()
                .unwrap_or(0);
            tensor_level.insert(node.output, level);
        } else if let Some(&si) = head_of.get(&node.id) {
            let level = tensor_level[&segments[si].input];
            seg_levels[si] = level;
            max_level = max_level.max(level);
            tensor_level.insert(segments[si].output, level + 1);
            max_level = max_level.max(level + 1);
        }
    }
    (seg_levels, max_level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::graph::resnet50_graph_scaled;
    use feather_arch::workload::ConvLayer;

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
        // Results are labeled with node names.
        assert_eq!(plan.per_node[&NodeId(0)].evaluation.layer, "stem");
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
    fn segment_levels_put_branches_in_the_same_wave() {
        let g = branched_graph();
        let segments = g.segments();
        let (levels, max_level) = segment_levels(&g, &segments);
        // stem at level 0; main and proj both at level 1 (independent);
        // head at level 2.
        assert_eq!(levels, vec![0, 1, 1, 2]);
        assert_eq!(max_level, 3);
    }
}
