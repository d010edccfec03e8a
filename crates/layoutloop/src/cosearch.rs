//! (Dataflow, layout) co-search — the paper's per-layer exploration flow
//! (§V, §VI-A.2): exhaustively sweep the layout candidates, search dataflows
//! under each, and keep the pair with the lowest energy-delay product.
//!
//! What each part of a candidate's cost depends on decides how often it is
//! computed ([`co_search_table`]):
//!
//! * the **dataflow only** — validity, which the mapper settles
//!   ([`search_dataflows`] returns only valid candidates), the *read
//!   signature* (what the buffer sees of its sampled cycles) and the pricing
//!   terms no layout changes (ideal cycles, operand bytes, compute / NoC /
//!   register energy, spatial utilization): once per dataflow;
//! * the **read signature only** — each sampled cycle's per-dimension value
//!   sets: once per distinct signature, which dataflows share when they
//!   differ only where the buffer cannot see it (how they place `M`);
//! * the **layout only** — each iAct value's line digit: once per layout;
//! * the **(signature, layout) pair** — the bank-conflict analysis joining
//!   the two, which counts each sampled cycle's lines per dimension, not per
//!   lane (the architecture's buffer is one whose conflicts that count
//!   decides, or the search refuses it): once per pair, then priced for
//!   every dataflow of the signature;
//! * the **predecessor layout only** — nothing but the reorder price: *stay*
//!   and *switch* are two pricings of that one analysis, and one under RIR,
//!   whose reorder changes no term.
//!
//! Most candidates need none of the per-signature work: a dataflow's
//! *floor*, its pricing of the least analysis any layout can produce
//! (`AccessAnalysis::floor`), already loses to every layout's best so far,
//! so [`co_search_table`] samples and analyses only the reads of candidates
//! whose floor can still win (branch and bound).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use feather_arch::dataflow::Dataflow;
use feather_arch::layout::Layout;
use feather_arch::models::Network;
use feather_arch::workload::Workload;
use feather_arch::ArchError;
use serde::{Deserialize, Serialize};

use crate::access::{iact_plan, AccessAnalysis, ReadSignature, SampledReads};
use crate::arch::ArchSpec;
use crate::cache::{CoSearchCache, TableKeys};
use crate::evaluate::{DataflowCost, Evaluation, ACCESS_SAMPLES};
use crate::mapper::{search_dataflows, MapperConfig};

/// The winning (dataflow, layout) pair for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoSearchResult {
    /// The chosen dataflow.
    pub dataflow: Dataflow,
    /// The chosen iAct layout.
    pub layout: Layout,
    /// Its evaluation, which the dataflow and layout above name.
    pub evaluation: Evaluation,
}

/// Co-searches one layer with default mapper settings and no predecessor
/// layout constraint.
///
/// # Errors
/// Returns an error if no candidate (dataflow, layout) pair is valid for the
/// workload (e.g. the workload itself is malformed).
pub fn co_search(
    arch: &ArchSpec,
    workload: &Workload,
    seed: u64,
) -> Result<CoSearchResult, ArchError> {
    co_search_with(arch, workload, None, &MapperConfig::default(), seed)
}

/// Co-searches one layer with explicit mapper settings and the layout the
/// previous layer left its activations in.
///
/// # Errors
/// Returns an error if no candidate (dataflow, layout) pair is valid.
pub fn co_search_with(
    arch: &ArchSpec,
    workload: &Workload,
    prev_layout: Option<&Layout>,
    mapper: &MapperConfig,
    seed: u64,
) -> Result<CoSearchResult, ArchError> {
    let table = co_search_table(arch, workload, mapper, seed)?;
    let mut chained = chain(arch, prev_layout, [(workload.name(), &table)])?;
    Ok(chained.pop().expect("one layer in, one result out"))
}

/// The chaining pass of every planner: answers each `(layer name, table)` in
/// order, with the layout the previous layer chose — `prev` for the first —
/// as its predecessor constraint.
///
/// # Errors
/// The first layer whose table holds no valid (dataflow, layout) pair.
pub(crate) fn chain<'t>(
    arch: &ArchSpec,
    prev: Option<&Layout>,
    layers: impl IntoIterator<Item = (&'t str, &'t CoSearchTable)>,
) -> Result<Vec<CoSearchResult>, ArchError> {
    let mut prev = prev.cloned();
    layers
        .into_iter()
        .map(|(name, table)| {
            let result = table.select(prev.as_ref()).ok_or_else(|| {
                ArchError::InvalidDataflow(format!(
                    "no valid (dataflow, layout) pair found for layer `{name}` on {}",
                    arch.name
                ))
            })?;
            prev = Some(result.layout.clone());
            Ok(result)
        })
        .collect()
}

/// Best dataflow for one candidate layout, priced under both possible
/// predecessor relations. The cost model consults the predecessor layout only
/// through the boolean `prev != layout`, so two pricings per `(dataflow,
/// layout)` pair — *stay* (no reorder needed) and *switch* (reorder penalty
/// applied) — answer the co-search exhaustively for **every** possible
/// predecessor. This is what makes layer-parallel planning exact: tables are
/// predecessor-independent and can be computed for all layers concurrently,
/// with the sequential layout-chaining pass reduced to cheap table lookups.
///
/// Each winner is an index into its table's dataflows and its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayoutChoice {
    /// The candidate iAct layout.
    pub(crate) layout: Layout,
    /// Best (dataflow index, evaluation) when the predecessor already
    /// produces `layout` (or there is no predecessor): no reorder cost.
    pub(crate) stay: (usize, Evaluation),
    /// Best (dataflow index, evaluation) when the predecessor produces any
    /// *other* layout: the architecture's reordering capability prices the
    /// conversion.
    pub(crate) switch: (usize, Evaluation),
}

/// The full per-layout answer table of one layer's co-search problem, for
/// every predecessor layout at once: per candidate layout that admits at
/// least one valid dataflow, its *stay* and *switch* winners, over one list
/// of the dataflows that win any of them. Tables are keyed by shape, not by
/// name, so one table answers every layer of its shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSearchTable {
    /// Each winning dataflow once, indexed by the choices.
    dataflows: Vec<Dataflow>,
    /// One entry per candidate layout that admits at least one valid dataflow.
    choices: Vec<LayoutChoice>,
}

impl CoSearchTable {
    /// Answers the co-search for a concrete predecessor constraint: per
    /// layout, pick the *stay* result when the predecessor matches (or is
    /// absent) and the *switch* result otherwise, then take the lowest-EDP
    /// layout, the first of equal ones. Only that answer is cloned out of the
    /// table.
    pub fn select(&self, prev: Option<&Layout>) -> Option<CoSearchResult> {
        let mut best: Option<(&Layout, &(usize, Evaluation))> = None;
        for choice in &self.choices {
            let candidate = match prev {
                Some(p) if *p != choice.layout => &choice.switch,
                _ => &choice.stay,
            };
            if best.map_or(true, |(_, (_, b))| candidate.1.edp < b.edp) {
                best = Some((&choice.layout, candidate));
            }
        }
        best.map(|(layout, &(i, evaluation))| CoSearchResult {
            dataflow: self.dataflows[i].clone(),
            layout: layout.clone(),
            evaluation,
        })
    }
}

/// Computes the full predecessor-independent [`CoSearchTable`] for one layer
/// on the calling thread: each `(read signature, layout)` pair is analysed
/// once, and each `(dataflow, layout)` pair priced in both predecessor
/// variants from its dataflow's terms, which are computed once.
///
/// Branch and bound: dataflows are visited in order of their *floor* — the
/// *stay* pricing of `AccessAnalysis::floor` — and one whose floor cannot
/// beat any (layout, stay | switch) slot is never sampled, analysed or
/// priced. That is exact because a pricing's `edp` never falls as the
/// analysis's `read_slowdown` or `avg_lines_per_cycle` grows
/// (`DataflowCost::price`), and no analysis goes below the floor's. Slots
/// compare `(edp, dataflow index)`, so each keeps the first of equal-EDP
/// candidates in dataflow order, as an in-order scan with a strict `<`.
///
/// # Errors
/// Returns an error if the workload or the architecture is malformed, an
/// activation buffer of several vertical banks included (its conflicts would
/// take the lines themselves, not their count). An empty table (no valid
/// pair at all) is reported at selection time.
pub fn co_search_table(
    arch: &ArchSpec,
    workload: &Workload,
    mapper: &MapperConfig,
    seed: u64,
) -> Result<CoSearchTable, ArchError> {
    search_table(arch, workload, mapper, seed).map(|(table, _)| table)
}

/// How much of one table's candidate space [`search_table`] priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableWork {
    /// Valid dataflows the mapper offered.
    pub candidates: usize,
    /// Of those, the ones whose reads were analysed and priced.
    pub priced: usize,
}

/// [`co_search_table`] with a count of the work it did.
pub(crate) fn search_table(
    arch: &ArchSpec,
    workload: &Workload,
    mapper: &MapperConfig,
    seed: u64,
) -> Result<(CoSearchTable, TableWork), ArchError> {
    workload.validate()?;
    arch.validate()?;
    let dataflows = search_dataflows(arch, workload, mapper);
    let layouts = &arch.layouts;
    let plans: Vec<_> = layouts.iter().map(|l| iact_plan(workload, l)).collect();
    let conflicts = arch.conflict_model();

    let costs: Vec<_> = dataflows
        .iter()
        .map(|df| DataflowCost::new(arch, workload, df))
        .collect();
    let floors: Vec<[f64; 2]> = dataflows
        .iter()
        .zip(&costs)
        .map(|(df, cost)| cost.price(&AccessAnalysis::floor(df)).map(|e| e.edp))
        .collect();
    // Cheapest floors first: they fill the slots early with low EDPs, which
    // most later floors cannot beat.
    let mut order: Vec<usize> = (0..dataflows.len()).collect();
    order.sort_by(|&a, &b| floors[a][0].total_cmp(&floors[b][0]));

    // Per layout, the best (dataflow index, evaluation) for [stay, switch].
    let mut best: Vec<[Option<(usize, Evaluation)>; 2]> = vec![[None, None]; layouts.len()];
    let beats = |edp: f64, i: usize, slot: &Option<(usize, Evaluation)>| {
        slot.as_ref()
            .map_or(true, |(j, b)| edp < b.edp || (edp == b.edp && i < *j))
    };
    // Per read signature, its analysis under every layout.
    let mut analyses: BTreeMap<ReadSignature, Vec<AccessAnalysis>> = BTreeMap::new();
    let mut priced = 0;
    for i in order {
        let open = best.iter().any(|slots| {
            slots
                .iter()
                .zip(floors[i])
                .any(|(slot, edp)| beats(edp, i, slot))
        });
        if !open {
            continue;
        }
        priced += 1;
        let signature = ReadSignature::new(workload, &dataflows[i], ACCESS_SAMPLES, seed);
        let per_layout = analyses.entry(signature).or_insert_with_key(|signature| {
            let reads = SampledReads::new(workload, signature);
            plans
                .iter()
                .map(|plan| reads.analyze(plan, &conflicts))
                .collect()
        });
        for (analysis, slots) in per_layout.iter().zip(&mut best) {
            for (slot, eval) in slots.iter_mut().zip(costs[i].price(analysis)) {
                if beats(eval.edp, i, slot) {
                    *slot = Some((i, eval));
                }
            }
        }
    }

    // The winners' dataflows, each once, in order of first win.
    let mut winners: Vec<usize> = Vec::new();
    let mut winner = |(i, evaluation): (usize, Evaluation)| {
        let k = winners.iter().position(|&w| w == i).unwrap_or_else(|| {
            winners.push(i);
            winners.len() - 1
        });
        (k, evaluation)
    };
    let choices = layouts
        .iter()
        .zip(best)
        .filter_map(|(layout, [stay, switch])| {
            let (stay, switch) = (stay?, switch?);
            Some(LayoutChoice {
                layout: layout.clone(),
                stay: winner(stay),
                switch: winner(switch),
            })
        })
        .collect();
    let work = TableWork {
        candidates: dataflows.len(),
        priced,
    };
    let table = CoSearchTable {
        dataflows: winners.iter().map(|&i| dataflows[i].clone()).collect(),
        choices,
    };
    Ok((table, work))
}

/// The per-layer (dataflow, layout) schedule a pipeline executor consumes,
/// produced by [`plan_network`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPlan {
    /// Network name the plan was produced for.
    pub network_name: String,
    /// Per-layer winners, in execution order; each layer's chosen layout was
    /// the next layer's predecessor constraint.
    pub per_layer: Vec<CoSearchResult>,
    /// Cache hits served while planning (repeated layer shapes).
    pub cache_hits: u64,
    /// Fresh co-searches run while planning.
    pub cache_misses: u64,
}

/// Plans a whole network: per-layer co-search with layout chaining — each
/// layer's chosen layout becomes the next layer's predecessor constraint, so
/// designs without free reordering pay the conversion cost whenever the
/// optimal layout changes between layers. The one planner of a flat
/// network; [`summarize`] totals what it returns.
///
/// Memoized through `cache` so repeated layer shapes (ResNet bottlenecks,
/// BERT encoder blocks) are searched once — regardless of the chained
/// predecessor layouts, because whole [`CoSearchTable`]s are cached. Missing
/// tables are computed in parallel across layers; the chaining pass is exact
/// either way, because tables are predecessor-independent: it returns,
/// layer for layer, what chaining [`co_search_with`] would. The same cache
/// can be shared across networks, architectures and repeated planning calls.
///
/// # Errors
/// Propagates the first per-layer co-search failure.
pub fn plan_network(
    arch: &ArchSpec,
    network: &Network,
    mapper: &MapperConfig,
    seed: u64,
    cache: &mut CoSearchCache,
) -> Result<NetworkPlan, ArchError> {
    let hits_before = cache.hits();
    let misses_before = cache.misses();
    let keys = ensure_tables(arch, network.layers.iter(), mapper, seed, cache)?;

    // Chaining pass: pure table lookups at this point.
    let tables = network.iter().zip(&keys).map(|(layer, key)| {
        let table = cache.peek_table(key);
        (layer.name(), table.expect("ensure_tables filled the cache"))
    });
    let per_layer = chain(arch, None, tables)?;
    Ok(NetworkPlan {
        network_name: network.name.clone(),
        per_layer,
        cache_hits: cache.hits() - hits_before,
        cache_misses: cache.misses() - misses_before,
    })
}

/// Makes sure the cache holds a [`CoSearchTable`] for every workload and
/// returns each workload's cache key, in input order. Counts one miss per
/// *distinct* missing shape and one hit per repeated or already-cached
/// lookup, then computes the missing tables concurrently. Nothing leaves a
/// live cache, so every table ensured here is there for the caller's
/// chaining pass.
///
/// # Errors
/// The first failing table in input order, whichever worker finished first.
pub(crate) fn ensure_tables<'a>(
    arch: &ArchSpec,
    workloads: impl Iterator<Item = &'a Workload>,
    mapper: &MapperConfig,
    seed: u64,
    cache: &mut CoSearchCache,
) -> Result<Vec<String>, ArchError> {
    let mut keys = Vec::new();
    let mut pending = BTreeSet::new();
    // (index into `keys`, workload) of each distinct missing table.
    let mut missing: Vec<(usize, &Workload)> = Vec::new();
    let table_keys = TableKeys::new(arch, mapper, seed);
    for workload in workloads {
        let key = table_keys.key(workload);
        if cache.peek_table(&key).is_some() || pending.contains(&key) {
            cache.record_hit();
        } else {
            cache.record_miss();
            pending.insert(key.clone());
            missing.push((keys.len(), workload));
        }
        keys.push(key);
    }
    // The planner's one level of threads, a worker per core (the caller is
    // one). Table costs differ tenfold, so each takes the next missing one;
    // `next` publishes no data (tables come back through `join`): Relaxed.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(missing.len());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(_, workload)) = missing.get(i) else {
                return done;
            };
            done.push((i, co_search_table(arch, workload, mapper, seed)));
        }
    };
    let mut computed = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("plan worker panicked"));
        }
        done
    });
    computed.sort_unstable_by_key(|&(i, _)| i);
    for (&(k, _), (_, table)) in missing.iter().zip(computed) {
        cache.insert_table(keys[k].clone(), table?);
    }
    Ok(keys)
}

/// Aggregate metrics over a network co-search (geometric means, the statistics
/// reported in Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkSummary {
    /// Total cycles across all layers.
    pub total_cycles: u64,
    /// Total energy in pJ.
    pub total_energy_pj: f64,
    /// Energy per MAC in pJ (total energy / total MACs).
    pub pj_per_mac: f64,
    /// Average steady-state utilization (MAC-weighted).
    pub avg_utilization: f64,
    /// Total cycles lost to bank conflicts.
    pub total_stall_cycles: u64,
    /// Total exposed reorder cycles.
    pub total_reorder_cycles: u64,
}

/// Summarizes per-layer results into network-level statistics.
pub fn summarize(network: &Network, results: &[CoSearchResult]) -> NetworkSummary {
    let total_macs: u64 = network.iter().map(|l| l.macs()).sum();
    let total_cycles: u64 = results.iter().map(|r| r.evaluation.cycles).sum();
    let total_energy_pj: f64 = results.iter().map(|r| r.evaluation.energy.total_pj()).sum();
    let total_stall_cycles: u64 = results.iter().map(|r| r.evaluation.stall_cycles).sum();
    let total_reorder_cycles: u64 = results.iter().map(|r| r.evaluation.reorder_cycles).sum();
    let weighted_util: f64 = results
        .iter()
        .zip(network.iter())
        .map(|(r, l)| r.evaluation.utilization * l.macs() as f64)
        .sum::<f64>()
        / total_macs.max(1) as f64;
    NetworkSummary {
        total_cycles,
        total_energy_pj,
        pj_per_mac: total_energy_pj / total_macs.max(1) as f64,
        avg_utilization: weighted_util,
        total_stall_cycles,
        total_reorder_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{iact_plan, IactPlan, ReadSignature, SampledReads};
    use crate::evaluate::evaluate;
    use crate::graphplan::plan_graph;
    use feather_arch::graph::Graph;
    use feather_arch::models::{bert_base, mobilenet_v3, resnet50, Network};
    use feather_arch::workload::{ConvLayer, GemmLayer};
    use feather_memsim::{Banking, BufferSpec};
    use proptest::prelude::*;

    fn small_net() -> Network {
        Network::new(
            "tiny",
            vec![
                ConvLayer::new(1, 32, 3, 32, 32, 3, 3)
                    .with_padding(1)
                    .with_name("l0")
                    .into(),
                ConvLayer::new(1, 64, 32, 16, 16, 3, 3)
                    .with_padding(1)
                    .with_name("l1")
                    .into(),
                ConvLayer::new(1, 128, 64, 8, 8, 1, 1)
                    .with_name("l2")
                    .into(),
            ],
        )
    }

    #[test]
    fn feather_cosearch_finds_concordant_pair() {
        let arch = ArchSpec::feather_like(16, 16);
        let layer = ConvLayer::new(1, 128, 256, 14, 14, 3, 3)
            .with_padding(1)
            .into();
        let best = co_search(&arch, &layer, 0).unwrap();
        assert!(best.evaluation.conflict_slowdown <= 1.0 + 1e-9);
        assert!(best.evaluation.utilization > 0.9);
    }

    #[test]
    fn feather_beats_fixed_layout_sigma_on_edp() {
        // The whole point of the paper: arbitrary layout switching lets
        // FEATHER pick concordant pairs that fixed-layout designs cannot.
        let layer = ConvLayer::new(1, 64, 3, 112, 112, 7, 7)
            .with_stride(2)
            .with_padding(3)
            .into();
        let feather = ArchSpec::feather_like(16, 16);
        let sigma = ArchSpec::sigma_like_fixed_layout(16, 16, "HWC_C32");
        let f = co_search(&feather, &layer, 0).unwrap();
        let s = co_search(&sigma, &layer, 0).unwrap();
        assert!(
            f.evaluation.edp <= s.evaluation.edp * 1.0001,
            "feather {} vs sigma {}",
            f.evaluation.edp,
            s.evaluation.edp
        );
    }

    /// Tables checked by `check_table` in which two valid dataflows share a
    /// read signature, so the table reused an analysis.
    static SIGNATURE_HITS: AtomicUsize = AtomicUsize::new(0);

    /// First-best-wins over the public per-pair `evaluate`, in
    /// layout-then-dataflow order, with `prev` as every pair's predecessor.
    fn exhaustive(
        arch: &ArchSpec,
        workload: &Workload,
        dataflows: &[Dataflow],
        layouts: &[Layout],
        prev: Option<&Layout>,
        seed: u64,
    ) -> Option<CoSearchResult> {
        let mut best: Option<CoSearchResult> = None;
        for layout in layouts {
            for df in dataflows {
                let Ok(eval) = evaluate(arch, workload, df, layout, prev, seed) else {
                    continue;
                };
                if best.as_ref().map_or(true, |b| eval.edp < b.evaluation.edp) {
                    best = Some(CoSearchResult {
                        dataflow: df.clone(),
                        layout: layout.clone(),
                        evaluation: eval,
                    });
                }
            }
        }
        best
    }

    /// Every stay/switch entry of the table, and its answer (and
    /// `co_search_with`'s) for each kind of predecessor, must equal
    /// `exhaustive`: a table that shares an analysis between dataflows whose
    /// reads differ fails this. Returns the checked table.
    fn check_table(
        arch: &ArchSpec,
        workload: &Workload,
        mapper: &MapperConfig,
        seed: u64,
    ) -> Result<CoSearchTable, TestCaseError> {
        let dataflows = search_dataflows(arch, workload, mapper);
        let signatures: BTreeSet<ReadSignature> = dataflows
            .iter()
            .map(|df| ReadSignature::new(workload, df, ACCESS_SAMPLES, seed))
            .collect();
        if signatures.len() < dataflows.len() {
            SIGNATURE_HITS.fetch_add(1, Ordering::Relaxed);
        }

        let table = co_search_table(arch, workload, mapper, seed).unwrap();
        let layouts = &arch.layouts;
        let other_than = |layout: Option<&Layout>| {
            Layout::conv_candidates()
                .into_iter()
                .find(|l| Some(l) != layout)
                .unwrap()
        };
        let search = |layouts: &[Layout], prev: Option<&Layout>| {
            exhaustive(arch, workload, &dataflows, layouts, prev, seed)
        };
        // Every (layout, stay, switch) entry, as `select` answers it: a table
        // of that one entry answers a predecessor of the same layout with
        // *stay* and any other with *switch*.
        let entries: Vec<_> = table
            .choices
            .iter()
            .map(|choice| {
                let one = CoSearchTable {
                    choices: vec![choice.clone()],
                    ..table.clone()
                };
                let layout = &choice.layout;
                let other = other_than(Some(layout));
                let select = |prev| one.select(Some(prev)).unwrap();
                (layout.clone(), select(layout), select(&other))
            })
            .collect();
        let expected: Vec<_> = layouts
            .iter()
            .filter_map(|layout| {
                let one = std::slice::from_ref(layout);
                Some((
                    layout.clone(),
                    search(one, Some(layout))?,
                    search(one, Some(&other_than(Some(layout))))?,
                ))
            })
            .collect();
        prop_assert_eq!(entries, expected);
        let winner = table.select(None).map(|r| r.layout);
        let other = other_than(winner.as_ref());
        for prev in [None, winner.as_ref(), Some(&other)] {
            let best = search(layouts, prev);
            prop_assert_eq!(table.select(prev), best.clone());
            prop_assert_eq!(
                co_search_with(arch, workload, prev, mapper, seed).ok(),
                best
            );
        }
        Ok(table)
    }

    /// Splits the activation buffer into 8 vertical banks of 8 lines: the
    /// lines a read lands on would decide its conflicts, not how many it
    /// touches, so the co-search refuses the design.
    fn banked(mut arch: ArchSpec) -> ArchSpec {
        arch.activation_buffer = BufferSpec::new(64, 32, 8, Banking::VerticalBlocked);
        arch
    }

    /// Every design Fig. 13 plans (`feather_baselines::suite::fig13_suite`),
    /// at `rows × cols`: the fixed-layout designs, Eyeriss (buffered), SIGMA
    /// with off-chip reordering, the on-chip reorderers and FEATHER, whose
    /// GEMM column searches the GEMM layouts.
    fn fig13_presets(rows: usize, cols: usize, gemm: bool) -> Vec<ArchSpec> {
        let mut feather = ArchSpec::feather_like(rows, cols);
        if gemm {
            feather.layouts = Layout::gemm_candidates();
        }
        vec![
            ArchSpec::nvdla_like(rows, cols),
            ArchSpec::eyeriss_like(rows, cols),
            ArchSpec::sigma_like_fixed_layout(rows, cols, "HWC_C32"),
            ArchSpec::sigma_like_fixed_layout(rows, cols, "HWC_C4W8"),
            ArchSpec::sigma_like_offchip_reorder(rows, cols),
            ArchSpec::medusa_like(rows, cols),
            ArchSpec::mtia_like(rows, cols),
            ArchSpec::tpu_like(rows, cols),
            feather,
        ]
    }

    /// A conv or GEMM layer named `l`; the caller checks that it is valid.
    fn random_layer(
        gemm: bool,
        [n, m, c, h, w]: [usize; 5],
        kernel_pick: usize,
        stride: usize,
        padding: usize,
    ) -> Workload {
        let (r, s) = [(1, 1), (3, 3), (3, 1)][kernel_pick];
        if gemm {
            GemmLayer::new(m, c, h * w).with_name("l").into()
        } else {
            ConvLayer::new(n, m, c, h, w, r, s)
                .with_stride(stride)
                .with_padding(padding)
                .with_name("l")
                .into()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Called by `table_selection_equals_exhaustive_evaluation`.
        fn table_selection_cases(
            gemm in 0usize..2,
            n in 1usize..4,
            m in 1usize..40,
            c in 1usize..20,
            h in 1usize..8,
            w in 1usize..8,
            kernel_pick in 0usize..3,
            stride in 1usize..3,
            padding in 0usize..2,
            arch_pick in 0usize..9,
            shape_pick in 0usize..2,
            bank_pick in 0usize..2,
            mapper_pick in 0usize..2,
            seed in 0u64..1000,
        ) {
            let workload = random_layer(gemm == 1, [n, m, c, h, w], kernel_pick, stride, padding);
            prop_assume!(workload.validate().is_ok());
            let (rows, cols) = [(16, 16), (8, 8)][shape_pick];
            let arch = fig13_presets(rows, cols, gemm == 1).swap_remove(arch_pick);
            let mapper = [MapperConfig::fast(), MapperConfig::default()][mapper_pick];
            if bank_pick == 1 {
                let banked = banked(arch);
                let refused = co_search_table(&banked, &workload, &mapper, seed);
                prop_assert!(refused.is_err(), "{}", banked.name);
            } else {
                check_table(&arch, &workload, &mapper, seed)?;
            }
        }

        /// The precondition of the branch and bound in `co_search_table`:
        /// on every Fig. 13 design, no analysis goes below
        /// `AccessAnalysis::floor` in either field it prices, and no
        /// pricing — *stay* or *switch* — below the floor's; buffered
        /// designs price their floor exactly.
        #[test]
        fn every_pricing_is_at_least_its_floor(
            gemm in 0usize..2,
            n in 1usize..4,
            m in 1usize..40,
            c in 1usize..40,
            h in 1usize..12,
            w in 1usize..12,
            kernel_pick in 0usize..3,
            stride in 1usize..3,
            padding in 0usize..2,
            seed in 0u64..1000,
        ) {
            let workload = random_layer(gemm == 1, [n, m, c, h, w], kernel_pick, stride, padding);
            prop_assume!(workload.validate().is_ok());
            for arch in fig13_presets(16, 16, gemm == 1) {
                let plans: Vec<IactPlan> = arch
                    .layouts
                    .iter()
                    .map(|layout| iact_plan(&workload, layout))
                    .collect();
                let conflicts = arch.conflict_model();
                for df in search_dataflows(&arch, &workload, &MapperConfig::default()) {
                    let cost = DataflowCost::new(&arch, &workload, &df);
                    let least = AccessAnalysis::floor(&df);
                    let floor = cost.price(&least);
                    let signature = ReadSignature::new(&workload, &df, ACCESS_SAMPLES, seed);
                    let reads = SampledReads::new(&workload, &signature);
                    for plan in &plans {
                        let analysis = reads.analyze(plan, &conflicts);
                        prop_assert!(analysis.read_slowdown >= 1.0, "{:?}", analysis);
                        prop_assert!(analysis.avg_lines_per_cycle >= 1.0, "{:?}", analysis);
                        prop_assert_eq!(analysis.concurrent_reads, least.concurrent_reads);
                        for (real, floor) in cost.price(&analysis).iter().zip(&floor) {
                            prop_assert!(real.edp >= floor.edp, "{} on {}", df, arch.name);
                            if arch.is_buffered_distribution() {
                                prop_assert_eq!(real.edp, floor.edp);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn table_selection_equals_exhaustive_evaluation() {
        table_selection_cases();
        assert!(
            SIGNATURE_HITS.load(Ordering::Relaxed) > 0,
            "the memo never hit"
        );
        // Two corners random shapes almost never reach, where one part of the
        // signature alone tells two dataflows' reads apart. Batch bases: every
        // other iAct dim fits the array, so only `N` moves. `R` factors: R4
        // on the rows vs R3 on the columns (both two steps of `R`), and this
        // seed draws step 0 of `R` in every sampled cycle.
        let batch: Workload = ConvLayer::new(2, 3, 2, 2, 3, 1, 1).with_name("l").into();
        let feather = ArchSpec::feather_like(16, 16);
        check_table(&feather, &batch, &MapperConfig::default(), 0).unwrap();
        let tall: Workload = ConvLayer::new(1, 1, 1, 5, 2, 5, 2).with_name("l").into();
        let narrow = ArchSpec::feather_like(4, 3);
        check_table(&narrow, &tall, &MapperConfig::fast(), 10567).unwrap();
        // A full-size layer on every Fig. 13 design: most dataflows' floors
        // lose there and are never priced, and off-chip reordering makes
        // *switch* dearer than *stay*, so the predecessor matters.
        let wide: Workload = ConvLayer::new(1, 64, 32, 16, 16, 3, 3)
            .with_padding(1)
            .with_name("l1")
            .into();
        let mapper = MapperConfig::fast();
        for arch in fig13_presets(16, 16, false) {
            let table = check_table(&arch, &wide, &mapper, 0).unwrap();
            let (_, work) = search_table(&arch, &wide, &mapper, 0).unwrap();
            // A fixed dataflow is one candidate, which is always priced.
            let pruned = work.candidates == 1 || work.priced < work.candidates;
            assert!(pruned, "{}: {work:?}", arch.name);
            if arch.name == "SIGMA-like-offchip-reorder" {
                assert!(table.choices.iter().any(|c| c.stay != c.switch));
            }
        }
    }

    #[test]
    fn offchip_fig13_tables_are_pinned() {
        // Full-size layers of Fig. 13's networks on a design whose *switch*
        // differs from its *stay* (off-chip reordering), with the default
        // mapper: an FNV-1a hash of every table's Debug form.
        let arch = ArchSpec::sigma_like_offchip_reorder(16, 16);
        let layers: Vec<Workload> = [resnet50(), mobilenet_v3(), bert_base()]
            .into_iter()
            .flat_map(|net| net.layers.into_iter().step_by(17).take(3))
            .collect();
        let tables: Vec<CoSearchTable> = layers
            .iter()
            .map(|layer| co_search_table(&arch, layer, &MapperConfig::default(), 0).unwrap())
            .collect();
        assert!(tables
            .iter()
            .any(|t| t.choices.iter().any(|c| c.stay != c.switch)));
        let text = format!("{tables:?}");
        assert_eq!(
            feather_arch::fingerprint::fnv1a64(text.as_bytes()),
            0x8746_a5a6_ec08_8b9d
        );
    }

    #[test]
    fn capping_the_candidate_list_drops_no_winner() {
        // `MapperConfig::default()` caps a flexible design's candidates at
        // 128, dropping the last in enumeration order (two-dim pairs), not
        // the worst. On FEATHER at 16×16 and 32×32 over Fig. 13's networks,
        // two layers per size are capped; for every predecessor, each capped
        // table answers what the uncapped table answers.
        let nets = [resnet50(), mobilenet_v3(), bert_base()];
        let capped = MapperConfig::default();
        let uncapped = MapperConfig {
            max_candidates: usize::MAX,
            ..capped
        };
        for (size, expected) in [
            (16, ["mobv3_l25_b8_dw3x3", "mobv3_l28_b9_dw3x3"]),
            (32, ["mobv3_l00_stem", "mobv3_l01_b0_dw3x3"]),
        ] {
            let arch = ArchSpec::feather_like(size, size);
            let layers: Vec<&Workload> = nets
                .iter()
                .flat_map(|net| &net.layers)
                .filter(|layer| {
                    search_dataflows(&arch, layer, &uncapped).len() > capped.max_candidates
                })
                .collect();
            let names: Vec<&str> = layers.iter().map(|layer| layer.name()).collect();
            assert_eq!(names, expected, "{size}×{size}");
            let prevs = std::iter::once(None).chain(arch.layouts.iter().map(Some));
            for layer in layers {
                let table = |mapper| co_search_table(&arch, layer, mapper, 0).unwrap();
                let (short, full) = (table(&capped), table(&uncapped));
                for prev in prevs.clone() {
                    let name = layer.name();
                    let answer = short.select(prev);
                    assert_eq!(answer, full.select(prev), "{name} after {prev:?}");
                }
            }
        }
    }

    #[test]
    fn malformed_architectures_are_errors() {
        let conv = ConvLayer::new(1, 16, 16, 8, 8, 3, 3).with_padding(1);
        let layer: Workload = conv.clone().into();
        let mut graph = Graph::new("one_conv", [1, 16, 8, 8]);
        graph.conv(graph.input(), conv).unwrap();
        let base = ArchSpec::feather_like(16, 16);
        let layout = &base.layouts[0];
        let dataflow = search_dataflows(&base, &layer, &MapperConfig::fast())
            .into_iter()
            .find(|df| evaluate(&base, &layer, df, layout, None, 0).is_ok())
            .unwrap();
        type Breakage = (&'static str, fn(&mut ArchSpec));
        let cases: [Breakage; 9] = [
            ("num_lines", |a| {
                a.activation_buffer = BufferSpec::new(0, 32, 16, Banking::VerticalBlocked)
            }),
            ("num_banks", |a| a.activation_buffer.num_banks = 0),
            ("line_size", |a| a.activation_buffer.line_size = 0),
            ("read_ports", |a| a.activation_buffer.read_ports = 0),
            ("rows", |a| a.shape.rows = 0),
            ("cols", |a| a.shape.cols = 0),
            ("dram_bandwidth", |a| a.dram_bandwidth_bytes_per_cycle = 0.0),
            ("dram_bandwidth", |a| {
                a.dram_bandwidth_bytes_per_cycle = f64::NAN
            }),
            ("activation_buffer has 8 vertical banks", |a| {
                *a = banked(a.clone())
            }),
        ];
        let mapper = MapperConfig::fast();
        for (field, break_it) in cases {
            let mut arch = base.clone();
            break_it(&mut arch);
            let refusals = [
                co_search_table(&arch, &layer, &mapper, 0).err(),
                evaluate(&arch, &layer, &dataflow, layout, None, 0).err(),
                plan_graph(&arch, &graph, &mapper, 0, &mut CoSearchCache::new()).err(),
            ];
            for refusal in refusals {
                match refusal {
                    Some(ArchError::InvalidDataflow(msg)) => {
                        assert!(msg.contains(field), "{msg}");
                        assert!(msg.contains("architecture `FEATHER-16x16`"), "{msg}");
                    }
                    other => panic!("{field}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn plan_network_reports_the_first_failing_layer_in_input_order() {
        let mut layers = small_net().layers;
        layers.insert(
            1,
            ConvLayer::new(1, 0, 8, 8, 8, 1, 1).with_name("bad1").into(),
        );
        layers.insert(
            3,
            ConvLayer::new(1, 8, 0, 8, 8, 1, 1).with_name("bad3").into(),
        );
        let net = Network::new("two_bad", layers);
        let err = plan_network(
            &ArchSpec::feather_like(16, 16),
            &net,
            &MapperConfig::fast(),
            0,
            &mut CoSearchCache::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("`bad1`"), "{err}");
    }

    #[test]
    fn network_cosearch_chains_layouts() {
        let arch = ArchSpec::feather_like(16, 16);
        let net = small_net();
        let plan = plan_network(
            &arch,
            &net,
            &MapperConfig::fast(),
            0,
            &mut CoSearchCache::new(),
        );
        let results = plan.unwrap().per_layer;
        assert_eq!(results.len(), net.len());
        let summary = summarize(&net, &results);
        assert!(summary.total_cycles > 0);
        assert!(summary.avg_utilization > 0.0 && summary.avg_utilization <= 1.0);
        assert_eq!(summary.total_stall_cycles, 0);
    }

    #[test]
    fn plan_network_memoizes_repeated_shapes() {
        // Duplicate the 3-layer net back to back with fresh names: the second
        // half must be served from the cache (same shapes, same chained
        // predecessor layouts).
        let base = small_net();
        let mut layers = base.layers.clone();
        for (i, l) in base.layers.iter().enumerate() {
            if let feather_arch::workload::Workload::Conv(c) = l {
                layers.push(feather_arch::workload::Workload::Conv(
                    c.clone().with_name(format!("dup{i}")),
                ));
            }
        }
        // Make the duplicated run chainable cache-wise: shapes repeat, so
        // after the first layer of the duplicate block, prev layouts repeat
        // too whenever the search is deterministic.
        let net = Network::new("tiny_x2", layers);
        let arch = ArchSpec::feather_like(16, 16);
        let mut cache = CoSearchCache::new();
        let plan = plan_network(&arch, &net, &MapperConfig::fast(), 0, &mut cache).unwrap();
        assert_eq!(plan.per_layer.len(), net.len());
        assert!(plan.cache_hits >= 2, "hits: {}", plan.cache_hits);
        assert!(plan.cache_misses < net.len() as u64);
        // Re-planning the original network with the warm cache is all hits.
        let replan = plan_network(&arch, &base, &MapperConfig::fast(), 0, &mut cache).unwrap();
        assert_eq!(replan.cache_misses, 0);
        assert_eq!(replan.cache_hits, base.len() as u64);
    }

    #[test]
    fn fixed_layout_design_never_switches() {
        let arch = ArchSpec::nvdla_like(16, 16);
        let net = small_net();
        let plan = plan_network(
            &arch,
            &net,
            &MapperConfig::fast(),
            0,
            &mut CoSearchCache::new(),
        );
        let results = plan.unwrap().per_layer;
        let first = &results[0].layout;
        assert!(results.iter().all(|r| &r.layout == first));
        assert!(results.iter().all(|r| r.evaluation.reorder_cycles == 0));
    }

    #[test]
    fn nvdla_underutilizes_on_small_channel_layers() {
        let arch = ArchSpec::nvdla_like(16, 16);
        let layer = ConvLayer::new(1, 64, 3, 112, 112, 7, 7)
            .with_stride(2)
            .with_padding(3)
            .into();
        let result = co_search(&arch, &layer, 0).unwrap();
        // C = 3 across 16 columns → at most 3/16 of the array busy.
        assert!(result.evaluation.spatial_utilization < 0.25);
    }
}
