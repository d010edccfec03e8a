//! Memoization of co-search tables.
//!
//! Real networks repeat layer shapes heavily — ResNet-50's 53 convolutions
//! collapse to ~20 distinct shapes, and BERT's 360 GEMMs to 5 — so a
//! per-(layer-shape, arch) cache turns a full-network co-search into a handful
//! of unique searches plus lookups. The cache key deliberately ignores layer
//! *names*: two layers with identical dimensions, stride, padding and kind on
//! the same architecture with the same mapper settings and seed are the same
//! search problem — whatever layouts their predecessors chose, because a
//! [`CoSearchTable`] answers for every predecessor at once.
//!
//! The cache lives in memory only. A table is a pure function of its key,
//! so a new process recomputes the tables it needs.

use std::collections::BTreeMap;

use feather_arch::workload::ConvLayer;

use crate::arch::ArchSpec;
use crate::cosearch::CoSearchTable;
use crate::mapper::MapperConfig;

/// The name-agnostic signatures of co-search table problems on one
/// (architecture, mapper settings, seed): the parts of every key that do
/// not depend on the layer, formatted once.
pub(crate) struct TableKeys {
    head: String,
    tail: String,
}

impl TableKeys {
    /// Formats the layer-independent parts of the keys.
    pub(crate) fn new(arch: &ArchSpec, mapper: &MapperConfig, seed: u64) -> Self {
        // The whole arch spec and mapper config (Debug form) are part of the
        // key, not just names or selected fields: several ArchSpec
        // constructors reuse one name across array sizes (e.g.
        // "SIGMA-like-HWC_C32" at 16x16 and 32x32), and every public field —
        // buffer organization, bandwidth, policies, energy constants,
        // candidate budgets — feeds the evaluation. Debug keeps the key in
        // sync when fields are added later.
        TableKeys {
            head: format!("{arch:?}|"),
            tail: format!("|{mapper:?}|seed{seed}"),
        }
    }

    /// The key of `c`'s table: `{arch:?}|{shape}|{mapper:?}|seed{seed}`.
    pub(crate) fn key(&self, c: &ConvLayer) -> String {
        let shape = format!(
            "conv:n{}m{}c{}h{}w{}r{}s{}st{}p{}k{:?}",
            c.n, c.m, c.c, c.h, c.w, c.r, c.s, c.stride, c.padding, c.kind
        );
        [self.head.as_str(), &shape, &self.tail].concat()
    }
}

/// A memo of whole [`CoSearchTable`]s, keyed by (architecture, layer shape,
/// mapper settings, seed). A table answers the co-search for *every*
/// predecessor layout at once, so repeated shapes hit regardless of how the
/// chained predecessor layouts differ.
///
/// The cache only grows — a network contributes its distinct shapes
/// (ResNet-50 ≈ 20, BERT 5) — so a table the planners ensured is still
/// there when they chain through it.
#[derive(Debug, Clone, Default)]
pub struct CoSearchCache {
    tables: BTreeMap<String, CoSearchTable>,
    hits: u64,
    misses: u64,
}

impl CoSearchCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CoSearchCache::default()
    }

    /// Number of lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to run a fresh co-search.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of whole co-search tables stored.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Looks at a stored table without touching the hit/miss counters (the
    /// planners count at problem-collection time, before computing missing
    /// tables in parallel).
    pub(crate) fn peek_table(&self, key: &str) -> Option<&CoSearchTable> {
        self.tables.get(key)
    }

    /// Stores a computed table under its key ([`TableKeys::key`]).
    pub(crate) fn insert_table(&mut self, key: String, table: CoSearchTable) {
        self.tables.insert(key, table);
    }

    /// Records a lookup served from the cache (or from a table another layer
    /// of the same planning call is about to compute).
    pub(crate) fn record_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a lookup that needs a fresh co-search.
    pub(crate) fn record_miss(&mut self) {
        self.misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosearch::co_search_table;
    use feather_arch::workload::GemmLayer;

    fn table_key(
        arch: &ArchSpec,
        workload: &ConvLayer,
        mapper: &MapperConfig,
        seed: u64,
    ) -> String {
        TableKeys::new(arch, mapper, seed).key(workload)
    }

    #[test]
    fn a_key_is_the_whole_problem_in_debug_form() {
        let (arch, mapper) = (ArchSpec::feather_like(16, 16), MapperConfig::fast());
        // A GEMM is keyed as the 1×1 convolution it is priced as.
        let gemm = GemmLayer::new(3, 4, 5).as_conv();
        let expected = format!("{arch:?}|conv:n1m3c4h1w5r1s1st1p0kPointwise|{mapper:?}|seed9");
        assert_eq!(table_key(&arch, &gemm, &mapper, 9), expected);
        let conv = layer("any");
        let expected = format!("{arch:?}|conv:n1m32c16h14w14r3s3st1p1kStandard|{mapper:?}|seed0");
        assert_eq!(table_key(&arch, &conv, &mapper, 0), expected);
    }

    fn layer(name: &str) -> ConvLayer {
        ConvLayer::new(1, 32, 16, 14, 14, 3, 3)
            .with_padding(1)
            .with_name(name)
    }

    /// A cache holding `workload`'s table for (`arch`, `mapper`, seed 0).
    fn cache_with(arch: &ArchSpec, workload: &ConvLayer, mapper: &MapperConfig) -> CoSearchCache {
        let mut cache = CoSearchCache::new();
        let table = co_search_table(arch, workload, mapper, 0).unwrap();
        cache.insert_table(table_key(arch, workload, mapper, 0), table);
        cache
    }

    #[test]
    fn same_shape_different_name_hits() {
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let a = layer("a");
        assert!(CoSearchCache::new()
            .peek_table(&table_key(&arch, &a, &mapper, 0))
            .is_none());
        let cache = cache_with(&arch, &a, &mapper);

        let b = layer("b");
        cache
            .peek_table(&table_key(&arch, &b, &mapper, 0))
            .expect("the key ignores the layer name");
        assert_eq!(cache.table_count(), 1);
        // A different seed or architecture is a different problem.
        assert!(cache
            .peek_table(&table_key(&arch, &b, &mapper, 1))
            .is_none());
        let sigma = ArchSpec::sigma_like_fixed_layout(16, 16, "HWC_C32");
        assert!(cache
            .peek_table(&table_key(&sigma, &b, &mapper, 0))
            .is_none());
    }

    #[test]
    fn different_mapper_settings_miss() {
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = layer("a");
        let cache = cache_with(&arch, &w, &mapper);
        let mut tweaked = mapper;
        tweaked.max_candidates += 1;
        assert!(cache
            .peek_table(&table_key(&arch, &w, &tweaked, 0))
            .is_none());
        assert!(cache
            .peek_table(&table_key(&arch, &w, &mapper, 0))
            .is_some());
    }

    #[test]
    fn same_name_different_spec_misses() {
        // Several constructors reuse one name across array sizes, and specs
        // are freely mutable; the full spec is part of the key so differing
        // specs must not alias.
        let small = ArchSpec::sigma_like_fixed_layout(16, 16, "HWC_C32");
        let large = ArchSpec::sigma_like_fixed_layout(32, 32, "HWC_C32");
        assert_eq!(small.name, large.name);
        let mapper = MapperConfig::fast();
        let w = layer("a");
        let cache = cache_with(&small, &w, &mapper);
        assert!(cache
            .peek_table(&table_key(&large, &w, &mapper, 0))
            .is_none());
        // Same name and shape but a tweaked field also misses.
        let mut tweaked = small.clone();
        tweaked.dram_bandwidth_bytes_per_cycle *= 2.0;
        assert!(cache
            .peek_table(&table_key(&tweaked, &w, &mapper, 0))
            .is_none());
        // The untouched spec still hits.
        assert!(cache
            .peek_table(&table_key(&small, &w, &mapper, 0))
            .is_some());
    }
}
