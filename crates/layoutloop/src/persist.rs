//! On-disk persistence of the co-search cache.
//!
//! The workspace's serde shim derives are no-ops (no registry access), so the
//! format here is deliberately hand-rolled: a line-based text file that is
//! trivially diffable and versioned by a header. A record is
//!
//! ```text
//! feather-cosearch-cache v1
//! T <escaped table key>
//! C <layout>
//! S <result tokens>      (the layout's best "stay" choice)
//! W <result tokens>      (the layout's best "switch" choice)
//! ```
//!
//! where result tokens are space-separated `key=value` pairs with the
//! separators percent-escaped. Unknown or malformed records are skipped on
//! load (a stale or corrupt cache degrades to recomputation, never to an
//! error), and a header mismatch discards the whole file. (Earlier v1
//! writers also emitted per-predecessor `E`/`R` record pairs; they are
//! unknown records now, and the tables of such a file still load.)
//!
//! The planner trusts what it finds in the cache, so loading is strict: every
//! value has exactly one spelling (a record is kept only if re-encoding what
//! it decoded to reproduces the line), a result no search can produce — a
//! zero factor, extent or array side, a non-finite or negative number — is
//! malformed, and one malformed record inside a table drops the whole table
//! rather than leaving the planner a shorter list of layouts to choose from.
//! A live cache never drops a table, so what bounds a file from outside is a
//! check here: no more than `MAX_LOADED_TABLES` (512) tables are taken from
//! one.
//!
//! Persistence is **gated behind the `FEATHER_CACHE_DIR` environment
//! variable**: [`CoSearchCache::load_persistent`] returns an empty cache and
//! [`CoSearchCache::save_persistent`] is a no-op unless it is set. The
//! benches and the `resnet50_graph` example call these at startup/exit, so
//! repeated runs skip every co-search they have seen before — across
//! processes, not just within one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use feather_arch::dataflow::{ArrayShape, Dataflow, LoopNest, ParallelDim, TemporalLoop};
use feather_arch::dims::Dim;
use feather_arch::energy::EnergyBreakdown;
use feather_arch::layout::Layout;

use crate::cache::CoSearchCache;
use crate::cosearch::{CoSearchResult, CoSearchTable, LayoutChoice};
use crate::evaluate::Evaluation;

/// File format header; bump the version when the encoding changes.
const HEADER: &str = "feather-cosearch-cache v1";

/// The most tables one file contributes. Comfortably above what this
/// process would have saved — a network has tens of distinct shapes
/// (ResNet-50 ≈ 20, BERT ≈ 4) — so only a foreign or damaged file meets it.
const MAX_LOADED_TABLES: usize = 512;

/// File name used inside `FEATHER_CACHE_DIR`.
const FILE_NAME: &str = "cosearch.cache";

/// The shared on-disk cache root, when `FEATHER_CACHE_DIR` is set.
///
/// All persisted FEATHER artifacts live under this one directory so a single
/// environment variable warms every layer of the stack:
///
/// ```text
/// $FEATHER_CACHE_DIR/
///   cosearch.cache            co-search tables (this module)
///   programs/
///     <model>-b<batch>-<fingerprint>.program
///                             compiled graph programs
///                             (`feather::GraphSession::compile_cached`)
/// ```
pub fn cache_dir() -> Option<PathBuf> {
    std::env::var_os("FEATHER_CACHE_DIR").map(PathBuf::from)
}

/// Percent-escapes the characters the format uses as separators.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3D"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(ch),
        }
    }
    out
}

/// Reverses [`esc`]; returns `None` on an escape that is not `%` followed by
/// two hex digits.
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '%' {
            out.push(ch);
            continue;
        }
        let hi = chars.next()?.to_digit(16)?;
        let lo = chars.next()?.to_digit(16)?;
        out.push(char::from((hi * 16 + lo) as u8));
    }
    Some(out)
}

/// [`unesc`] for a whole record body that must be in [`esc`]'s own spelling.
fn unesc_exact(body: &str) -> Option<String> {
    unesc(body).filter(|s| esc(s) == body)
}

fn encode_parallel(dims: &[ParallelDim]) -> String {
    if dims.is_empty() {
        return "-".to_string();
    }
    dims.iter()
        .map(|p| format!("{}:{}", p.dim, p.factor))
        .collect::<Vec<_>>()
        .join("+")
}

fn decode_parallel(s: &str) -> Option<Vec<ParallelDim>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split('+')
        .map(|tok| {
            let (dim, factor) = tok.split_once(':')?;
            Some(ParallelDim::new(
                dim.parse::<Dim>().ok()?,
                factor.parse().ok()?,
            ))
        })
        .collect()
}

fn encode_temporal(nest: &LoopNest) -> String {
    if nest.loops.is_empty() {
        return "-".to_string();
    }
    nest.loops
        .iter()
        .map(|l| format!("{}:{}", l.dim, l.extent))
        .collect::<Vec<_>>()
        .join("+")
}

fn decode_temporal(s: &str) -> Option<LoopNest> {
    if s == "-" {
        return Some(LoopNest::new([]));
    }
    let loops: Option<Vec<TemporalLoop>> = s
        .split('+')
        .map(|tok| {
            let (dim, extent) = tok.split_once(':')?;
            Some(TemporalLoop::new(
                dim.parse::<Dim>().ok()?,
                extent.parse().ok()?,
            ))
        })
        .collect();
    Some(LoopNest { loops: loops? })
}

/// Encodes one [`CoSearchResult`] as space-separated `key=value` tokens.
fn encode_result(r: &CoSearchResult) -> String {
    let df = &r.dataflow;
    let ev = &r.evaluation;
    let e = &ev.energy;
    [
        format!("df.name={}", esc(&df.name)),
        format!("df.shape={}x{}", df.shape.rows, df.shape.cols),
        format!("df.row={}", encode_parallel(&df.row_parallel)),
        format!("df.col={}", encode_parallel(&df.col_parallel)),
        format!("df.tmp={}", encode_temporal(&df.temporal)),
        format!("layout={}", esc(&r.layout.to_string())),
        format!("ev.arch={}", esc(&ev.arch)),
        format!("ev.layer={}", esc(&ev.layer)),
        format!("ev.dataflow={}", esc(&ev.dataflow)),
        format!("ev.layout={}", esc(&ev.layout)),
        format!("ev.cycles={}", ev.cycles),
        format!("ev.ideal={}", ev.ideal_cycles),
        format!("ev.conflict={:?}", ev.conflict_slowdown),
        format!("ev.stall={}", ev.stall_cycles),
        format!("ev.reorder={}", ev.reorder_cycles),
        format!("ev.sputil={:?}", ev.spatial_utilization),
        format!("ev.util={:?}", ev.utilization),
        format!("ev.lpc={:?}", ev.lines_per_cycle),
        format!("ev.redpj={:?}", ev.reorder_energy_pj),
        format!("ev.edp={:?}", ev.edp),
        format!(
            "ev.e={:?}+{:?}+{:?}+{:?}+{:?}+{:?}",
            e.compute_pj, e.register_pj, e.sram_pj, e.dram_pj, e.noc_pj, e.leakage_pj
        ),
    ]
    .join(" ")
}

/// The product of `sizes`, unless one is zero or the product overflows.
fn product(sizes: impl IntoIterator<Item = usize>) -> Option<usize> {
    sizes
        .into_iter()
        .try_fold(1usize, |acc, n| acc.checked_mul(n).filter(|&p| p > 0))
}

/// Decodes [`encode_result`] output; `None` on any malformed token, on a
/// result no search can produce, and on any spelling but `encode_result`'s.
fn decode_result(s: &str) -> Option<CoSearchResult> {
    let result = decode_tokens(s)?;
    let df = &result.dataflow;
    let ev = &result.evaluation;
    let e = &ev.energy;
    let fits = |dims: &[ParallelDim], side: usize| {
        product(dims.iter().map(|p| p.factor)).is_some_and(|lanes| lanes <= side)
    };
    let sizes_sane = product([df.shape.rows, df.shape.cols]).is_some()
        && fits(&df.row_parallel, df.shape.rows)
        && fits(&df.col_parallel, df.shape.cols)
        && product(df.temporal.loops.iter().map(|l| l.extent)).is_some()
        && product(result.layout.intraline.iter().map(|d| d.size)).is_some();
    let numbers_sane = [
        ev.conflict_slowdown,
        ev.spatial_utilization,
        ev.utilization,
        ev.lines_per_cycle,
        ev.reorder_energy_pj,
        ev.edp,
        e.compute_pj,
        e.register_pj,
        e.sram_pj,
        e.dram_pj,
        e.noc_pj,
        e.leakage_pj,
    ]
    .iter()
    .all(|x| x.is_finite() && x.is_sign_positive());
    (sizes_sane && numbers_sane && encode_result(&result) == s).then_some(result)
}

/// The grammar half of [`decode_result`]: every token present and parseable.
fn decode_tokens(s: &str) -> Option<CoSearchResult> {
    let tokens: Vec<(&str, &str)> = s
        .split(' ')
        .map(|tok| tok.split_once('='))
        .collect::<Option<_>>()?;
    let get = |wanted: &str| tokens.iter().find(|(k, _)| *k == wanted).map(|(_, v)| *v);
    let (rows, cols) = get("df.shape")?.split_once('x')?;
    let dataflow = Dataflow::new(
        unesc(get("df.name")?)?,
        ArrayShape::new(rows.parse().ok()?, cols.parse().ok()?),
        decode_parallel(get("df.row")?)?,
        decode_parallel(get("df.col")?)?,
        decode_temporal(get("df.tmp")?)?,
    );
    let layout: Layout = unesc(get("layout")?)?.parse().ok()?;
    let parts: Vec<f64> = get("ev.e")?
        .split('+')
        .map(|p| p.parse().ok())
        .collect::<Option<Vec<_>>>()?;
    let [compute_pj, register_pj, sram_pj, dram_pj, noc_pj, leakage_pj] = parts[..] else {
        return None;
    };
    let evaluation = Evaluation {
        arch: unesc(get("ev.arch")?)?,
        layer: unesc(get("ev.layer")?)?,
        dataflow: unesc(get("ev.dataflow")?)?,
        layout: unesc(get("ev.layout")?)?,
        cycles: get("ev.cycles")?.parse().ok()?,
        ideal_cycles: get("ev.ideal")?.parse().ok()?,
        conflict_slowdown: get("ev.conflict")?.parse().ok()?,
        stall_cycles: get("ev.stall")?.parse().ok()?,
        reorder_cycles: get("ev.reorder")?.parse().ok()?,
        spatial_utilization: get("ev.sputil")?.parse().ok()?,
        utilization: get("ev.util")?.parse().ok()?,
        lines_per_cycle: get("ev.lpc")?.parse().ok()?,
        energy: EnergyBreakdown {
            compute_pj,
            register_pj,
            sram_pj,
            dram_pj,
            noc_pj,
            leakage_pj,
        },
        reorder_energy_pj: get("ev.redpj")?.parse().ok()?,
        edp: get("ev.edp")?.parse().ok()?,
    };
    Some(CoSearchResult {
        dataflow,
        layout,
        evaluation,
    })
}

/// Writes `bytes` to a temporary sibling of `path` and renames it over
/// `path`: readers of a cache directory shared across processes see the old
/// file or the whole new one. The temporary name is unique per process and
/// call, so concurrent savers never share one. (`feather::Program::save_to`
/// keeps a private twin of this function; change them together.)
fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        // On disk before the rename makes it visible under `path`.
        file.sync_all()?;
        fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

impl CoSearchCache {
    /// Serializes the cache's tables to `path`.
    /// The file is written to a sibling temporary file and renamed over
    /// `path`: the v1 format cannot tell a file cut on a line boundary from
    /// a shorter cache, so a process loading the same path meanwhile must
    /// see the previous file or this one, never a prefix of it.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        write_atomically(path, self.render().as_bytes())
    }

    /// The file [`CoSearchCache::save_to`] writes.
    fn render(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, table) in self.table_entries() {
            out.push_str(&format!("T {}\n", esc(key)));
            for choice in &table.choices {
                out.push_str(&format!("C {}\n", esc(&choice.layout.to_string())));
                out.push_str(&format!("S {}\n", encode_result(&choice.stay)));
                out.push_str(&format!("W {}\n", encode_result(&choice.switch)));
            }
        }
        out
    }

    /// Loads a cache previously written by [`CoSearchCache::save_to`].
    /// Malformed records are skipped, tables past the first
    /// `MAX_LOADED_TABLES` (512) are ignored, and a header mismatch yields an
    /// empty cache. Hit/miss counters start at zero.
    ///
    /// # Errors
    /// Propagates filesystem errors (e.g. the file does not exist).
    pub fn load_from(path: &Path) -> io::Result<CoSearchCache> {
        Ok(Self::parse(&fs::read_to_string(path)?))
    }

    /// Decodes the text of a cache file, keeping what is well-formed.
    fn parse(text: &str) -> CoSearchCache {
        let mut cache = CoSearchCache::new();
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return cache;
        }
        let mut pending_table: Option<(String, CoSearchTable)> = None;
        let mut pending_choice: Option<(Layout, Option<CoSearchResult>)> = None;
        let flush_table = |cache: &mut CoSearchCache, table: Option<(String, CoSearchTable)>| {
            if let Some((key, table)) = table {
                if !table.choices.is_empty() && cache.table_count() < MAX_LOADED_TABLES {
                    cache.insert_table(key, table);
                }
            }
        };
        for line in lines {
            let Some((tag, body)) = line.split_once(' ') else {
                continue;
            };
            match tag {
                "T" => {
                    flush_table(&mut cache, pending_table.take());
                    pending_choice = None;
                    pending_table = unesc_exact(body).map(|key| (key, CoSearchTable::default()));
                }
                // A table record that does not decode takes its table with it.
                "C" => {
                    pending_choice = unesc_exact(body).and_then(|text| {
                        let layout = text.parse::<Layout>().ok()?;
                        (layout.to_string() == text).then_some((layout, None))
                    });
                    if pending_choice.is_none() {
                        pending_table = None;
                    }
                }
                "S" => match (pending_choice.as_mut(), decode_result(body)) {
                    (Some((_, stay @ None)), Some(result)) => *stay = Some(result),
                    _ => pending_table = None,
                },
                "W" => match (pending_choice.take(), decode_result(body)) {
                    (Some((layout, Some(stay))), Some(switch)) => {
                        if let Some((_, table)) = pending_table.as_mut() {
                            table.choices.push(LayoutChoice {
                                layout,
                                stay,
                                switch,
                            });
                        }
                    }
                    _ => pending_table = None,
                },
                _ => {}
            }
        }
        flush_table(&mut cache, pending_table.take());
        cache
    }

    /// The persistent cache file location, when `FEATHER_CACHE_DIR` is set.
    pub fn persistent_path() -> Option<PathBuf> {
        cache_dir().map(|dir| dir.join(FILE_NAME))
    }

    /// Loads the persistent cache if `FEATHER_CACHE_DIR` is set and holds
    /// one; an empty cache otherwise. Never errors — persistence is a pure
    /// accelerator.
    pub fn load_persistent() -> CoSearchCache {
        Self::persistent_path()
            .and_then(|path| Self::load_from(&path).ok())
            .unwrap_or_default()
    }

    /// Writes the cache to the persistent location. Returns `Ok(false)` when
    /// `FEATHER_CACHE_DIR` is unset (nothing written).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_persistent(&self) -> io::Result<bool> {
        match Self::persistent_path() {
            Some(path) => self.save_to(&path).map(|()| true),
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use crate::cosearch::{co_search_table, co_search_with};
    use crate::mapper::MapperConfig;
    use feather_arch::workload::{ConvLayer, Workload};

    fn workload() -> Workload {
        ConvLayer::new(1, 32, 16, 14, 14, 3, 3)
            .with_padding(1)
            .with_name("persist_layer")
            .into()
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "feather-persist-test-{name}-{}",
            std::process::id()
        ))
    }

    /// Serializes the two tests that touch `FEATHER_CACHE_DIR` (tests run
    /// concurrently within the crate).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn result_roundtrips_through_the_token_format() {
        let arch = ArchSpec::feather_like(16, 16);
        let result = co_search_with(&arch, &workload(), None, &MapperConfig::fast(), 0).unwrap();
        let decoded = decode_result(&encode_result(&result)).expect("decodes");
        assert_eq!(decoded, result);
    }

    #[test]
    fn escaping_roundtrips_awkward_strings() {
        for s in [
            "plain",
            "with space",
            "k=v",
            "a%20b",
            "tab\there",
            "nl\nhere",
        ] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
        // Malformed escapes are rejected, not mangled.
        assert_eq!(unesc("%2"), None);
        assert_eq!(unesc("%zz"), None);
        // `u8::from_str_radix` would take the sign and decode 0x0F.
        assert_eq!(unesc("%+f"), None);
        // A second spelling of an unescaped character is not `esc`'s.
        assert_eq!(unesc("%41").as_deref(), Some("A"));
        assert_eq!(unesc_exact("%41"), None);
        assert_eq!(unesc_exact("a%20b").as_deref(), Some("a b"));
    }

    /// A real result line with the value of token `key` replaced.
    fn with_token(line: &str, key: &str, value: &str) -> String {
        let tokens: Vec<String> = line
            .split(' ')
            .map(|tok| match tok.split_once('=') {
                Some((k, _)) if k == key => format!("{k}={value}"),
                _ => tok.to_string(),
            })
            .collect();
        assert!(tokens.iter().any(|t| t.starts_with(&format!("{key}="))));
        tokens.join(" ")
    }

    #[test]
    fn results_no_search_can_produce_are_malformed() {
        let arch = ArchSpec::feather_like(16, 16);
        let result = co_search_with(&arch, &workload(), None, &MapperConfig::fast(), 0).unwrap();
        let line = encode_result(&result);
        for (key, value) in [
            ("df.row", "C:0"),
            ("df.col", "M:4+C:0"),
            ("df.row", "M:4294967296+C:4294967296+M:4294967296"),
            ("df.row", "M:17"),
            ("df.shape", "0x0"),
            ("df.shape", "16x0"),
            ("df.shape", "4294967296x4294967296"),
            ("df.tmp", "C:0"),
            ("df.tmp", "P:14+Q:0"),
            ("layout", "HWC_C4294967296W4294967296H4294967296"),
            ("ev.conflict", "NaN"),
            ("ev.edp", "inf"),
            ("ev.edp", "-1.0"),
            ("ev.util", "-0.0"),
            ("ev.redpj", "1e999"),
            ("ev.e", "NaN+0.0+0.0+0.0+0.0+0.0"),
            ("ev.e", "0.0+0.0+0.0+0.0+0.0+-inf"),
            // Well-formed values in a second spelling.
            ("ev.cycles", "+7"),
            ("ev.stall", "007"),
            ("ev.lpc", "1e0"),
            ("df.name", "%77s"),
        ] {
            let hostile = with_token(&line, key, value);
            assert_eq!(decode_result(&hostile), None, "{key}={value} decoded");
        }
        // Unknown and repeated tokens have no place in the one spelling.
        assert_eq!(decode_result(&format!("{line} extra=1")), None);
        assert_eq!(decode_result(&format!("ev.cycles=1 {line}")), None);
        assert_eq!(decode_result(&line), Some(result));
    }

    /// A real saved cache, small enough to damage exhaustively: one table cut
    /// to its first layout.
    fn small_saved_cache() -> &'static str {
        static SAVED: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        SAVED.get_or_init(render_small_cache)
    }

    fn render_small_cache() -> String {
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let mut cache = CoSearchCache::new();
        let mut table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        table.choices.truncate(1);
        cache.insert_table(crate::cache::table_key(&arch, &w, &mapper, 0), table);
        cache.render()
    }

    /// Loads `bytes` as `load_from` would (a file that is not UTF-8 is an
    /// I/O error there) and checks that what loaded survives a save → load
    /// round trip unchanged. Returns how many tables loaded.
    fn load_and_roundtrip(bytes: &[u8]) -> usize {
        let Ok(text) = std::str::from_utf8(bytes) else {
            return 0;
        };
        let loaded = CoSearchCache::parse(text);
        let saved = loaded.render();
        assert_eq!(CoSearchCache::parse(&saved).render(), saved);
        loaded.table_count()
    }

    #[test]
    fn every_mutation_and_truncation_of_a_saved_cache_loads_cleanly() {
        let bytes = small_saved_cache().as_bytes();
        assert_eq!(load_and_roundtrip(bytes), 1);
        for at in 0..bytes.len() {
            // A bit flip (the next digit or letter), a separator, an escape
            // and a byte that leaves the file no longer UTF-8.
            for new in [bytes[at] ^ 1, b' ', b'%', 0xC3] {
                let mut mutated = bytes.to_vec();
                mutated[at] = new;
                assert!(load_and_roundtrip(&mutated) <= 1);
            }
            assert!(load_and_roundtrip(&bytes[..at]) <= 1);
        }
    }

    use proptest::prelude::*;

    /// Values the grammar's number, list and name positions might be fed.
    const EXTREMES: [&str; 24] = [
        "0",
        "1",
        "-1",
        "+1",
        "18446744073709551615",
        "18446744073709551616",
        "4294967296",
        "NaN",
        "inf",
        "-inf",
        "1e308",
        "1e309",
        "-0.0",
        "5e-324",
        "0x0",
        "16x16",
        "C:0",
        "M:4294967296+C:4294967296",
        "-",
        "",
        "%+f",
        "%",
        "HWC_C0",
        "HWC_C18446744073709551615W2",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_the_loader(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
            tags in proptest::collection::vec(0usize..8, 0..8),
        ) {
            load_and_roundtrip(&bytes);
            // Past the header, and cut into tagged records.
            let mut text = format!("{HEADER}\n").into_bytes();
            let mut chunks = bytes.chunks(bytes.len() / (tags.len() + 1) + 1);
            for tag in tags {
                text.extend_from_slice(["E ", "R ", "T ", "C ", "S ", "W ", "Q ", ""][tag].as_bytes());
                text.extend_from_slice(chunks.next().unwrap_or_default());
                text.push(b'\n');
            }
            load_and_roundtrip(&text);
        }

        #[test]
        fn the_grammars_own_tokens_with_extreme_values_load_cleanly(
            edits in proptest::collection::vec(0usize..1_000_000, 1..4),
            values in proptest::collection::vec(0usize..EXTREMES.len(), 3),
        ) {
            let mut lines: Vec<String> = small_saved_cache().lines().map(str::to_string).collect();
            for (edit, value) in edits.iter().zip(&values) {
                // Skip the header; replace one `key=value` token's value (or
                // the whole body of a key or layout line).
                let at = 1 + edit % (lines.len() - 1);
                let (tag, body) = lines[at].split_once(' ').expect("every record is tagged");
                let keys: Vec<&str> = body.split(' ').filter_map(|t| Some(t.split_once('=')?.0)).collect();
                let edited = match keys.get(edit / 1000 % keys.len().max(1)) {
                    Some(key) => with_token(&lines[at], key, EXTREMES[*value]),
                    None => format!("{tag} {}", EXTREMES[*value]),
                };
                lines[at] = edited;
            }
            load_and_roundtrip(lines.join("\n").as_bytes());
        }
    }

    #[test]
    fn cache_roundtrips_through_disk() {
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let mut cache = CoSearchCache::new();
        let table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        let key = crate::cache::table_key(&arch, &w, &mapper, 0);
        cache.insert_table(key.clone(), table.clone());

        let path = temp_path("roundtrip");
        cache.save_to(&path).unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.table_count(), 1);
        assert_eq!(loaded.peek_table(&key), Some(&table));
    }

    /// A file the previous v1 writer saved: a per-predecessor `E`/`R` pair
    /// ahead of the table, both under the key spelled out as that writer
    /// spelled it (empty predecessor slot included). The pair is skipped,
    /// the table loads and a fresh `plan_network` hits it.
    #[test]
    fn a_file_with_per_predecessor_records_still_loads_its_tables() {
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let key = format!("{arch:?}|conv:n1m32c16h14w14r3s3st1p1kStandard||{mapper:?}|seed0");
        let table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        let result = table.select(w.name(), None).unwrap();
        let mut tables = CoSearchCache::new();
        tables.insert_table(key.clone(), table);
        let text = tables.render().replacen(
            '\n',
            &format!("\nE {}\nR {}\n", esc(&key), encode_result(&result)),
            1,
        );
        assert!(text.starts_with(&format!("{HEADER}\nE ")));

        let mut loaded = CoSearchCache::parse(&text);
        assert_eq!(loaded.table_count(), 1);
        assert_eq!(loaded.render(), tables.render(), "no E/R on re-save");
        let net = feather_arch::models::Network::new("one", vec![w]);
        let plan = crate::cosearch::plan_network(&arch, &net, &mapper, 0, &mut loaded).unwrap();
        assert_eq!((plan.cache_hits, plan.cache_misses), (1, 0));
        assert_eq!(plan.per_layer, [result]);
    }

    /// A live cache never drops a table, so the loader bounds what a file
    /// from outside can make it hold.
    #[test]
    fn a_file_with_too_many_tables_loads_the_first_512() {
        let mut lines = small_saved_cache().lines();
        let (header, key) = (lines.next().unwrap(), lines.next().unwrap());
        let choice: Vec<&str> = lines.collect();
        let mut text = format!("{header}\n");
        for i in 0..MAX_LOADED_TABLES + 1 {
            text.push_str(&format!("{key}#{i}\n{}\n", choice.join("\n")));
        }
        let loaded = CoSearchCache::parse(&text);
        assert_eq!(loaded.table_count(), MAX_LOADED_TABLES);
        let last_kept = unesc(&key[2..]).unwrap() + &format!("#{}", MAX_LOADED_TABLES - 1);
        assert!(loaded.peek_table(&last_kept).is_some());
        assert_eq!(load_and_roundtrip(text.as_bytes()), MAX_LOADED_TABLES);
    }

    /// One `FEATHER_CACHE_DIR` serves several processes: a loader racing a
    /// saver finds no file or the whole cache — a prefix cut on a line
    /// boundary would load as a cache with fewer tables.
    #[test]
    fn a_loader_racing_a_saver_sees_no_file_or_the_whole_cache() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // As many tables as planning the benchmark's Model A leaves behind.
        const TABLES: usize = 26;
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        let key = crate::cache::table_key(&arch, &w, &mapper, 0);
        let mut cache = CoSearchCache::new();
        for i in 0..TABLES {
            cache.insert_table(format!("{key}#{i}"), table.clone());
        }

        let dir = temp_path("racing-saver");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join(FILE_NAME);
        let start = std::sync::Barrier::new(2);
        let saved = AtomicBool::new(false);
        let mut whole = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..40 {
                    cache.save_to(&path).unwrap();
                }
                saved.store(true, Ordering::SeqCst);
            });
            start.wait();
            while !saved.load(Ordering::SeqCst) {
                match CoSearchCache::load_from(&path) {
                    Ok(loaded) => {
                        assert_eq!(loaded.table_count(), TABLES, "a cut file loaded");
                        whole += 1;
                    }
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound, "{e}"),
                }
            }
        });
        assert!(whole > 0, "the loader never overlapped the saver");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(left, [FILE_NAME], "temporary files left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_mismatch_and_garbage_degrade_to_empty() {
        let path = temp_path("garbage");
        std::fs::write(&path, "something else entirely\nE x\nR y\n").unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        assert_eq!(loaded.table_count(), 0);
        // Right header, malformed records → skipped, not fatal.
        std::fs::write(&path, format!("{HEADER}\nE key\nR not-tokens\nQ ???\n")).unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        assert_eq!(loaded.table_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error_but_load_persistent_degrades() {
        let _guard = ENV_LOCK.lock().unwrap();
        assert!(CoSearchCache::load_from(&temp_path("never-written")).is_err());
        // Without FEATHER_CACHE_DIR the persistent helpers are inert.
        if std::env::var_os("FEATHER_CACHE_DIR").is_none() {
            assert!(CoSearchCache::persistent_path().is_none());
            assert_eq!(CoSearchCache::load_persistent().table_count(), 0);
            assert!(!CoSearchCache::new().save_persistent().unwrap());
        }
    }

    #[test]
    fn persistent_roundtrip_via_env_dir() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = temp_path("envdir");
        std::env::set_var("FEATHER_CACHE_DIR", &dir);
        let arch = ArchSpec::feather_like(16, 16);
        let mapper = MapperConfig::fast();
        let w = workload();
        let mut cache = CoSearchCache::new();
        let table = co_search_table(&arch, &w, &mapper, 0).unwrap();
        cache.insert_table(crate::cache::table_key(&arch, &w, &mapper, 0), table);
        assert!(cache.save_persistent().unwrap());
        let loaded = CoSearchCache::load_persistent();
        assert_eq!(loaded.table_count(), 1);
        std::env::remove_var("FEATHER_CACHE_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }
}
