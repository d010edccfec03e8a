//! On-disk persistence of the co-search cache.
//!
//! The workspace's serde shim derives are no-ops (no registry access), so the
//! format here is deliberately hand-rolled: a line-based text file, trivially
//! diffable, sealed by [`feather_arch::codec`] (versioned header, whole-file
//! checksum trailer, atomic replacement). The body of a
//! `feather-cosearch-cache v2` file is, per table,
//!
//! ```text
//! T <escaped table key>
//! C <layout>             (then, for each of the table's layouts in turn)
//! S <result tokens>      (the layout's best "stay" choice)
//! W <result tokens>      (the layout's best "switch" choice)
//! ```
//!
//! where result tokens are space-separated `key=value` pairs with the
//! separators percent-escaped.
//!
//! The planner trusts what it finds in the cache, so a file loads whole or
//! not at all: a wrong header or checksum (a truncated, damaged, `v1` or
//! foreign file), a record out of place or one that does not decode makes it
//! an empty cache — recomputation, never an error — and
//! [`CoSearchCache::load_persistent`] sets the file aside as
//! `cosearch.cache.bad`. Decoding is strict: every value has exactly one
//! spelling (a record decodes only if re-encoding the result reproduces the
//! line), and a result no search can produce — a zero factor, extent or
//! array side, a non-finite or negative number — is malformed. A live cache
//! never drops a table, so what bounds a file from outside is a check here:
//! no more than `MAX_LOADED_TABLES` (512) tables are taken from one.
//!
//! Persistence is **gated behind the `FEATHER_CACHE_DIR` environment
//! variable**: [`CoSearchCache::load_persistent`] returns an empty cache and
//! [`CoSearchCache::save_persistent`] is a no-op unless it is set. The
//! `resnet50_graph` example calls these at startup/exit, so repeated runs
//! skip every co-search they have seen before — across processes, not just
//! within one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use feather_arch::codec::{cache_dir, quarantine, seal, unseal, write_atomically};
use feather_arch::dataflow::{ArrayShape, Dataflow, LoopNest, ParallelDim, TemporalLoop};
use feather_arch::dims::Dim;
use feather_arch::energy::EnergyBreakdown;
use feather_arch::layout::Layout;

use crate::cache::CoSearchCache;
use crate::cosearch::{CoSearchResult, CoSearchTable, LayoutChoice};
use crate::evaluate::Evaluation;

/// File format header; bump the version when the encoding changes. v2 is
/// sealed by the shared codec and lost the per-predecessor `E`/`R` records.
const HEADER: &str = "feather-cosearch-cache v2";

/// The most tables one file contributes. Comfortably above what this
/// process would have saved — a network has tens of distinct shapes
/// (ResNet-50 ≈ 20, BERT ≈ 4) — so only a foreign or damaged file meets it.
const MAX_LOADED_TABLES: usize = 512;

/// File name used inside `FEATHER_CACHE_DIR`.
const FILE_NAME: &str = "cosearch.cache";

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

impl CoSearchCache {
    /// Serializes the cache's tables to `path`, replacing the file whole
    /// ([`write_atomically`]): a process loading the same path meanwhile
    /// sees the previous file or this one.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        write_atomically(path, self.render().as_bytes())
    }

    /// The file [`CoSearchCache::save_to`] writes.
    fn render(&self) -> String {
        let mut body = String::new();
        for (key, table) in self.table_entries() {
            body.push_str(&format!("T {}\n", esc(key)));
            for choice in &table.choices {
                body.push_str(&format!("C {}\n", esc(&choice.layout.to_string())));
                body.push_str(&format!("S {}\n", encode_result(&choice.stay)));
                body.push_str(&format!("W {}\n", encode_result(&choice.switch)));
            }
        }
        seal(HEADER, &body)
    }

    /// Loads a cache previously written by [`CoSearchCache::save_to`] — all
    /// of it (up to the first `MAX_LOADED_TABLES` (512) tables), or, when
    /// anything about the file is wrong, an empty cache. Hit/miss counters
    /// start at zero.
    ///
    /// # Errors
    /// Propagates filesystem errors (e.g. the file does not exist).
    pub fn load_from(path: &Path) -> io::Result<CoSearchCache> {
        Ok(Self::read(path)?.unwrap_or_default())
    }

    /// The cache in the file at `path`; `None` when the file is not one.
    fn read(path: &Path) -> io::Result<Option<CoSearchCache>> {
        let bytes = fs::read(path)?;
        Ok(std::str::from_utf8(&bytes).ok().and_then(Self::parse))
    }

    /// Decodes the text of a cache file; `None` unless every byte of it is
    /// what [`CoSearchCache::render`] would have written.
    fn parse(text: &str) -> Option<CoSearchCache> {
        let mut cache = CoSearchCache::new();
        let mut lines = unseal(text, HEADER)?.lines().peekable();
        while let Some(line) = lines.next() {
            let key = unesc_exact(line.strip_prefix("T ")?)?;
            let mut table = CoSearchTable::default();
            while let Some(layout) = lines.next_if(|l| l.starts_with("C ")) {
                let text = unesc_exact(&layout[2..])?;
                let layout = text.parse::<Layout>().ok()?;
                (layout.to_string() == text).then_some(())?;
                table.choices.push(LayoutChoice {
                    layout,
                    stay: decode_result(lines.next()?.strip_prefix("S ")?)?,
                    switch: decode_result(lines.next()?.strip_prefix("W ")?)?,
                });
            }
            if !table.choices.is_empty() && cache.table_count() < MAX_LOADED_TABLES {
                cache.insert_table(key, table);
            }
        }
        Some(cache)
    }

    /// The persistent cache file location, when `FEATHER_CACHE_DIR` is set.
    pub fn persistent_path() -> Option<PathBuf> {
        cache_dir().map(|dir| dir.join(FILE_NAME))
    }

    /// Loads the persistent cache if `FEATHER_CACHE_DIR` is set and holds
    /// one; an empty cache otherwise, with a file that is not a cache set
    /// aside as `<name>.bad`. Never errors — persistence is a pure
    /// accelerator.
    pub fn load_persistent() -> CoSearchCache {
        let Some(path) = Self::persistent_path() else {
            return CoSearchCache::new();
        };
        match Self::read(&path) {
            Ok(Some(cache)) => cache,
            Ok(None) => {
                quarantine(&path);
                CoSearchCache::new()
            }
            Err(_) => CoSearchCache::new(),
        }
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

    /// Loads `bytes` as `load_from` would and checks that what loaded
    /// survives a save → load round trip unchanged. Returns how many tables
    /// loaded.
    fn load_and_roundtrip(bytes: &[u8]) -> usize {
        let text = std::str::from_utf8(bytes).ok();
        let loaded = text.and_then(CoSearchCache::parse).unwrap_or_default();
        let saved = loaded.render();
        assert_eq!(CoSearchCache::parse(&saved).unwrap().render(), saved);
        loaded.table_count()
    }

    /// The records of [`small_saved_cache`], unsealed.
    fn small_cache_records() -> Vec<String> {
        let body = unseal(small_saved_cache(), HEADER).unwrap();
        body.lines().map(str::to_string).collect()
    }

    /// `records` as a file a buggy or hostile writer sealed.
    fn sealed(records: &[String]) -> String {
        seal(HEADER, &(records.join("\n") + "\n"))
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
            // Past the seal, and cut into tagged records.
            let mut body = Vec::new();
            let mut chunks = bytes.chunks(bytes.len() / (tags.len() + 1) + 1);
            for tag in tags {
                body.extend_from_slice(["E ", "R ", "T ", "C ", "S ", "W ", "Q ", ""][tag].as_bytes());
                body.extend_from_slice(chunks.next().unwrap_or_default());
                body.push(b'\n');
            }
            load_and_roundtrip(seal(HEADER, &String::from_utf8_lossy(&body)).as_bytes());
        }

        #[test]
        fn the_grammars_own_tokens_with_extreme_values_load_cleanly(
            edits in proptest::collection::vec(0usize..1_000_000, 1..4),
            values in proptest::collection::vec(0usize..EXTREMES.len(), 3),
        ) {
            let mut lines = small_cache_records();
            for (edit, value) in edits.iter().zip(&values) {
                // Replace one `key=value` token's value (or the whole body
                // of a key or layout line).
                let at = edit % lines.len();
                let (tag, body) = lines[at].split_once(' ').expect("every record is tagged");
                let keys: Vec<&str> = body.split(' ').filter_map(|t| Some(t.split_once('=')?.0)).collect();
                let edited = match keys.get(edit / 1000 % keys.len().max(1)) {
                    Some(key) => with_token(&lines[at], key, EXTREMES[*value]),
                    None => format!("{tag} {}", EXTREMES[*value]),
                };
                lines[at] = edited;
            }
            load_and_roundtrip(sealed(&lines).as_bytes());
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

    /// A `feather-cosearch-cache v1` file — unsealed, as its writer left it
    /// — is not a v2 cache: it loads empty, `load_persistent` sets it aside
    /// once, and the next save puts a v2 file in its place.
    #[test]
    fn a_v1_file_degrades_to_an_empty_cache_and_is_set_aside_once() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = temp_path("v1-file");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FILE_NAME);
        let v1 = format!(
            "feather-cosearch-cache v1\n{}\n",
            small_cache_records().join("\n")
        );
        std::fs::write(&path, &v1).unwrap();
        assert_eq!(CoSearchCache::load_from(&path).unwrap().table_count(), 0);

        std::env::set_var("FEATHER_CACHE_DIR", &dir);
        assert_eq!(CoSearchCache::load_persistent().table_count(), 0);
        let bad = dir.join(format!("{FILE_NAME}.bad"));
        assert_eq!(std::fs::read_to_string(&bad).unwrap(), v1, "evidence kept");
        assert!(!path.exists(), "set aside, not re-parsed on the next load");
        assert_eq!(CoSearchCache::load_persistent().table_count(), 0);

        let current = CoSearchCache::parse(small_saved_cache()).unwrap();
        assert!(current.save_persistent().unwrap());
        assert_eq!(CoSearchCache::load_persistent().table_count(), 1);
        std::env::remove_var("FEATHER_CACHE_DIR");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A live cache never drops a table, so the loader bounds what a file
    /// from outside can make it hold.
    #[test]
    fn a_file_with_too_many_tables_loads_the_first_512() {
        let records = small_cache_records();
        let (key, choice) = records.split_first().unwrap();
        let mut many = Vec::new();
        for i in 0..MAX_LOADED_TABLES + 1 {
            many.push(format!("{key}#{i}"));
            many.extend_from_slice(choice);
        }
        let text = sealed(&many);
        let loaded = CoSearchCache::parse(&text).unwrap();
        assert_eq!(loaded.table_count(), MAX_LOADED_TABLES);
        let last_kept = unesc(&key[2..]).unwrap() + &format!("#{}", MAX_LOADED_TABLES - 1);
        assert!(loaded.peek_table(&last_kept).is_some());
        assert_eq!(load_and_roundtrip(text.as_bytes()), MAX_LOADED_TABLES);
    }

    /// One `FEATHER_CACHE_DIR` serves several processes: a loader racing a
    /// saver finds no file or the whole cache — a prefix would load as an
    /// empty one, and `load_persistent` would set the half-written file aside.
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
        let mut records = small_cache_records();
        let garbage = [
            "something else entirely\nT x\n".to_string(),
            // An older version's seal, the right seal over records that do
            // not decode or sit out of place, and the right records unsealed.
            seal("feather-cosearch-cache v1", &(records.join("\n") + "\n")),
            seal(HEADER, "T key\nC not-a-layout\nQ ???\n"),
            sealed(&records[1..]),
            sealed(&records[..records.len() - 1]),
            format!("{HEADER}\n{}\n", records.join("\n")),
        ];
        for text in garbage {
            std::fs::write(&path, text).unwrap();
            let loaded = CoSearchCache::load_from(&path).unwrap();
            assert_eq!(loaded.table_count(), 0);
        }
        // One bad record anywhere takes the whole file, not its table.
        records.extend(small_cache_records());
        records[0].push_str("#2");
        assert_eq!(load_and_roundtrip(sealed(&records).as_bytes()), 2);
        records[2] = "S ev.cycles=1".to_string();
        assert_eq!(load_and_roundtrip(sealed(&records).as_bytes()), 0);
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
