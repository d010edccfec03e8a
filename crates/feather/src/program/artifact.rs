use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use feather_arch::energy::EnergyModel;
use feather_arch::graph::NodeId;
use feather_arch::workload::{ConvKind, ConvLayer};
use feather_arch::ArchError;
use feather_birrd::{Birrd, ReductionRequest};
use feather_memsim::AccessStats;

use crate::config::FeatherConfig;
use crate::core::{CoreRun, LayerExec, LayerStream, ReplayLayer, RouteTable};
use crate::graph_session::{pool_window_weights, GraphSession};
use crate::mapping::LayerMapping;
use crate::session::{iact_spec, oact_spec};

use super::compile::{cost_of, session_fingerprint};
use super::{
    join_ints, kind_token, operand_token, CompiledLayer, CompiledSegment, JoinSpec, LayerCost, Op,
    OperandSrc, Program, Tables, TensorSlot, WeightSource,
};

/// Format header of a serialized program artifact; bump on layout changes
/// (unknown versions degrade to a recompile, never to an error). v2 added
/// the trailing whole-file `checksum` line; v3 stores per-layer `cost`
/// counters and one program-wide `route` table, and dropped `threads=`.
pub(super) const HEADER: &str = "feather-program v3";

/// Largest tensor (in elements) or route stream (in passes) an artifact may
/// declare: bounds what loading allocates before the contents are trusted.
pub(super) const MAX_ARTIFACT_ELEMS: usize = 1 << 28;

/// Where a compiled program came from in [`GraphSession::compile_cached`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactStatus {
    /// Loaded from a matching on-disk artifact — no compile pass ran.
    Hit,
    /// Compiled fresh and saved back to the artifact cache.
    Miss,
    /// `FEATHER_CACHE_DIR` is unset — compiled fresh, nothing persisted.
    Disabled,
    /// An artifact existed at the right path but was unusable — bad
    /// checksum, truncation, stale format, inconsistent contents, or a
    /// fingerprint mismatch. It was renamed aside to `<name>.bad` (so it is
    /// detected exactly once, not re-parsed on every cache miss) and a fresh
    /// compile replaced it.
    Quarantined,
}

/// What [`Program::load_checked`] found on disk.
#[derive(Debug)]
pub(super) enum LoadOutcome {
    /// Parsed, checksum-verified and validated.
    Loaded(Program),
    /// A file exists but is unusable (corrupt, truncated, or stale format).
    Corrupt,
    /// No file (or it is unreadable).
    Missing,
}

impl Program {
    /// The default artifact location for this program:
    /// `FEATHER_CACHE_DIR/programs/<name>-b<batch>-<fingerprint>.program`,
    /// or `None` when `FEATHER_CACHE_DIR` is unset.
    pub fn artifact_path(&self) -> Option<PathBuf> {
        cache_dir().map(|dir| {
            artifact_path(
                &dir,
                &self.tables.name,
                self.tables.batch,
                self.tables.fingerprint,
            )
        })
    }

    /// Serializes the program to `path` (parent directories are created).
    /// The artifact is written to a sibling temporary file and renamed over
    /// `path`, so a process loading the same path meanwhile reads the
    /// previous artifact or this one, never a prefix of it.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        write_atomically(path, self.serialize().as_bytes())
    }

    /// Loads a program from `path`. Any failure — missing file, unknown
    /// header version, checksum mismatch, malformed or inconsistent content,
    /// an unroutable recorded request — returns `None` so callers degrade to
    /// a recompile.
    pub fn load_from(path: &Path) -> Option<Program> {
        match Program::load_checked(path) {
            LoadOutcome::Loaded(program) => Some(program),
            LoadOutcome::Corrupt | LoadOutcome::Missing => None,
        }
    }

    /// [`Program::load_from`] distinguishing *no artifact* from *a corrupt
    /// one*, so the artifact cache can quarantine the latter instead of
    /// re-parsing it on every miss.
    pub(super) fn load_checked(path: &Path) -> LoadOutcome {
        let Ok(bytes) = std::fs::read(path) else {
            return LoadOutcome::Missing;
        };
        match String::from_utf8(bytes)
            .ok()
            .and_then(|t| parse_program(&t))
        {
            Some(program) => LoadOutcome::Loaded(program),
            None => LoadOutcome::Corrupt,
        }
    }

    // ---------------------------------------------------------------- save

    pub(super) fn serialize(&self) -> String {
        let t = &*self.tables;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(
            out,
            "meta name={} rows={} cols={} stab={} strb={} batch={} shift={} zero={} \
             fp={:016x} input={}",
            esc(&t.name),
            t.config.rows,
            t.config.cols,
            t.config.stab_lines,
            t.config.strb_lines,
            t.batch,
            t.quant_shift,
            t.quant_zero,
            t.fingerprint,
            t.input_slot
        );
        for slot in &t.tensors {
            let _ = writeln!(
                out,
                "tensor id={} shape={}",
                slot.id,
                join_ints(&slot.shape)
            );
        }
        for seg in &t.segments {
            let _ = writeln!(
                out,
                "segment in={} out={} gin={} gout={}",
                seg.input,
                seg.output,
                u8::from(seg.graph_input),
                u8::from(seg.graph_output)
            );
        }
        for (si, seg) in t.segments.iter().enumerate() {
            for (li, layer) in seg.layers.iter().enumerate() {
                let l = &layer.replay.tiling.layer;
                let m = &layer.replay.tiling.mapping;
                let wsrc = match &layer.weight {
                    WeightSource::Node(id) => format!("n{}", id.0),
                    WeightSource::Pool(_) => "pool".to_string(),
                };
                let _ = writeln!(
                    out,
                    "layer seg={si} name={} conv={},{},{},{},{},{},{},{},{},{} \
                     map={},{},{} iact={} oact={} wsrc={wsrc}",
                    esc(&seg.names[li]),
                    l.n,
                    l.m,
                    l.c,
                    l.h,
                    l.w,
                    l.r,
                    l.s,
                    l.stride,
                    l.padding,
                    kind_token(l.kind),
                    m.m_rows,
                    m.c_cols,
                    m.q_cols,
                    esc(&m.iact_layout.to_string()),
                    esc(&m.oact_layout.to_string())
                );
                let LayerCost { core, iact, oact } = &layer.cost;
                let _ = writeln!(
                    out,
                    "cost seg={si} layer={li} core={},{},{},{} iact={} oact={}",
                    core.cycles,
                    core.birrd_passes,
                    core.birrd_adds,
                    core.macs,
                    join_ints(&stats_fields(iact)),
                    join_ints(&stats_fields(oact))
                );
                let routes = &layer.replay.routes;
                let _ = writeln!(
                    out,
                    "stream seg={si} layer={li} {}",
                    rle_encode(&routes.stream)
                );
                let deltas = deltas_of(&routes.block_starts);
                let _ = writeln!(out, "blocks seg={si} layer={li} {}", rle_encode(&deltas));
            }
        }
        for (c_cols, request) in t.routes.requests() {
            let groups: Vec<String> = request
                .input_groups
                .iter()
                .map(|g| match g {
                    Some(gid) => gid.to_string(),
                    None => "-".to_string(),
                })
                .collect();
            let dests: Vec<String> = request
                .group_destinations
                .iter()
                .map(|(gid, bank)| format!("{gid}:{bank}"))
                .collect();
            let _ = writeln!(
                out,
                "route c={c_cols} groups={} dests={}",
                groups.join(","),
                dests.join(",")
            );
        }
        for join in &t.joins {
            let _ = writeln!(
                out,
                "join name={} out={} a={} b={} gout={}",
                esc(&join.name),
                join.output,
                operand_token(join.a),
                operand_token(join.b),
                u8::from(join.graph_output)
            );
        }
        for op in &t.ops {
            let line = match *op {
                Op::Stage { seg, fresh, take } => format!(
                    "op stage seg={seg} fresh={} take={}",
                    u8::from(fresh),
                    u8::from(take)
                ),
                Op::Fire { seg, layer } => format!("op fire seg={seg} layer={layer}"),
                Op::Reorder { seg, layer } => format!("op reorder seg={seg} layer={layer}"),
                Op::Swap { seg } => format!("op swap seg={seg}"),
                Op::Drain { seg } => format!("op drain seg={seg}"),
                Op::Join { join } => format!("op join join={join}"),
                Op::Park { tensor } => format!("op park t={tensor}"),
                Op::Unpark { tensor, free } => {
                    format!("op unpark t={tensor} free={}", u8::from(free))
                }
            };
            let _ = writeln!(out, "{line}");
        }
        // Whole-file integrity: the checksum covers every byte above it, so
        // truncation, bit flips and partial writes are all detected on load.
        out.push_str(&checksum_line(&out));
        out
    }
}

/// Compile through the on-disk artifact cache — the implementation behind
/// [`GraphSession::compile_cached`].
pub(crate) fn compile_cached(
    session: &GraphSession,
) -> Result<(Program, ArtifactStatus), ArchError> {
    let Some(dir) = cache_dir() else {
        return Ok((session.compile()?, ArtifactStatus::Disabled));
    };
    compile_cached_in(session, &dir)
}

/// [`compile_cached`] against an explicit cache root (testable without
/// touching `FEATHER_CACHE_DIR`). A corrupt or stale artifact is renamed
/// aside to `<name>.bad` before the recompile overwrites its path — it is
/// detected exactly once, never re-parsed on later misses.
pub(super) fn compile_cached_in(
    session: &GraphSession,
    dir: &Path,
) -> Result<(Program, ArtifactStatus), ArchError> {
    let fingerprint = session_fingerprint(session);
    let path = artifact_path(dir, &session.graph().name, session.batch(), fingerprint);
    let status = match Program::load_checked(&path) {
        LoadOutcome::Loaded(program) if program.fingerprint() == fingerprint => {
            // Compile at most once: the session's first `run` replays what
            // was just loaded instead of lowering the plan again.
            session.keep_program(&program);
            return Ok((program, ArtifactStatus::Hit));
        }
        // The path encodes the fingerprint, so parseable-but-mismatched
        // content is just as wrong as a bad checksum.
        LoadOutcome::Loaded(_) | LoadOutcome::Corrupt => {
            quarantine(&path);
            ArtifactStatus::Quarantined
        }
        LoadOutcome::Missing => ArtifactStatus::Miss,
    };
    let program = session.compile()?;
    // Persistence is best-effort: an unwritable cache degrades to recompiles.
    let _ = program.save_to(&path);
    Ok((program, status))
}

/// Renames an unusable artifact to `<name>.bad` (best-effort) so it is kept
/// for inspection but never consulted — or re-parsed — again.
fn quarantine(path: &Path) {
    let mut bad = path.as_os_str().to_os_string();
    bad.push(".bad");
    let _ = std::fs::rename(path, &bad);
}

/// Writes `bytes` to a temporary sibling of `path` and renames it over
/// `path`: readers of a cache directory shared across processes see the old
/// file or the whole new one. The temporary name is unique per process and
/// call, so concurrent savers never share one. (`layoutloop::persist` keeps
/// a private twin of this function; change them together.)
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        file.write_all(bytes)?;
        // On disk before the rename makes it visible under `path`.
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// The artifact cache root: `FEATHER_CACHE_DIR` (shared with layoutloop's
/// co-search cache), or `None` when unset.
fn cache_dir() -> Option<PathBuf> {
    std::env::var_os("FEATHER_CACHE_DIR").map(PathBuf::from)
}

/// The artifact file for a `(model, batch, fingerprint)` triple, inside the
/// `programs/` subdirectory of the cache root.
pub(super) fn artifact_path(dir: &Path, name: &str, batch: usize, fingerprint: u64) -> PathBuf {
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join("programs")
        .join(format!("{safe}-b{batch}-{fingerprint:016x}.program"))
}

/// FNV-1a 64-bit hash.
pub(super) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// -------------------------------------------------------------------- load

/// The trailing integrity line for `body`: every byte of an artifact is
/// covered either by the hash or by this line's fixed spelling.
fn checksum_line(body: &str) -> String {
    format!("checksum {:016x}\n", fnv1a64(body.as_bytes()))
}

/// Parses a serialized program; `None` on any malformed or inconsistent
/// content, including a missing or mismatched trailing checksum line.
///
/// Everything the artifact names is checked here — op operands against
/// their tables (by [`cost_of`]), route streams against the folded route
/// table by a dry cursor walk ([`ReplayLayer::stream_is_sound`]), layers and
/// mappings against the fabric and each other, sizes against
/// [`MAX_ARTIFACT_ELEMS`] — so a program that loads replays without ever
/// indexing out of range.
pub(super) fn parse_program(text: &str) -> Option<Program> {
    // The artifact ends with `checksum <fnv1a64-hex>` covering every byte
    // before it; verify that first so truncation or bit flips anywhere in
    // the body fail fast instead of surfacing as a puzzling parse error. The
    // line is compared as text, so no byte of it has a second spelling.
    let sum_at = text.rfind("checksum ")?;
    if sum_at != 0 && text.as_bytes()[sum_at - 1] != b'\n' {
        return None;
    }
    let (covered, sum_line) = text.split_at(sum_at);
    if sum_line != checksum_line(covered) {
        return None;
    }

    let mut lines = covered.lines();
    if lines.next()? != HEADER {
        return None;
    }

    struct LayerParts {
        name: String,
        layer: ConvLayer,
        mapping: LayerMapping,
        pool: bool,
        weight_node: usize,
        cost: Option<LayerCost>,
        routes: LayerStream,
    }
    struct SegmentParts {
        input: usize,
        output: usize,
        graph_input: bool,
        graph_output: bool,
        layers: Vec<LayerParts>,
    }
    fn layer_of(
        segments: &mut [SegmentParts],
        (si, li): (usize, usize),
    ) -> Option<&mut LayerParts> {
        segments.get_mut(si)?.layers.get_mut(li)
    }

    let mut name = String::new();
    let mut config: Option<FeatherConfig> = None;
    let mut batch = 0usize;
    let mut quant_shift = 0u32;
    let mut quant_zero = 0i8;
    let mut fingerprint = 0u64;
    let mut input_slot = 0usize;
    let mut tensors: Vec<TensorSlot> = Vec::new();
    let mut segments: Vec<SegmentParts> = Vec::new();
    let mut requests: Vec<(usize, ReductionRequest)> = Vec::new();
    let mut joins: Vec<JoinSpec> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();

    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next()?;
        let kv: Vec<(&str, &str)> = parts
            .clone()
            .filter_map(|tok| tok.split_once('='))
            .collect();
        let get =
            |key: &str| -> Option<&str> { kv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v) };
        // The layer a `seg=`/`layer=` pair addresses.
        let layer_at = || -> Option<(usize, usize)> {
            Some((get("seg")?.parse().ok()?, get("layer")?.parse().ok()?))
        };
        match tag {
            "meta" => {
                name = unesc(get("name")?);
                config = Some(FeatherConfig {
                    rows: get("rows")?.parse().ok()?,
                    cols: get("cols")?.parse().ok()?,
                    stab_lines: get("stab")?.parse().ok()?,
                    strb_lines: get("strb")?.parse().ok()?,
                });
                batch = get("batch")?.parse().ok()?;
                quant_shift = get("shift")?.parse().ok()?;
                quant_zero = get("zero")?.parse().ok()?;
                fingerprint = u64::from_str_radix(get("fp")?, 16).ok()?;
                input_slot = get("input")?.parse().ok()?;
            }
            "tensor" => {
                let id: usize = get("id")?.parse().ok()?;
                let shape = parse_ints::<usize, 4>(get("shape")?)?;
                tensors.push(TensorSlot {
                    id,
                    key: format!("t{id}"),
                    shape,
                });
            }
            "segment" => {
                segments.push(SegmentParts {
                    input: get("in")?.parse().ok()?,
                    output: get("out")?.parse().ok()?,
                    graph_input: get("gin")? == "1",
                    graph_output: get("gout")? == "1",
                    layers: Vec::new(),
                });
            }
            "layer" => {
                let si: usize = get("seg")?.parse().ok()?;
                let (dims, kind) = get("conv")?.rsplit_once(',')?;
                let dims = parse_ints::<usize, 9>(dims)?;
                if dims.iter().any(|&d| d > MAX_ARTIFACT_ELEMS) {
                    return None;
                }
                let [n, m, c, h, w, r, s, stride, padding] = dims;
                let layer_name = unesc(get("name")?);
                let mut layer = ConvLayer::new(n, m, c, h, w, r, s)
                    .with_stride(stride)
                    .with_padding(padding)
                    .with_name(layer_name.clone());
                layer.kind = parse_kind(kind)?;
                let map = parse_ints::<usize, 3>(get("map")?)?;
                let mapping = LayerMapping {
                    m_rows: map[0],
                    c_cols: map[1],
                    q_cols: map[2],
                    iact_layout: unesc(get("iact")?).parse().ok()?,
                    oact_layout: unesc(get("oact")?).parse().ok()?,
                };
                let (pool, weight_node) = match get("wsrc")? {
                    "pool" => (true, 0),
                    w => (false, w.strip_prefix('n')?.parse().ok()?),
                };
                segments.get_mut(si)?.layers.push(LayerParts {
                    name: layer_name,
                    layer,
                    mapping,
                    pool,
                    weight_node,
                    cost: None,
                    routes: LayerStream::default(),
                });
            }
            "cost" => {
                let [cycles, birrd_passes, birrd_adds, macs] = parse_ints::<u64, 4>(get("core")?)?;
                layer_of(&mut segments, layer_at()?)?.cost = Some(LayerCost {
                    core: CoreRun {
                        cycles,
                        birrd_passes,
                        birrd_adds,
                        macs,
                    },
                    iact: parse_stats(get("iact")?)?,
                    oact: parse_stats(get("oact")?)?,
                });
            }
            "stream" => {
                layer_of(&mut segments, layer_at()?)?.routes.stream = rle_decode(line)?;
            }
            "blocks" => {
                let mut acc = 0u32;
                let starts = rle_decode(line)?
                    .iter()
                    .map(|&d| {
                        acc = acc.checked_add(d)?;
                        Some(acc)
                    })
                    .collect::<Option<Vec<u32>>>()?;
                layer_of(&mut segments, layer_at()?)?.routes.block_starts = starts;
            }
            "route" => {
                let input_groups: Vec<Option<usize>> = get("groups")?
                    .split(',')
                    .map(|tok| {
                        if tok == "-" {
                            Some(None)
                        } else {
                            tok.parse().ok().map(Some)
                        }
                    })
                    .collect::<Option<Vec<_>>>()?;
                let mut group_destinations = BTreeMap::new();
                for pair in get("dests")?.split(',').filter(|pair| !pair.is_empty()) {
                    let (gid, bank) = pair.split_once(':')?;
                    group_destinations.insert(gid.parse().ok()?, bank.parse().ok()?);
                }
                let request = ReductionRequest {
                    input_groups,
                    group_destinations,
                };
                // Only a request `from_groups` would build is well-formed
                // (the router indexes destinations by group unchecked).
                let groups: Vec<(Vec<usize>, usize)> = request
                    .group_destinations
                    .iter()
                    .map(|(&gid, &bank)| {
                        let ports = request.input_groups.iter().enumerate();
                        let members = ports.filter(|(_, g)| **g == Some(gid));
                        (members.map(|(port, _)| port).collect(), bank)
                    })
                    .collect();
                if ReductionRequest::from_groups(request.width(), &groups).ok()? != request {
                    return None;
                }
                requests.push((get("c")?.parse().ok()?, request));
            }
            "join" => {
                joins.push(JoinSpec {
                    name: unesc(get("name")?),
                    output: get("out")?.parse().ok()?,
                    a: parse_operand(get("a")?)?,
                    b: parse_operand(get("b")?)?,
                    graph_output: get("gout")? == "1",
                });
            }
            "op" => {
                let kind = parts.next()?;
                let op = match kind {
                    "stage" => Op::Stage {
                        seg: get("seg")?.parse().ok()?,
                        fresh: get("fresh")? == "1",
                        take: get("take")? == "1",
                    },
                    "fire" => Op::Fire {
                        seg: get("seg")?.parse().ok()?,
                        layer: get("layer")?.parse().ok()?,
                    },
                    "reorder" => Op::Reorder {
                        seg: get("seg")?.parse().ok()?,
                        layer: get("layer")?.parse().ok()?,
                    },
                    "swap" => Op::Swap {
                        seg: get("seg")?.parse().ok()?,
                    },
                    "drain" => Op::Drain {
                        seg: get("seg")?.parse().ok()?,
                    },
                    "join" => Op::Join {
                        join: get("join")?.parse().ok()?,
                    },
                    "park" => Op::Park {
                        tensor: get("t")?.parse().ok()?,
                    },
                    "unpark" => Op::Unpark {
                        tensor: get("t")?.parse().ok()?,
                        free: get("free")? == "1",
                    },
                    _ => return None,
                };
                ops.push(op);
            }
            _ => return None,
        }
    }

    let config = config?;
    if config.rows == 0 {
        return None;
    }
    let birrd = Birrd::new(config.cols).ok()?;
    let routes = RouteTable::from_requests(&birrd, requests).ok()?;
    let mut compiled_segments: Vec<CompiledSegment> = Vec::with_capacity(segments.len());
    for seg in segments {
        let mut layers: Vec<CompiledLayer> = Vec::with_capacity(seg.layers.len());
        let mut names: Vec<String> = Vec::with_capacity(seg.layers.len());
        for lp in seg.layers {
            // Validate before building: the tile-loop context divides by the
            // mapping factors and tabulates every extent.
            lp.layer.validate().ok()?;
            lp.mapping.validate(&lp.layer, &config).ok()?;
            let l = &lp.layer;
            let (p, q) = (l.output_height(), l.output_width());
            // iActs, oActs and the filter: what replay sizes buffers by.
            for extents in [[l.n, l.c, l.h, l.w], [l.n, l.m, p, q], [l.m, l.c, l.r, l.s]] {
                let elems = extents.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
                if elems > MAX_ARTIFACT_ELEMS {
                    return None;
                }
            }
            let exec = LayerExec::new(&config, &lp.layer, &lp.mapping).ok()?;
            let replay = ReplayLayer::new(
                exec,
                iact_spec(&lp.layer, &lp.mapping).capacity(),
                oact_spec(&lp.layer, &lp.mapping).capacity(),
                lp.routes,
            )
            .ok()?;
            // The RIR boundary contract: a layer reads the very cells the
            // previous one wrote.
            let chains = layers.last().map_or(true, |prev: &CompiledLayer| {
                prev.replay.oact.cells() == replay.iact.cells()
            });
            if !chains || !replay.stream_is_sound(&routes) {
                return None;
            }
            let weight = if lp.pool {
                WeightSource::Pool(pool_window_weights(&lp.layer))
            } else {
                WeightSource::Node(NodeId(lp.weight_node))
            };
            names.push(lp.name);
            layers.push(CompiledLayer {
                replay,
                weight,
                cost: lp.cost?,
            });
        }
        if layers.is_empty() {
            return None;
        }
        compiled_segments.push(CompiledSegment {
            names,
            input: seg.input,
            output: seg.output,
            graph_input: seg.graph_input,
            graph_output: seg.graph_output,
            layers,
        });
    }
    let input_shape = tensors.get(input_slot)?.shape;
    let cost = cost_of(
        &config,
        &EnergyModel::tsmc28(),
        &tensors,
        &compiled_segments,
        &joins,
        &ops,
    )?;
    Some(Program {
        tables: Arc::new(Tables {
            name,
            config,
            batch,
            quant_shift,
            quant_zero,
            input_shape,
            input_slot,
            fingerprint,
            tensors,
            segments: compiled_segments,
            joins,
            ops,
            routes,
            cost,
        }),
    })
}

// ------------------------------------------------------------ text helpers

fn parse_kind(token: &str) -> Option<ConvKind> {
    match token {
        "standard" => Some(ConvKind::Standard),
        "depthwise" => Some(ConvKind::Depthwise),
        "pointwise" => Some(ConvKind::Pointwise),
        _ => None,
    }
}

fn parse_operand(token: &str) -> Option<OperandSrc> {
    match token {
        "fresh_move" => Some(OperandSrc::Fresh { take: true }),
        "fresh_copy" => Some(OperandSrc::Fresh { take: false }),
        "queue" => Some(OperandSrc::Queue),
        _ => None,
    }
}

fn parse_ints<T: std::str::FromStr, const N: usize>(text: &str) -> Option<[T; N]> {
    let parsed: Vec<T> = text
        .split(',')
        .map(|tok| tok.parse().ok())
        .collect::<Option<Vec<_>>>()?;
    parsed.try_into().ok()
}

/// The six counters of an [`AccessStats`], in artifact order.
fn stats_fields(stats: &AccessStats) -> [u64; 6] {
    [
        stats.element_reads,
        stats.element_writes,
        stats.line_reads,
        stats.line_writes,
        stats.active_cycles,
        stats.conflict_stall_cycles,
    ]
}

/// Reverses [`stats_fields`].
fn parse_stats(text: &str) -> Option<AccessStats> {
    let [element_reads, element_writes, line_reads, line_writes, active_cycles, conflict_stall_cycles] =
        parse_ints::<u64, 6>(text)?;
    Some(AccessStats {
        element_reads,
        element_writes,
        line_reads,
        line_writes,
        active_cycles,
        conflict_stall_cycles,
    })
}

/// First differences of a non-decreasing sequence (starting from zero), the
/// form block-start tables compress best in.
fn deltas_of(values: &[u32]) -> Vec<u32> {
    let mut prev = 0u32;
    values
        .iter()
        .map(|&v| {
            let d = v - prev;
            prev = v;
            d
        })
        .collect()
}

/// Run-length encodes `values` as space-separated `v` / `vxN` tokens.
pub(super) fn rle_encode(values: &[u32]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1;
        while i + run < values.len() && values[i + run] == v {
            run += 1;
        }
        if !out.is_empty() {
            out.push(' ');
        }
        if run > 1 {
            let _ = write!(out, "{v}x{run}");
        } else {
            let _ = write!(out, "{v}");
        }
        i += run;
    }
    out
}

/// Decodes the `v` / `vxN` tokens of a `stream`/`blocks` line (skipping the
/// leading tag and `key=value` pairs).
pub(super) fn rle_decode(line: &str) -> Option<Vec<u32>> {
    let mut values = Vec::new();
    for tok in line.split_whitespace().skip(1) {
        if tok.contains('=') {
            continue;
        }
        match tok.split_once('x') {
            Some((v, n)) => {
                let v: u32 = v.parse().ok()?;
                let n: usize = n.parse().ok()?;
                if n > MAX_ARTIFACT_ELEMS - values.len() {
                    return None;
                }
                values.extend(std::iter::repeat(v).take(n));
            }
            None => values.push(tok.parse().ok()?),
        }
    }
    Some(values)
}

/// Escapes a string for single-token storage (space, `=`, `%`, newlines).
pub(super) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3D"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`] (unknown escapes pass through verbatim).
pub(super) fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let pair: String = chars.clone().take(2).collect();
        match pair.as_str() {
            "25" => out.push('%'),
            "20" => out.push(' '),
            "3D" => out.push('='),
            "09" => out.push('\t'),
            "0A" => out.push('\n'),
            "0D" => out.push('\r'),
            _ => {
                out.push(c);
                continue;
            }
        }
        chars.next();
        chars.next();
    }
    out
}
