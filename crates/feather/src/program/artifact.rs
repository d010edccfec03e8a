//! The on-disk program store: `feather-program v4` artifacts under
//! `FEATHER_CACHE_DIR/programs/`, sealed by [`feather_arch::codec`].
//!
//! An artifact is a [`Recording`] — what the accounted record pass measured
//! and nothing the session that loads it already holds. Tensors, layers,
//! mappings, joins and the op stream are lowered from the session on a hit
//! exactly as on a miss ([`compile`]); the file supplies, in session order,
//!
//! ```text
//! fp <session fingerprint, 16 hex digits>
//! cost seg=<s> layer=<l> core=<cycles,passes,adds,macs> iact=<6 counters> oact=<6 counters>
//! stream seg=<s> layer=<l> <pass slots, run-length encoded as `v` / `vxN`>
//! blocks seg=<s> layer=<l> <first differences of the block starts, likewise>
//! …                         (the three lines of every layer of every segment)
//! route c=<c_cols> groups=<group or `-` per port> dests=<group:bank,…>
//! …                         (one per pass slot)
//! ```
//!
//! A recording of another session — its `fp` is not this session's
//! fingerprint, its layers are not this plan's, a stream does not walk its
//! layer's tiles — is as corrupt as a damaged file: it is renamed aside as
//! `<name>.bad` once and the session compiles afresh. So a hit can differ
//! from a fresh compile only in the cost counters the file carries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use feather_arch::codec::{cache_dir, quarantine, seal, unseal, write_atomically};
use feather_arch::ArchError;
use feather_birrd::ReductionRequest;
use feather_memsim::AccessStats;

use crate::core::{CoreRun, LayerStream};
use crate::graph_session::GraphSession;

use super::compile::{compile, Recording};
use super::{join_ints, LayerCost, Program};

/// Format header of a serialized program artifact; bump on layout changes
/// (other versions degrade to a recompile, never to an error). v4 dropped
/// everything but the recording: v3 also restated the session's tensors,
/// layers, joins and ops.
pub(super) const HEADER: &str = "feather-program v4";

/// Longest route stream (in passes) an artifact may declare: bounds what
/// loading allocates before the contents are trusted.
const MAX_ARTIFACT_ELEMS: usize = 1 << 28;

/// Where a compiled program came from in [`GraphSession::compile_cached`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactStatus {
    /// Lowered with a matching on-disk recording — no accounted pass ran.
    Hit,
    /// Compiled fresh and saved back to the artifact cache.
    Miss,
    /// `FEATHER_CACHE_DIR` is unset — compiled fresh, nothing persisted.
    Disabled,
    /// An artifact existed at the right path but was unusable — bad
    /// checksum, truncation, stale format, or a recording of some other
    /// session. It was renamed aside to `<name>.bad` (so it is detected
    /// exactly once, not re-parsed on every cache miss) and a fresh compile
    /// replaced it.
    Quarantined,
}

/// What [`load_checked`] found on disk.
#[derive(Debug)]
pub(super) enum LoadOutcome {
    /// A recording of this session, lowered to its program.
    Loaded(Program),
    /// A file exists but is unusable (corrupt, truncated, stale or foreign).
    Corrupt,
    /// No file (or it is unreadable).
    Missing,
}

impl Program {
    /// Saves the program's recording to `path`, replacing the file whole: a
    /// process loading the same path meanwhile reads the previous artifact
    /// or this one, never a prefix of it.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> std::io::Result<()> {
        write_atomically(path, self.serialize().as_bytes())
    }

    pub(super) fn serialize(&self) -> String {
        let t = &*self.tables;
        let mut body = format!("fp {:016x}\n", t.fingerprint);
        for (si, seg) in t.segments.iter().enumerate() {
            for (li, layer) in seg.layers.iter().enumerate() {
                let LayerCost { core, iact, oact } = &layer.cost;
                let _ = writeln!(
                    body,
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
                    body,
                    "stream seg={si} layer={li} {}",
                    rle_encode(&routes.stream)
                );
                let deltas = deltas_of(&routes.block_starts);
                let _ = writeln!(body, "blocks seg={si} layer={li} {}", rle_encode(&deltas));
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
                body,
                "route c={c_cols} groups={} dests={}",
                groups.join(","),
                dests.join(",")
            );
        }
        seal(HEADER, &body)
    }
}

/// Lowers `session` with the recording at `path` — the implementation
/// behind [`GraphSession::load_program`], distinguishing *no artifact* from
/// *a corrupt one* so the artifact cache can quarantine the latter instead
/// of re-parsing it on every miss.
pub(super) fn load_checked(session: &GraphSession, path: &Path) -> LoadOutcome {
    let Ok(bytes) = std::fs::read(path) else {
        return LoadOutcome::Missing;
    };
    let recording = std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| parse_recording(text, session));
    match recording.map(|recording| compile(session, Some(recording))) {
        Some(Ok(program)) => LoadOutcome::Loaded(program),
        _ => LoadOutcome::Corrupt,
    }
}

/// [`load_checked`] for callers that degrade to a recompile either way.
pub(crate) fn load_program(session: &GraphSession, path: &Path) -> Option<Program> {
    match load_checked(session, path) {
        LoadOutcome::Loaded(program) => Some(program),
        LoadOutcome::Corrupt | LoadOutcome::Missing => None,
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
/// touching `FEATHER_CACHE_DIR`). A corrupt, stale or foreign artifact is
/// renamed aside to `<name>.bad` before the recompile overwrites its path —
/// it is detected exactly once, never re-parsed on later misses.
pub(super) fn compile_cached_in(
    session: &GraphSession,
    dir: &Path,
) -> Result<(Program, ArtifactStatus), ArchError> {
    let path = artifact_path(
        dir,
        &session.graph().name,
        session.batch(),
        session.fingerprint(),
    );
    let status = match load_checked(session, &path) {
        LoadOutcome::Loaded(program) => {
            // Compile at most once: the session's first `run` replays what
            // was just loaded instead of lowering the plan again.
            session.keep_program(&program);
            return Ok((program, ArtifactStatus::Hit));
        }
        LoadOutcome::Corrupt => {
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

// -------------------------------------------------------------------- load

/// Decodes the recording `text` holds for `session`; `None` unless it is a
/// sealed v4 file whose `fp` is the session's fingerprint and whose layer
/// records are exactly the session's layers, in order. Whether the streams
/// and routes fit those layers is [`compile`]'s to check.
fn parse_recording(text: &str, session: &GraphSession) -> Option<Recording> {
    let mut lines = unseal(text, HEADER)?.lines();
    if lines.next()? != format!("fp {:016x}", session.fingerprint()) {
        return None;
    }
    let mut layers = Vec::new();
    for (si, exec) in session.segments.iter().enumerate() {
        for li in 0..exec.session.steps().len() {
            let at = format!(" seg={si} layer={li} ");
            let mut record = |tag: &str| lines.next()?.strip_prefix(tag)?.strip_prefix(&at);
            let cost = parse_cost(record("cost")?)?;
            let stream = rle_decode(record("stream")?)?;
            let mut acc = 0u32;
            let block_starts = rle_decode(record("blocks")?)?
                .iter()
                .map(|&d| {
                    acc = acc.checked_add(d)?;
                    Some(acc)
                })
                .collect::<Option<Vec<u32>>>()?;
            layers.push((
                cost,
                LayerStream {
                    stream,
                    block_starts,
                },
            ));
        }
    }
    let routes = lines.map(parse_route).collect::<Option<_>>()?;
    Some(Recording { layers, routes })
}

/// The `core=… iact=… oact=…` fields of a `cost` record.
fn parse_cost(fields: &str) -> Option<LayerCost> {
    let (core, stats) = fields.strip_prefix("core=")?.split_once(" iact=")?;
    let (iact, oact) = stats.split_once(" oact=")?;
    let [cycles, birrd_passes, birrd_adds, macs] = parse_ints::<u64, 4>(core)?;
    Some(LayerCost {
        core: CoreRun {
            cycles,
            birrd_passes,
            birrd_adds,
            macs,
        },
        iact: parse_stats(iact)?,
        oact: parse_stats(oact)?,
    })
}

/// One `route` record: the `(c_cols, request)` pair behind a pass slot.
fn parse_route(line: &str) -> Option<(usize, ReductionRequest)> {
    let (c_cols, rest) = line.strip_prefix("route c=")?.split_once(" groups=")?;
    let (groups, dests) = rest.split_once(" dests=")?;
    let input_groups: Vec<Option<usize>> = groups
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
    for pair in dests.split(',').filter(|pair| !pair.is_empty()) {
        let (gid, bank) = pair.split_once(':')?;
        group_destinations.insert(gid.parse().ok()?, bank.parse().ok()?);
    }
    let request = ReductionRequest {
        input_groups,
        group_destinations,
    };
    // Only a request `from_groups` would build is well-formed (the router
    // indexes destinations by group unchecked).
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
    Some((c_cols.parse().ok()?, request))
}

// ------------------------------------------------------------ text helpers

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

/// Decodes the `v` / `vxN` tokens of a `stream` / `blocks` record.
pub(super) fn rle_decode(tokens: &str) -> Option<Vec<u32>> {
    let mut values = Vec::new();
    for tok in tokens.split_whitespace() {
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
