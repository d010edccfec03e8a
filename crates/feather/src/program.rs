//! Ahead-of-time graph compilation: lower a planned [`GraphSession`] into a
//! flat, serializable [`Program`] of ops and replay it with zero per-layer
//! planning and zero accounting — the accelerator-as-ISA execution model.
//!
//! FEATHER switches dataflows at negligible cost because nothing is decided
//! at run time: every layer's dataflow, layout and BIRRD configurations are
//! fixed offline and the controller only plays them back. A graph runs here
//! the same way. Walking the DAG — consumer counts, scratch keys, per-layer
//! context builds, hashed route-cache lookups — and the whole
//! cycle/conflict/traffic accounting depend on the plan, never on the data,
//! so all of it happens once, in a compile, and [`GraphSession::run`] is a
//! replay of the result:
//!
//! * **[`Program`]** — a linear op stream (`Stage`, `Fire`, `Reorder`,
//!   `Swap`, `Drain`, `Join`, `Park`/`Unpark`) with every layout, cell index
//!   table, scratch move and BIRRD pass resolved at compile time. Passes live
//!   constant-folded in one program-wide, deduplicated route table; each
//!   layer keeps only its stream of slot indices. A `Program` is a cheaply
//!   clonable handle: the session that compiled it, every
//!   [`GraphSession::compile`] caller and every [`ProgramSession`] share one
//!   set of tables.
//! * **[`Program::cost`]** — the exact report of one run, assembled once from
//!   what the compile-time record pass counts: the cost oracle for a
//!   (model, batch) pair, available without running a single MAC.
//! * **[`ProgramSession`]** — the executor: dispatches the op stream linearly
//!   as pure data movement and returns [`Program::cost`] with the one
//!   data-dependent count (join saturation) patched in. Outputs are
//!   bit-identical to [`crate::graph_session::run_graph_reference`] (the
//!   `program_equivalence` and `graph_equivalence` suites), and every
//!   compiled layer's cost equals what an accounted
//!   [`crate::NetworkSession::run`] over real data counts (this module's
//!   tests).
//! * **On-disk artifacts** — [`GraphSession::compile_cached`] persists
//!   programs under `FEATHER_CACHE_DIR/programs/` (next to layoutloop's
//!   co-search cache), keyed by a schedule fingerprint. Loading an artifact
//!   skips the compile pass entirely; the recorded route *requests* are
//!   re-routed deterministically and the per-layer cost counters are stored
//!   as integers, so artifacts stay small and the loaded program identical.
//!   Everything an artifact names is validated at load, so a damaged one is
//!   `Corrupt`, never a panic inside replay; a save replaces the file in one
//!   rename, so a concurrent reader sees the old artifact or the new one.
//! * **[`Program::dump`]** — a diffable text listing of exactly what a run
//!   will do and cost, locked down by a golden snapshot test.
//!
//! Routes and costs can be recorded without any input data because the
//! reduce-reorder pattern and the access pattern of every fire are pure
//! functions of layer geometry (the mapped-lane pattern and the layouts'
//! bank assignment) — never of activation or weight values. The compile pass
//! therefore runs the accounted tile loop once over zeroed buffers in record
//! mode — the only accounted pass a graph ever gets — and replay consumes the
//! recorded stream cursor-style from per-block offsets.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use feather_arch::energy::EnergyModel;
use feather_arch::graph::{NodeId, NodeOp, TensorId};
use feather_arch::tensor::{quantize_to_i8, quantize_value, saturating_add_i8, Tensor4};
use feather_arch::workload::{ConvKind, ConvLayer};
use feather_arch::ArchError;
use feather_birrd::{Birrd, ReductionRequest};
use feather_memsim::{AccessStats, LayoutView, PingPong, ScratchRegion};

use crate::accelerator::check_weight_shape;
use crate::config::FeatherConfig;
use crate::core::{
    replay_fire, run_conv_core, CoreRun, FlatPlan4, LayerExec, LayerStream, ReplayLayer,
    RouteExecution, RouteRecorder, RouteTable, SpanScratch,
};
use crate::graph_session::{pool_window_weights, widen, GraphSession, Step};
use crate::mapping::LayerMapping;
use crate::profile::{OpFamily, ProfileRow, ReplayProfile};
use crate::report::{GraphReport, GraphRun, JoinSummary, NetworkReport, SegmentSummary};
use crate::session::{iact_spec, layer_summary, oact_spec};

/// Format header of a serialized program artifact; bump on layout changes
/// (unknown versions degrade to a recompile, never to an error). v2 added
/// the trailing whole-file `checksum` line; v3 stores per-layer `cost`
/// counters and one program-wide `route` table, and dropped `threads=`.
const HEADER: &str = "feather-program v3";

/// Largest tensor (in elements) or route stream (in passes) an artifact may
/// declare: bounds what loading allocates before the contents are trusted.
const MAX_ARTIFACT_ELEMS: usize = 1 << 28;

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
pub(crate) enum LoadOutcome {
    /// Parsed, checksum-verified and validated.
    Loaded(Program),
    /// A file exists but is unusable (corrupt, truncated, or stale format).
    Corrupt,
    /// No file (or it is unreadable).
    Missing,
}

/// One slot of a program's tensor table: a graph tensor's id, its scratch
/// key and its batched run-time shape.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TensorSlot {
    /// The graph [`TensorId`] index.
    id: usize,
    /// Scratch-region key: the tensor's `TensorId::to_string`.
    key: String,
    /// `(N, C, H, W)` shape with the batch extent applied.
    shape: [usize; 4],
}

/// Where a compiled layer's weights come from at replay time.
#[derive(Debug, Clone)]
enum WeightSource {
    /// Supplied by the caller, keyed by graph node.
    Node(NodeId),
    /// Synthesized pooling-window constants (never streamed from DRAM).
    Pool(Tensor4<i8>),
}

/// What one layer costs, exactly as the compile-time record pass counted it:
/// the tile loop's counters and the access statistics of both StaB halves.
/// All integers — the floats of a report are re-derived by [`layer_summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerCost {
    core: CoreRun,
    iact: AccessStats,
    oact: AccessStats,
}

/// One fully-resolved layer of a compiled segment: what its `Fire` replays,
/// where its weights come from and what it costs.
#[derive(Debug, Clone)]
struct CompiledLayer {
    replay: ReplayLayer,
    weight: WeightSource,
    cost: LayerCost,
}

/// A compiled linear segment: its layers plus the graph-level flags that
/// drive DRAM accounting.
#[derive(Debug, Clone)]
struct CompiledSegment {
    /// Node names in execution order (one per layer).
    names: Vec<String>,
    /// Tensor-table slot the segment reads.
    input: usize,
    /// Tensor-table slot the segment produces.
    output: usize,
    /// The segment reads the graph input (its iAct staging hits DRAM).
    graph_input: bool,
    /// The segment produces the graph output (its oActs drain to DRAM).
    graph_output: bool,
    layers: Vec<CompiledLayer>,
}

/// A compiled residual join: where its two operands come from and where the
/// sum goes.
#[derive(Debug, Clone)]
struct JoinSpec {
    name: String,
    /// Tensor-table slot of the sum.
    output: usize,
    a: OperandSrc,
    b: OperandSrc,
    graph_output: bool,
}

/// How a join operand (or segment input) is acquired at replay time —
/// resolved at compile time from the graph's consumer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OperandSrc {
    /// The fresh StaB resident; `take` moves it out (last consumer),
    /// otherwise it is cloned and stays fresh.
    Fresh {
        /// This is the tensor's last consumer.
        take: bool,
    },
    /// The front of the unpark queue (a preceding [`Op::Unpark`] fetched it
    /// from the scratch region).
    Queue,
}

/// One instruction of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Acquire the segment input and stage it into the active StaB half.
    Stage {
        seg: usize,
        /// Source: the fresh register (`true`) or the unpark queue.
        fresh: bool,
        /// Move the fresh tensor out instead of leaving it in place.
        take: bool,
    },
    /// Run one layer's tile loop, replaying its recorded route stream.
    Fire { seg: usize, layer: usize },
    /// Boundary quantization in place (RIR already reordered the values).
    Reorder { seg: usize, layer: usize },
    /// Swap the StaB halves.
    Swap { seg: usize },
    /// Drain the segment output and quantize it into the fresh register.
    Drain { seg: usize },
    /// Perform a residual add.
    Join { join: usize },
    /// Park the displaced fresh tensor in the scratch region (it still has
    /// consumers).
    Park { tensor: usize },
    /// Fetch a parked tensor into the unpark queue; `free` releases the
    /// allocation (last consumer).
    Unpark { tensor: usize, free: bool },
}

/// A flat, replayable lowering of a planned graph: every layout, cell index,
/// BIRRD pass and scratch move resolved — and the whole report counted —
/// ahead of time. Produced by [`GraphSession::compile`], executed by
/// [`ProgramSession`] (and by [`GraphSession::run`]), serialized to the
/// `FEATHER_CACHE_DIR/programs/` artifact cache.
///
/// A `Program` is a handle to immutable tables: cloning it copies a pointer.
#[derive(Debug, Clone)]
pub struct Program {
    tables: Arc<Tables>,
}

/// Everything a [`Program`] holds, shared by all of its handles.
#[derive(Debug)]
struct Tables {
    name: String,
    config: FeatherConfig,
    batch: usize,
    quant_shift: u32,
    quant_zero: i8,
    /// Batched `(N, C, H, W)` shape of the graph input.
    input_shape: [usize; 4],
    /// Tensor-table slot of the graph input.
    input_slot: usize,
    fingerprint: u64,
    tensors: Vec<TensorSlot>,
    segments: Vec<CompiledSegment>,
    joins: Vec<JoinSpec>,
    ops: Vec<Op>,
    /// Every BIRRD pass of every layer, folded and deduplicated.
    routes: RouteTable,
    /// The report of one run with no join saturation — see [`Program::cost`].
    cost: GraphReport,
}

impl Tables {
    /// The profile row of one executed `op`: its family and owner, with the
    /// layer's modelled cost on `Fire` rows.
    fn profile_row(&self, op: Op, wall_ns: u64) -> ProfileRow {
        let layer_of = |seg: usize, layer: usize| self.segments[seg].names[layer].clone();
        let (family, segment, layer) = match op {
            Op::Stage { seg, .. } => (OpFamily::Stage, Some(seg), layer_of(seg, 0)),
            Op::Fire { seg, layer } => (OpFamily::Fire, Some(seg), layer_of(seg, layer)),
            Op::Reorder { seg, layer } => (OpFamily::Reorder, Some(seg), layer_of(seg, layer)),
            Op::Drain { seg } => {
                let last = self.segments[seg].layers.len() - 1;
                (OpFamily::Drain, Some(seg), layer_of(seg, last))
            }
            Op::Join { join } => (OpFamily::Join, None, self.joins[join].name.clone()),
            Op::Swap { seg } => (OpFamily::Other, Some(seg), String::new()),
            Op::Park { .. } | Op::Unpark { .. } => (OpFamily::Other, None, String::new()),
        };
        let mut row = ProfileRow {
            family,
            segment,
            layer,
            wall_ns,
            cycles: 0,
            macs: 0,
            passes: 0,
        };
        if let Op::Fire { seg, layer } = op {
            let cost = &self.segments[seg].layers[layer].cost;
            row.cycles = cost.core.cycles + cost.iact.conflict_stall_cycles;
            row.macs = cost.core.macs;
            row.passes = cost.core.birrd_passes;
        }
        row
    }
}

impl Program {
    /// The compiled graph's name.
    pub fn name(&self) -> &str {
        &self.tables.name
    }

    /// Samples per replayed run.
    pub fn batch(&self) -> usize {
        self.tables.batch
    }

    /// The hardware configuration the program was compiled for.
    pub fn config(&self) -> FeatherConfig {
        self.tables.config
    }

    /// The schedule fingerprint this program was compiled from — matches
    /// [`GraphSession::fingerprint`] of the originating session.
    pub fn fingerprint(&self) -> u64 {
        self.tables.fingerprint
    }

    /// Number of ops in the instruction stream.
    pub fn num_ops(&self) -> usize {
        self.tables.ops.len()
    }

    /// Total recorded route-stream entries (BIRRD passes) across all layers.
    pub fn route_fires(&self) -> usize {
        self.tables
            .segments
            .iter()
            .flat_map(|s| &s.layers)
            .map(|l| l.replay.routes.stream.len())
            .sum()
    }

    /// The exact cost of one run of this program — the cost oracle for its
    /// (model, batch) pair: cycles, stalls, MACs, BIRRD passes, buffer and
    /// scratch traffic, DRAM bytes and energy, per layer and in total, equal
    /// to the report [`GraphSession::run`] of the originating session
    /// returns for *any* input and weights. It is counted once, by the
    /// compile-time record pass (and stored in artifacts as integers), so
    /// reading it executes nothing.
    ///
    /// The one data-dependent field of a report, [`JoinSummary::saturated`],
    /// is zero here; every replay returns this report with that count
    /// patched in per sample.
    pub fn cost(&self) -> &GraphReport {
        &self.tables.cost
    }

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
    pub(crate) fn load_checked(path: &Path) -> LoadOutcome {
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

    /// A diffable text listing of exactly what a replayed run does and
    /// costs: the fabric, the tensor table, every compiled layer with its
    /// mapping, layouts, cost and route-stream size, the joins, the
    /// program-wide folded route table and the full op stream. The format is
    /// deterministic and locked by a golden snapshot test.
    pub fn dump(&self) -> String {
        let t = &*self.tables;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program \"{}\" fingerprint {:016x}",
            t.name, t.fingerprint
        );
        let _ = writeln!(
            out,
            "fabric {}x{} stab_lines={} strb_lines={}",
            t.config.rows, t.config.cols, t.config.stab_lines, t.config.strb_lines
        );
        let _ = writeln!(
            out,
            "batch {} quant shift={} zero={}",
            t.batch, t.quant_shift, t.quant_zero
        );
        let _ = writeln!(
            out,
            "input {} {:?}",
            t.tensors[t.input_slot].key, t.input_shape
        );
        let _ = writeln!(
            out,
            "cost cycles={} dram_bytes={} scratch_peak={}",
            t.cost.total_cycles(),
            t.cost.dram_bytes(),
            t.cost.scratch_peak_elems
        );
        let _ = writeln!(out, "tensors:");
        for slot in &t.tensors {
            let _ = writeln!(out, "  {} {:?}", slot.key, slot.shape);
        }
        let _ = writeln!(out, "segments:");
        for (si, seg) in t.segments.iter().enumerate() {
            let mut flags = String::new();
            if seg.graph_input {
                flags.push_str(" graph_input");
            }
            if seg.graph_output {
                flags.push_str(" graph_output");
            }
            let _ = writeln!(
                out,
                "  seg {si}: in={} out={}{}",
                t.tensors[seg.input].key, t.tensors[seg.output].key, flags
            );
            for (li, layer) in seg.layers.iter().enumerate() {
                let l = &layer.replay.tiling.layer;
                let m = &layer.replay.tiling.mapping;
                let kind = kind_token(l.kind);
                let weights = match &layer.weight {
                    WeightSource::Node(id) => format!("w={id}"),
                    WeightSource::Pool(_) => "w=pool".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    layer {li} {}: conv n{} m{} c{} {}x{} k{}x{} s{} p{} {kind} {weights}",
                    seg.names[li], l.n, l.m, l.c, l.h, l.w, l.r, l.s, l.stride, l.padding
                );
                let _ = writeln!(
                    out,
                    "      map m_rows={} c_cols={} q_cols={} iact={} oact={}",
                    m.m_rows, m.c_cols, m.q_cols, m.iact_layout, m.oact_layout
                );
                let cost = &layer.cost;
                let _ = writeln!(
                    out,
                    "      cost cycles={} stalls={} macs={} passes={} adds={}",
                    cost.core.cycles + cost.iact.conflict_stall_cycles,
                    cost.iact.conflict_stall_cycles,
                    cost.core.macs,
                    cost.core.birrd_passes,
                    cost.core.birrd_adds
                );
                let _ = writeln!(
                    out,
                    "      routes fires={} blocks={}",
                    layer.replay.routes.stream.len(),
                    layer.replay.routes.block_starts.len()
                );
            }
        }
        let _ = writeln!(out, "joins:");
        for (ji, join) in t.joins.iter().enumerate() {
            let _ = writeln!(
                out,
                "  join {ji} {}: out={} a={} b={}{}",
                join.name,
                t.tensors[join.output].key,
                operand_token(join.a),
                operand_token(join.b),
                if join.graph_output {
                    " graph_output"
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "routes:");
        for (slot, (c_cols, request)) in t.routes.requests().iter().enumerate() {
            let _ = write!(out, "  {slot:04} c_cols={c_cols}");
            let banks = request.group_destinations.values();
            for ((q_lane, cols), bank) in t.routes.pass_groups(slot).zip(banks) {
                let cols: Vec<u32> = cols.collect();
                let _ = write!(out, " q{q_lane}@bank{bank}<-{}", join_ints(&cols));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "ops:");
        for (i, op) in t.ops.iter().enumerate() {
            let text = match *op {
                Op::Stage { seg, fresh, take } => {
                    let src = match (fresh, take) {
                        (true, true) => "fresh move",
                        (true, false) => "fresh copy",
                        (false, _) => "queue",
                    };
                    format!("stage   seg={seg} src={src}")
                }
                Op::Fire { seg, layer } => format!("fire    seg={seg} layer={layer}"),
                Op::Reorder { seg, layer } => format!("reorder seg={seg} layer={layer}"),
                Op::Swap { seg } => format!("swap    seg={seg}"),
                Op::Drain { seg } => format!("drain   seg={seg}"),
                Op::Join { join } => format!("join    {}", t.joins[join].name),
                Op::Park { tensor } => format!("park    {}", t.tensors[tensor].key),
                Op::Unpark { tensor, free } => format!(
                    "unpark  {}{}",
                    t.tensors[tensor].key,
                    if free { " free" } else { "" }
                ),
            };
            let _ = writeln!(out, "  {i:04} {text}");
        }
        out
    }

    // ---------------------------------------------------------------- save

    fn serialize(&self) -> String {
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

/// Reusable replay allocations: the two StaB halves (plain `i32` cells, one
/// lane stripe per cell) and the NEST accumulators with the operand gather
/// row behind them. A
/// [`ProgramSession::run_with_scratch`] / [`run_batched_with_scratch`] call
/// grows them to what its program and lane count need and keeps them, so a
/// serving executor's steady state allocates no buffer memory. One scratch
/// belongs to one executor thread at a time (it is `&mut` for the whole run)
/// and serves any program and any lane count.
///
/// Replaying through a reused scratch is bit-identical to replaying through
/// a fresh one: every `Stage` and `Fire` zeroes the cells it is about to
/// use, every run starts from zeroed accumulators and a `Fire` writes the
/// gather row before it reads it, so nothing a previous run — even one that
/// panicked half-way — left behind is ever read.
///
/// [`run_batched_with_scratch`]: ProgramSession::run_batched_with_scratch
#[derive(Debug, Default)]
pub struct ReplayScratch {
    halves: [Vec<i32>; 2],
    acc: Vec<i32>,
}

impl ReplayScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Sizes the halves for `program` at `lanes` samples and zeroes the
    /// accumulators.
    fn provision(&mut self, program: &Tables, lanes: usize) {
        // The largest StaB half any layer addresses.
        let layers = program.segments.iter().flat_map(|s| &s.layers);
        let cells = layers
            .map(|l| l.replay.iact.cells().max(l.replay.oact.cells()))
            .max()
            .unwrap_or(0)
            * lanes;
        for half in &mut self.halves {
            if half.len() < cells {
                half.resize(cells, 0);
            }
        }
        // Zeroed accumulators, then the widest operand gather row.
        let operands = program.segments.iter().flat_map(|s| &s.layers);
        let operands = operands
            .map(|l| l.replay.operand_cells())
            .max()
            .unwrap_or(0);
        let accumulators = program.config.rows * program.config.cols;
        self.acc.clear();
        self.acc.resize((accumulators + operands) * lanes, 0);
    }
}

/// The graph-DAG replay executor: dispatches a compiled [`Program`]'s op
/// stream linearly. Cheap to clone (it holds a [`Program`] handle); safe to
/// use from multiple threads via `&self`.
#[derive(Debug, Clone)]
pub struct ProgramSession {
    program: Program,
}

impl ProgramSession {
    /// Wraps a compiled program for execution.
    pub fn new(program: Program) -> Self {
        ProgramSession { program }
    }

    /// The compiled program this session replays.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Replays the program — what [`GraphSession::run`] of the originating
    /// session does, outputs and report alike — with zero planning, hashing,
    /// weight cloning or accounting on the hot path.
    ///
    /// A replay is pure data movement. Cycles, stalls, buffer and scratch
    /// traffic, DRAM bytes and energy do not depend on activation or weight
    /// values, so they are not computed here at all: the returned report is
    /// a clone of [`Program::cost`] with each join's `saturated` count — the
    /// one number that is data — patched in. What a `Fire` does per call is
    /// one plain StaB cell read per mapped iAct into a gather row shared by
    /// all `m_rows` mapped rows, their MACs into local accumulators walked
    /// in order, then per recorded BIRRD pass one sum over each folded run
    /// of bus columns into its output cell, in place
    /// (`core::replay_fire`).
    ///
    /// `weights` is an input of every call and nothing derived from it
    /// outlives the call: each `Fire` looks its layer's tensor up by node,
    /// checks its shape, and multiplies against it where it lies — the
    /// weight-stationary NEST holds an address, not a copy.
    ///
    /// # Errors
    /// Returns an error on missing weights or operand shape mismatches.
    pub fn run(
        &self,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<GraphRun, ArchError> {
        self.run_with_scratch(&mut ReplayScratch::new(), iacts, weights)
    }

    /// [`ProgramSession::run`] reusing `scratch`'s buffer allocations across
    /// calls, so a serving executor's steady state allocates no buffer
    /// memory per request. Results are bit-identical to
    /// [`ProgramSession::run`] with a fresh scratch.
    ///
    /// # Errors
    /// Returns an error on missing weights or operand shape mismatches.
    pub fn run_with_scratch(
        &self,
        scratch: &mut ReplayScratch,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<GraphRun, ArchError> {
        let mut runs =
            self.run_batched_with_scratch(scratch, std::slice::from_ref(iacts), weights)?;
        Ok(runs.pop().expect("one run per sample"))
    }

    /// Replays the program once per input sample, executing every op a single
    /// time across all samples in lane-vectorized lockstep. Activations live
    /// in lane stripes (sample `l` occupies lane `l` of every StaB cell and
    /// accumulator), and each folded BIRRD pass gathers whole stripes. It is
    /// the same replay loop as [`ProgramSession::run`] — the scalar call is
    /// its one-lane specialisation — so the returned runs, outputs *and*
    /// reports, are bit-identical to calling `run` on each sample alone:
    /// every lane gets [`Program::cost`] with its own join saturation counts.
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_batched(
        &self,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        self.run_batched_with_scratch(&mut ReplayScratch::new(), iacts, weights)
    }

    /// [`ProgramSession::run_batched`] reusing `scratch`'s allocations across
    /// calls, the batched analogue of [`ProgramSession::run_with_scratch`].
    /// Results are bit-identical to [`ProgramSession::run_batched`] with a
    /// fresh scratch. Every entry point ends here, and here alone the lane
    /// count picks the loop: a batch of one sample — a lone serving request,
    /// or [`ProgramSession::run`] — gets the scalar (one-lane) specialisation.
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_batched_with_scratch(
        &self,
        scratch: &mut ReplayScratch,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        self.dispatch(scratch, iacts, weights, None)
    }

    /// [`ProgramSession::run_batched_with_scratch`] with a stopwatch around
    /// every op: the same replay loop, outputs and reports, plus one
    /// [`ProfileRow`] per executed op — family, segment, layer, wall
    /// nanoseconds — joined with what [`Program::cost`] charges that layer.
    /// The plain entry points hand the loop no sink and read no clock.
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_profiled(
        &self,
        scratch: &mut ReplayScratch,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<(Vec<GraphRun>, ReplayProfile), ArchError> {
        let mut profile = ReplayProfile::default();
        let runs = self.dispatch(scratch, iacts, weights, Some(&mut profile))?;
        Ok((runs, profile))
    }

    /// Picks the loop by lane count, with or without a profile sink.
    fn dispatch(
        &self,
        scratch: &mut ReplayScratch,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
        profile: Option<&mut ReplayProfile>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        match iacts.len() {
            0 => Err(ArchError::InvalidWorkload(
                "batched replay needs at least one sample".to_string(),
            )),
            1 => self.replay::<true>(scratch, iacts, weights, profile),
            _ => self.replay::<false>(scratch, iacts, weights, profile),
        }
    }

    /// The replay loop behind every entry point: one sample per lane,
    /// `SCALAR` pinning the lane count to 1 at compile time.
    fn replay<const SCALAR: bool>(
        &self,
        scratch: &mut ReplayScratch,
        samples: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
        mut profile: Option<&mut ReplayProfile>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        let p = &*self.program.tables;
        let lanes = samples.len();
        for sample in samples {
            if sample.shape() != p.input_shape {
                return Err(ArchError::ShapeMismatch(format!(
                    "graph input shape {:?}, expected {:?}",
                    sample.shape(),
                    p.input_shape
                )));
            }
        }
        scratch.provision(p, lanes);
        let ReplayScratch {
            halves: [ping, pong],
            acc,
        } = scratch;
        let (mut active, mut shadow) = (ping, pong);
        let (shift, zero) = (p.quant_shift, p.quant_zero);

        // One tensor per lane everywhere below. The fresh register starts
        // out borrowing the caller's samples; the scratch region is one slot
        // per tensor of the table.
        let mut fresh: Option<Cow<'_, [Tensor4<i8>]>> = Some(Cow::Borrowed(samples));
        let mut displaced: Option<Cow<'_, [Tensor4<i8>]>> = None;
        let mut queue: VecDeque<Vec<Tensor4<i8>>> = VecDeque::new();
        let mut parked: Vec<Option<Vec<Tensor4<i8>>>> = vec![None; p.tensors.len()];
        // Join saturation counts, join-major: the only data in a report.
        let mut saturated: Vec<u64> = Vec::with_capacity(p.joins.len() * lanes);
        let mut final_acc: Option<Vec<Tensor4<i32>>> = None;

        let broken = |what: &str| {
            ArchError::InvalidWorkload(format!("compiled program is inconsistent: {what}"))
        };

        for op in &p.ops {
            let started = profile.as_ref().map(|_| Instant::now());
            match *op {
                Op::Unpark { tensor, free } => {
                    let slot = &mut parked[tensor];
                    let data = if free { slot.take() } else { slot.clone() };
                    queue.push_back(data.ok_or_else(|| {
                        ArchError::InvalidWorkload(format!(
                            "tensor t{} consumed before being produced or after being freed",
                            p.tensors[tensor].id
                        ))
                    })?);
                }
                Op::Stage {
                    seg,
                    fresh: from_fresh,
                    take,
                } => {
                    let moved;
                    let input: &[Tensor4<i8>] = if !from_fresh {
                        moved = Cow::Owned(
                            queue
                                .pop_front()
                                .ok_or_else(|| broken("unpark queue is empty"))?,
                        );
                        &moved
                    } else if take {
                        moved = fresh
                            .take()
                            .ok_or_else(|| broken("fresh operand missing"))?;
                        &moved
                    } else {
                        fresh
                            .as_deref()
                            .ok_or_else(|| broken("fresh operand missing"))?
                    };
                    let first = &p.segments[seg].layers[0].replay;
                    let l = &first.tiling.layer;
                    let expected = [l.n, l.c, l.h, l.w];
                    if let Some(bad) = input.iter().find(|t| t.shape() != expected) {
                        return Err(ArchError::ShapeMismatch(format!(
                            "iacts shape {:?}, expected {:?}",
                            bad.shape(),
                            expected
                        )));
                    }
                    let cells = &mut active[..first.iact.cells() * lanes];
                    cells.fill(0);
                    first.iact.for_each_cell(|flat, cell| {
                        for (slot, tensor) in cells[cell * lanes..].iter_mut().zip(input) {
                            *slot = tensor.as_slice()[flat] as i32;
                        }
                    });
                }
                Op::Fire { seg, layer } => {
                    let cs = &p.segments[seg];
                    let cl = &cs.layers[layer];
                    let lw: &Tensor4<i8> = match &cl.weight {
                        WeightSource::Pool(w) => w,
                        WeightSource::Node(id) => weights.get(id).ok_or_else(|| {
                            ArchError::InvalidWorkload(format!(
                                "no weight tensor supplied for node `{}`",
                                cs.names[layer]
                            ))
                        })?,
                    };
                    check_weight_shape(&cl.replay.tiling.layer, lw)?;
                    shadow[..cl.replay.oact.cells() * lanes].fill(0);
                    replay_fire::<SCALAR>(
                        &cl.replay,
                        &p.routes,
                        lw.as_slice(),
                        active,
                        shadow,
                        acc,
                        lanes,
                    );
                }
                Op::Reorder { seg, layer } => {
                    let rl = &p.segments[seg].layers[layer].replay;
                    rl.oact.for_each_cell(|_, cell| {
                        for v in &mut shadow[cell * lanes..][..lanes] {
                            *v = quantize_value(*v, shift, zero) as i32;
                        }
                    });
                }
                Op::Swap { .. } => std::mem::swap(&mut active, &mut shadow),
                Op::Drain { seg } => {
                    let cs = &p.segments[seg];
                    let last = &cs.layers.last().expect("segments are non-empty").replay;
                    let l = &last.tiling.layer;
                    let shape = [l.n, l.m, l.output_height(), l.output_width()];
                    let quantized = if cs.graph_output {
                        let accs = drain_lanes(&last.oact, shape, active, lanes, |v| v);
                        let quantized = accs
                            .iter()
                            .map(|acc| quantize_to_i8(acc, shift, zero))
                            .collect();
                        final_acc = Some(accs);
                        quantized
                    } else {
                        let quantize = |v| quantize_value(v, shift, zero);
                        drain_lanes(&last.oact, shape, active, lanes, quantize)
                    };
                    displaced = fresh.replace(Cow::Owned(quantized));
                }
                Op::Join { join } => {
                    let spec = &p.joins[join];
                    let a = take_operand(spec.a, &mut fresh, &mut queue, &broken)?;
                    let b = take_operand(spec.b, &mut fresh, &mut queue, &broken)?;
                    let mut sums: Vec<Tensor4<i8>> = Vec::with_capacity(lanes);
                    for (la, lb) in a.iter().zip(b.iter()) {
                        let (sum, clamped) = saturating_add_i8(la, lb)?;
                        saturated.push(clamped);
                        sums.push(sum);
                    }
                    if spec.graph_output {
                        final_acc = Some(sums.iter().map(widen).collect());
                    }
                    displaced = fresh.replace(Cow::Owned(sums));
                }
                Op::Park { tensor } => {
                    let data = displaced
                        .take()
                        .ok_or_else(|| broken("park without a displaced tensor"))?;
                    parked[tensor] = Some(data.into_owned());
                }
            }
            if let (Some(profile), Some(started)) = (profile.as_deref_mut(), started) {
                let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                profile.rows.push(p.profile_row(*op, wall_ns));
            }
        }

        let final_acc = final_acc.ok_or_else(|| broken("no op produced the graph output"))?;
        if saturated.len() != p.cost.joins.len() * lanes {
            return Err(broken("a join did not cover every lane"));
        }
        Ok(final_acc
            .into_iter()
            .enumerate()
            .map(|(lane, oacts)| {
                let mut report = p.cost.clone();
                for (join, summary) in report.joins.iter_mut().enumerate() {
                    summary.saturated = saturated[join * lanes + lane];
                }
                GraphRun { oacts, report }
            })
            .collect())
    }
}

/// Drains a layer's oAct cells (addressed by `plan`, `lanes` per cell) into
/// one `shape`d tensor per lane through `map`, visiting each cell once.
fn drain_lanes<T: Copy + Default>(
    plan: &FlatPlan4,
    shape: [usize; 4],
    cells: &[i32],
    lanes: usize,
    map: impl Fn(i32) -> T,
) -> Vec<Tensor4<T>> {
    let mut tensors: Vec<Tensor4<T>> = (0..lanes).map(|_| Tensor4::zeros(shape)).collect();
    plan.for_each_cell(|flat, cell| {
        for (tensor, &v) in tensors.iter_mut().zip(&cells[cell * lanes..]) {
            tensor.as_mut_slice()[flat] = map(v);
        }
    });
    tensors
}

/// Resolves a join operand (one tensor per lane) from the fresh register or
/// the unpark queue.
fn take_operand<'a>(
    src: OperandSrc,
    fresh: &mut Option<Cow<'a, [Tensor4<i8>]>>,
    queue: &mut VecDeque<Vec<Tensor4<i8>>>,
    broken: &impl Fn(&str) -> ArchError,
) -> Result<Cow<'a, [Tensor4<i8>]>, ArchError> {
    match src {
        OperandSrc::Fresh { take: true } => {
            fresh.take().ok_or_else(|| broken("fresh operand missing"))
        }
        OperandSrc::Fresh { take: false } => {
            fresh.clone().ok_or_else(|| broken("fresh operand missing"))
        }
        OperandSrc::Queue => queue
            .pop_front()
            .map(Cow::Owned)
            .ok_or_else(|| broken("unpark queue is empty")),
    }
}

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
/// that defines it. `None` when the stream is inconsistent — an index past
/// its table, an op outside its segment's `Stage`…`Drain` bracket, a fetch of
/// a tensor that is not parked — which is also what makes every index the
/// replay loop and [`Program::dump`] follow safe.
fn cost_of(
    config: &FeatherConfig,
    energy: &EnergyModel,
    tensors: &[TensorSlot],
    segments: &[CompiledSegment],
    joins: &[JoinSpec],
    ops: &[Op],
) -> Option<GraphReport> {
    let elems = |tensor: usize| -> Option<usize> {
        let shape = tensors.get(tensor)?.shape;
        let elems = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
        (elems <= MAX_ARTIFACT_ELEMS).then_some(elems)
    };
    for seg in segments {
        tensors.get(seg.input)?;
        tensors.get(seg.output)?;
    }
    let mut scratch: ScratchRegion<i8> = ScratchRegion::new(config.cols.max(1));
    let mut report = GraphReport {
        segments: Vec::with_capacity(segments.len()),
        joins: Vec::with_capacity(joins.len()),
        scratch: AccessStats::new(),
        scratch_peak_elems: 0,
    };
    // The segment between its Stage and Drain: (index, staged from the
    // scratch region, swaps so far).
    let mut in_flight: Option<(usize, bool, u64)> = None;
    for op in ops {
        match *op {
            Op::Stage { seg, fresh, .. } => {
                segments.get(seg)?;
                in_flight = Some((seg, !fresh, 0));
            }
            Op::Fire { seg, layer } | Op::Reorder { seg, layer } => {
                segments.get(seg)?.layers.get(layer)?;
                in_flight.filter(|(s, ..)| *s == seg)?;
            }
            Op::Swap { seg } => {
                let (_, _, swaps) = in_flight.as_mut().filter(|(s, ..)| *s == seg)?;
                *swaps += 1;
            }
            Op::Drain { seg } => {
                let (_, input_from_scratch, stab_swaps) =
                    in_flight.take().filter(|(s, ..)| *s == seg)?;
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
            Op::Join { join } => {
                let spec = joins.get(join)?;
                report.joins.push(JoinSummary {
                    name: spec.name.clone(),
                    elements: elems(spec.output)? as u64,
                    saturated: 0,
                });
            }
            Op::Park { tensor } => {
                scratch.park(tensors.get(tensor)?.key.clone(), vec![0; elems(tensor)?]);
            }
            Op::Unpark { tensor, free } => {
                let key = &tensors.get(tensor)?.key;
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
/// [`GraphSession::compile`], once per session.
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

    // Compile every segment: build the owned layer contexts and run each
    // layer's accounted tile loop once over zeroed buffers, through the StaB
    // sequence of a chain run (`NetworkSession::run`). Routes and costs are
    // data-independent, so this one pass records the BIRRD pass stream every
    // replay will consume and counts what every replay will report.
    let mut segments: Vec<CompiledSegment> = Vec::with_capacity(session.segments.len());
    let mut span_scratch = SpanScratch::new(config.rows, config.cols);
    let mut recorder = RouteRecorder::default();
    for exec in &session.segments {
        let seg = &exec.segment;
        let steps = exec.session.steps();
        let route_cache = exec.session.route_cache();
        let mut layers: Vec<CompiledLayer> = Vec::with_capacity(steps.len());
        let mut names: Vec<String> = Vec::with_capacity(steps.len());

        let mut stab: PingPong<i32> = PingPong::new(iact_spec(&steps[0].0, &steps[0].1));
        for (i, (layer, mapping)) in steps.iter().enumerate() {
            let node = graph.node(seg.nodes[i]);
            names.push(node.name.clone());
            let weight = match &node.op {
                NodeOp::PoolAsConv(_) => WeightSource::Pool(pool_window_weights(layer)),
                _ => WeightSource::Node(node.id),
            };
            let zero_weights = match &weight {
                WeightSource::Pool(w) => w.clone(),
                WeightSource::Node(_) => {
                    Tensor4::zeros(node.weight_shape().expect("conv-like nodes carry weights"))
                }
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
            let iact_base = *stab.active_ref().stats();
            let oact_base = *stab.shadow_ref().stats();
            let core = {
                let (active, shadow) = stab.split_mut();
                let mut iact_view = LayoutView::new(active, &mapping.iact_layout, &idims);
                let mut oact_view = LayoutView::new(shadow, &mapping.oact_layout, &odims);
                run_conv_core(
                    &exec,
                    &zero_weights,
                    &mut iact_view,
                    &mut oact_view,
                    RouteExecution::Collect(route_cache, &mut recorder),
                    i == 0,
                    &mut span_scratch,
                )?
            };
            let cost = LayerCost {
                core,
                iact: stab.active_ref().stats().since(&iact_base),
                oact: stab.shadow_ref().stats().since(&oact_base),
            };
            stab.swap();

            layers.push(CompiledLayer {
                replay: ReplayLayer::new(
                    exec,
                    ispec.capacity(),
                    ospec.capacity(),
                    recorder.finish_layer(),
                )?,
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
    debug_assert!(
        segments
            .iter()
            .flat_map(|s| &s.layers)
            .all(|l| l.replay.stream_is_sound(&routes)),
        "a recorded stream is sound by construction"
    );
    let cost = cost_of(
        &config,
        &session.energy_model,
        &tensors,
        &segments,
        &joins,
        &ops,
    )
    .ok_or_else(|| {
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
pub(crate) fn compile_cached_in(
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
fn artifact_path(dir: &Path, name: &str, batch: usize, fingerprint: u64) -> PathBuf {
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

/// FNV-1a 64-bit hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
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
fn parse_program(text: &str) -> Option<Program> {
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

fn kind_token(kind: ConvKind) -> &'static str {
    match kind {
        ConvKind::Standard => "standard",
        ConvKind::Depthwise => "depthwise",
        ConvKind::Pointwise => "pointwise",
    }
}

fn parse_kind(token: &str) -> Option<ConvKind> {
    match token {
        "standard" => Some(ConvKind::Standard),
        "depthwise" => Some(ConvKind::Depthwise),
        "pointwise" => Some(ConvKind::Pointwise),
        _ => None,
    }
}

fn operand_token(src: OperandSrc) -> &'static str {
    match src {
        OperandSrc::Fresh { take: true } => "fresh_move",
        OperandSrc::Fresh { take: false } => "fresh_copy",
        OperandSrc::Queue => "queue",
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

fn join_ints<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
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
fn rle_encode(values: &[u32]) -> String {
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
fn rle_decode(line: &str) -> Option<Vec<u32>> {
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
fn esc(s: &str) -> String {
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
fn unesc(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_session::run_graph_reference;
    use feather_arch::graph::Graph;
    use feather_arch::tensor::conv2d_reference;

    fn residual_graph() -> Graph {
        let mut g = Graph::new("residual", [1, 4, 6, 6]);
        let stem = g
            .conv(
                g.input(),
                ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                    .with_padding(1)
                    .with_name("stem"),
            )
            .unwrap();
        let main = g
            .conv(
                stem,
                ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_main"),
            )
            .unwrap();
        let proj = g
            .conv(
                stem,
                ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_proj"),
            )
            .unwrap();
        let j0 = g.add(main, proj, "b0_add").unwrap();
        let main1 = g
            .conv(
                j0,
                ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                    .with_padding(1)
                    .with_name("b1_main"),
            )
            .unwrap();
        let j1 = g.add(main1, j0, "b1_add").unwrap();
        g.conv(j1, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
            .unwrap();
        g
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "feather-program-test-{tag}-{}.program",
            std::process::id()
        ))
    }

    /// The golden output of `session`'s graph for these operands.
    fn reference(
        session: &GraphSession,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Tensor4<i32> {
        let (shift, zero) = session.quantization();
        run_graph_reference(session.graph(), iacts, weights, shift, zero).unwrap()
    }

    /// A session's `run` and a `ProgramSession` over its `compile()` are the
    /// same replay, and both produce the reference executor's output.
    #[test]
    fn replay_matches_interpreted_run_exactly() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 11);
        let weights = g.random_weights(12);
        let run = session.run(&iacts, &weights).unwrap();
        let program = session.compile().unwrap();
        let replayed = ProgramSession::new(program).run(&iacts, &weights).unwrap();
        assert_eq!(replayed.oacts, reference(&session, &iacts, &weights));
        assert_eq!(run.oacts, replayed.oacts);
        assert_eq!(run.report, replayed.report);
    }

    #[test]
    fn replay_is_reusable_and_thread_invariant() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 21);
        let weights = g.random_weights(22);
        let golden = reference(&session, &iacts, &weights);
        let replay = ProgramSession::new(session.compile().unwrap());
        // Replay twice (a serving process reuses one program) and from
        // several threads at once through the shared `&self` — all
        // bit-identical.
        let first = replay.run(&iacts, &weights).unwrap();
        let second = replay.run(&iacts, &weights).unwrap();
        assert_eq!(first.oacts, golden);
        assert_eq!(second.report, first.report);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| replay.run(&iacts, &weights).unwrap()))
                .collect();
            for handle in handles {
                let run = handle.join().unwrap();
                assert_eq!(run.oacts, golden);
                assert_eq!(run.report, first.report);
            }
        });
    }

    /// The cost oracle: available without executing anything, equal to a
    /// run's report up to join saturation, and preserved by artifacts. (What
    /// pins it to the accounted simulator is
    /// `compiled_layer_costs_equal_accounted_real_data_runs`.)
    #[test]
    fn cost_is_the_interpreted_report_without_saturation() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let program = session.compile().unwrap();
        let run = session
            .run(&Tensor4::random([1, 4, 6, 6], 5), &g.random_weights(6))
            .unwrap();
        let mut expected = run.report;
        expected.joins.iter_mut().for_each(|j| j.saturated = 0);
        assert_eq!(program.cost(), &expected);
        assert!(program.cost().total_cycles() > 0);
        let reloaded = parse_program(&program.serialize()).expect("artifact loads");
        assert_eq!(reloaded.cost(), program.cost());
    }

    /// `build_ragged_dag` of `tests/program_equivalence.rs`: channel counts
    /// that do not tile the array, an optional stride-2 stem, an optional
    /// depthwise layer, padded 3×3 kernels and one residual join with an
    /// identity or projected shortcut.
    fn ragged_dag(
        [c_in, c_mid, c_out, hw]: [usize; 4],
        stride2: bool,
        depthwise: bool,
        identity: bool,
    ) -> Graph {
        let mut g = Graph::new("ragged_dag", [1, c_in, hw, hw]);
        let stride = if stride2 { 2 } else { 1 };
        let stem = ConvLayer::new(1, c_mid, c_in, hw, hw, 3, 3)
            .with_stride(stride)
            .with_padding(1)
            .with_name("stem");
        let mut cur = g.conv(g.input(), stem).unwrap();
        let hw = (hw + 2 - 3) / stride + 1;
        let conv3 = |name: &str| {
            ConvLayer::new(1, c_mid, c_mid, hw, hw, 3, 3)
                .with_padding(1)
                .with_name(name)
        };
        if depthwise {
            cur = g.conv(cur, conv3("dw").depthwise()).unwrap();
        }
        let block_input = cur;
        cur = g.conv(cur, conv3("main")).unwrap();
        let shortcut = if identity {
            block_input
        } else {
            let proj = ConvLayer::new(1, c_mid, c_mid, hw, hw, 1, 1).with_name("proj");
            g.conv(block_input, proj).unwrap()
        };
        cur = g.add(cur, shortcut, "add").unwrap();
        let head = ConvLayer::new(1, c_out, c_mid, hw, hw, 1, 1).with_name("head");
        g.conv(cur, head).unwrap();
        g
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The record pass runs over zeros, and nothing but a replay ever
        /// runs a graph — so this is where compiled costs meet the accounted
        /// simulator: every segment's chain run over real data (zero,
        /// extreme and random operands, modelled batches 1–3) must count,
        /// layer by layer, exactly what the program says the layer costs.
        #[test]
        fn compiled_layer_costs_equal_accounted_real_data_runs(
            dims in proptest::collection::vec(1usize..7, 3),
            hw in 4usize..8,
            stride2 in 0usize..2,
            depthwise in 0usize..2,
            identity in 0usize..2,
            batch in 1usize..4,
            seed in 0u64..100,
        ) {
            let g = ragged_dag(
                [dims[0], dims[1], dims[2], hw],
                stride2 == 1,
                depthwise == 1,
                identity == 1,
            );
            let solo = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
            let session = solo.with_batch(batch).unwrap();
            let program = session.compile().unwrap();
            // `cost().segments` is in drain order: the plan's.
            let drained: Vec<usize> = session
                .plan
                .iter()
                .filter_map(|step| match *step {
                    Step::Segment(si) => Some(si),
                    Step::Join(_) => None,
                })
                .collect();

            for fill in [Some(0), Some(i8::MIN), Some(i8::MAX), None] {
                let operand = |shape: [usize; 4], seed: u64| match fill {
                    Some(value) => Tensor4::from_fn(shape, |_, _, _, _| value),
                    None => Tensor4::random(shape, seed),
                };
                let compiled = session.segments.iter().zip(&program.tables.segments);
                for (si, (exec, segment)) in compiled.enumerate() {
                    let first = &exec.session.steps()[0].0;
                    let iacts = operand([first.n, first.c, first.h, first.w], seed);
                    let weights: Vec<Tensor4<i8>> = segment
                        .layers
                        .iter()
                        .zip(1u64..)
                        .map(|(layer, i)| match &layer.weight {
                            WeightSource::Pool(window) => window.clone(),
                            WeightSource::Node(id) => {
                                operand(g.node(*id).weight_shape().unwrap(), seed + i)
                            }
                        })
                        .collect();
                    let run = exec.session.run(&iacts, &weights).unwrap();

                    prop_assert_eq!(run.report.layers.len(), segment.layers.len());
                    for (counted, layer) in run.report.layers.iter().zip(&segment.layers) {
                        let r = &counted.report;
                        let LayerCost { core, iact, oact } = layer.cost;
                        prop_assert_eq!(r.cycles - r.stall_cycles, core.cycles, "{}", counted.name);
                        prop_assert_eq!(r.stall_cycles, iact.conflict_stall_cycles);
                        prop_assert_eq!(
                            (r.macs, r.birrd_passes, r.birrd_adds),
                            (core.macs, core.birrd_passes, core.birrd_adds)
                        );
                        prop_assert_eq!(r.iact_stats, iact, "{} iact", counted.name);
                        prop_assert_eq!(r.oact_stats, oact, "{} oact", counted.name);
                    }
                    let at = drained.iter().position(|&d| d == si).unwrap();
                    let summary = &program.cost().segments[at];
                    prop_assert_eq!(run.report.stab_swaps, summary.report.stab_swaps);
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_retargets_across_programs() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(42);
        let replay = ProgramSession::new(session.compile().unwrap());
        let batched = ProgramSession::new(session.with_batch(2).unwrap().compile().unwrap());

        let mut scratch = ReplayScratch::new();
        for seed in 0..3u64 {
            // Different inputs through one reused scratch: each run must
            // match a fresh-scratch run exactly (outputs and full report),
            // i.e. no state may leak between requests.
            let iacts = Tensor4::random([1, 4, 6, 6], 50 + seed);
            let fresh = replay.run(&iacts, &weights).unwrap();
            let reused = replay
                .run_with_scratch(&mut scratch, &iacts, &weights)
                .unwrap();
            assert_eq!(reused.oacts, fresh.oacts, "seed {seed} outputs diverged");
            assert_eq!(reused.report, fresh.report, "seed {seed} report diverged");
        }

        // Handing the same scratch a different program (the batch-2 variant)
        // retargets the stash instead of corrupting the run.
        let iacts2 = Tensor4::random([2, 4, 6, 6], 60);
        let fresh2 = batched.run(&iacts2, &weights).unwrap();
        let reused2 = batched
            .run_with_scratch(&mut scratch, &iacts2, &weights)
            .unwrap();
        assert_eq!(reused2.oacts, fresh2.oacts);
        assert_eq!(reused2.report, fresh2.report);

        // And back again, still exact.
        let iacts3 = Tensor4::random([1, 4, 6, 6], 70);
        let fresh3 = replay.run(&iacts3, &weights).unwrap();
        let reused3 = replay
            .run_with_scratch(&mut scratch, &iacts3, &weights)
            .unwrap();
        assert_eq!(reused3.oacts, fresh3.oacts);
        assert_eq!(reused3.report, fresh3.report);
    }

    /// The gather row behind the accumulators and the drained (not
    /// re-zeroed) accumulator rows are the only state a `Fire` leaves in a
    /// scratch: after eight lanes, one lane and then another program's
    /// geometry — halo-only taps in both Phase-1 loop orders, a depthwise
    /// layer — a reused scratch still equals a fresh one.
    #[test]
    fn scratch_carries_nothing_across_lane_counts_and_programs() {
        let padded = |name: &str, m, c, hw, r, s| {
            ConvLayer::new(1, m, c, hw, hw, r, s)
                .with_padding(2)
                .with_name(name)
        };
        // Window-major (25 taps over 3 channels), then bus-major with lanes
        // whose pixel is padding.
        let mut wide = Graph::new("wide", [1, 3, 5, 5]);
        let stem = wide
            .conv(wide.input(), padded("stem", 3, 3, 5, 5, 5))
            .unwrap();
        wide.conv(stem, padded("point", 5, 3, 5, 1, 1)).unwrap();
        let mut deep = Graph::new("deep", [1, 7, 5, 5]);
        let dw = padded("dw", 7, 7, 5, 3, 3).depthwise();
        let dw = deep.conv(deep.input(), dw).unwrap();
        deep.conv(dw, padded("tall", 9, 7, 7, 3, 1)).unwrap();

        let compiled = |g: &Graph, rows, cols| {
            let session = GraphSession::auto(FeatherConfig::new(rows, cols), g).unwrap();
            ProgramSession::new(session.compile().unwrap())
        };
        let wide_run = (&wide, compiled(&wide, 4, 8), wide.random_weights(3));
        let deep_run = (&deep, compiled(&deep, 4, 4), deep.random_weights(4));
        let wide_samples: Vec<Tensor4<i8>> = (0..8u64)
            .map(|seed| Tensor4::random([1, 3, 5, 5], 100 + seed))
            .collect();
        let deep_sample = [Tensor4::random([1, 7, 5, 5], 200)];

        let mut scratch = ReplayScratch::new();
        let steps = [
            (&wide_run, &wide_samples[..]),
            (&wide_run, &wide_samples[7..]),
            (&deep_run, &deep_sample[..]),
            (&wide_run, &wide_samples[..3]),
        ];
        for (step, ((graph, replay, weights), samples)) in steps.into_iter().enumerate() {
            let fresh = replay.run_batched(samples, weights).unwrap();
            let reused = replay
                .run_batched_with_scratch(&mut scratch, samples, weights)
                .unwrap();
            let (shift, zero) = (
                replay.program.tables.quant_shift,
                replay.program.tables.quant_zero,
            );
            for (lane, sample) in samples.iter().enumerate() {
                let golden = run_graph_reference(graph, sample, weights, shift, zero).unwrap();
                assert_eq!(fresh[lane].oacts, golden, "step {step} lane {lane}");
                assert_eq!(reused[lane].oacts, golden, "step {step} lane {lane} reused");
                assert_eq!(reused[lane].report, fresh[lane].report);
            }
        }
    }

    /// A profiled replay is the same replay — outputs and reports — with
    /// one row per executed op whose `Fire` rows carry the layers' modelled
    /// cost exactly once.
    #[test]
    fn profiled_replay_equals_run_and_accounts_for_every_op() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(52);
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..3u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 50 + seed))
            .collect();
        for lanes in [1usize, 3] {
            let batch = &samples[..lanes];
            let plain = replay.run_batched(batch, &weights).unwrap();
            let (runs, profile) = replay
                .run_profiled(&mut ReplayScratch::new(), batch, &weights)
                .unwrap();
            for (run, plain) in runs.iter().zip(&plain) {
                assert_eq!(run.oacts, plain.oacts);
                assert_eq!(run.report, plain.report);
            }
            assert_eq!(profile.rows.len(), replay.program().num_ops());

            let cost = replay.program().cost();
            let fires = profile.rows.iter().filter(|r| r.family == OpFamily::Fire);
            assert_eq!(fires.clone().count(), cost.layers().count());
            assert_eq!(
                fires.clone().map(|r| r.macs).sum::<u64>(),
                cost.total_macs()
            );
            assert_eq!(fires.map(|r| r.cycles).sum::<u64>(), cost.total_cycles());
            let others = profile.rows.iter().filter(|r| r.family != OpFamily::Fire);
            assert!(others.clone().all(|r| r.macs == 0 && r.cycles == 0));

            // Every op of a layer lands in that layer's sum; families tile
            // the whole.
            let total: u64 = profile.rows.iter().map(|r| r.wall_ns).sum();
            let by_family: u64 = profile.by_family().iter().map(|(_, ns)| ns).sum();
            assert_eq!(by_family, total);
            let by_layer = profile.by_layer();
            assert_eq!(by_layer.len(), cost.layers().count() + cost.joins.len());
            assert_eq!(
                by_layer.iter().map(|l| l.macs).sum::<u64>(),
                cost.total_macs()
            );
            let other: u64 = others
                .filter(|r| r.layer.is_empty())
                .map(|r| r.wall_ns)
                .sum();
            assert_eq!(
                by_layer.iter().map(|l| l.wall_ns).sum::<u64>() + other,
                total
            );
        }
        let no_samples = replay.run_profiled(&mut ReplayScratch::new(), &[], &weights);
        assert!(no_samples.is_err());
    }

    #[test]
    fn run_batched_is_bit_identical_to_solo_replays() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(82);
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..4u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 80 + seed))
            .collect();

        let mut scratch = ReplayScratch::new();
        for lanes in [1usize, 2, 4] {
            let batch = &samples[..lanes];
            let fresh = replay.run_batched(batch, &weights).unwrap();
            let reused = replay
                .run_batched_with_scratch(&mut scratch, batch, &weights)
                .unwrap();
            assert_eq!(fresh.len(), lanes);
            for (lane, sample) in batch.iter().enumerate() {
                let solo = replay.run(sample, &weights).unwrap();
                assert_eq!(fresh[lane].oacts, solo.oacts, "lane {lane} outputs");
                assert_eq!(fresh[lane].report, solo.report, "lane {lane} report");
                assert_eq!(reused[lane].oacts, solo.oacts, "lane {lane} reused outputs");
                assert_eq!(
                    reused[lane].report, solo.report,
                    "lane {lane} reused report"
                );
            }
        }
        assert!(replay.run_batched(&[], &weights).is_err());
    }

    /// Weights are a per-call input: nothing derived from one call's weight
    /// map may survive into the next, whatever is reused between them.
    #[test]
    fn alternating_weight_maps_through_one_session_and_scratch() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let (shift, zero) = session.quantization();
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..4u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 90 + seed))
            .collect();
        let weight_maps = [g.random_weights(7), g.random_weights(1007)];
        assert_ne!(weight_maps[0], weight_maps[1]);
        let golden = |sample: &Tensor4<i8>, which: usize| {
            run_graph_reference(&g, sample, &weight_maps[which], shift, zero).unwrap()
        };
        // Join saturation is the one data-dependent count in a report.
        let accounting = |run: &GraphRun| {
            let mut report = run.report.clone();
            report.joins.iter_mut().for_each(|j| j.saturated = 0);
            report
        };

        let mut scratch = ReplayScratch::new();
        let mut lane_scratch = ReplayScratch::new();
        let mut reports = Vec::new();
        for round in 0..4 {
            let which = round % 2;
            let weights = &weight_maps[which];
            let fresh = replay.run(&samples[0], weights).unwrap();
            let reused = replay
                .run_with_scratch(&mut scratch, &samples[0], weights)
                .unwrap();
            assert_eq!(fresh.oacts, golden(&samples[0], which), "round {round} run");
            assert_eq!(reused.oacts, fresh.oacts, "round {round} run_with_scratch");
            reports.push(accounting(&fresh));
            reports.push(accounting(&reused));
            for lanes in [1usize, 4] {
                let fresh = replay.run_batched(&samples[..lanes], weights).unwrap();
                let reused = replay
                    .run_batched_with_scratch(&mut lane_scratch, &samples[..lanes], weights)
                    .unwrap();
                for (lane, sample) in samples[..lanes].iter().enumerate() {
                    let want = golden(sample, which);
                    assert_eq!(fresh[lane].oacts, want, "round {round} lane {lane}/{lanes}");
                    assert_eq!(
                        reused[lane].oacts, want,
                        "round {round} lane {lane}/{lanes}"
                    );
                    reports.push(accounting(&fresh[lane]));
                    reports.push(accounting(&reused[lane]));
                }
            }
        }
        // Cycles, traffic and energy never depend on the weight values.
        assert!(reports.iter().all(|r| *r == reports[0]));
    }

    /// The in-place weight addressing on its awkward shapes: ragged `(M, C)`
    /// tail tiles under a strided, padded 3×3 kernel, and the depthwise
    /// `[C, 1, R, S]` filter layout — through every replay flavour.
    #[test]
    fn ragged_and_depthwise_layers_replay_to_the_reference_convolution() {
        let ragged = ConvLayer::new(1, 7, 11, 9, 9, 3, 3)
            .with_stride(2)
            .with_padding(1)
            .with_name("ragged");
        let depthwise = ConvLayer::new(1, 6, 6, 9, 9, 3, 3)
            .with_padding(1)
            .depthwise()
            .with_name("depthwise");
        for layer in [ragged, depthwise] {
            let mut g = Graph::new(&layer.name, [layer.n, layer.c, layer.h, layer.w]);
            g.conv(g.input(), layer.clone()).unwrap();
            let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
            let program = session.compile().unwrap();
            let mapping = &program.tables.segments[0].layers[0].replay.tiling.mapping;
            assert_ne!(
                layer.m % mapping.m_rows,
                0,
                "{}: M tiles evenly",
                layer.name
            );
            if !layer.is_depthwise() {
                assert_ne!(
                    layer.c % mapping.c_cols,
                    0,
                    "{}: C tiles evenly",
                    layer.name
                );
            }

            let weights = g.random_weights(31);
            let filter = weights.values().next().unwrap();
            let samples: Vec<Tensor4<i8>> = (0..3u64)
                .map(|seed| Tensor4::random([layer.n, layer.c, layer.h, layer.w], 40 + seed))
                .collect();
            let golden: Vec<Tensor4<i32>> = samples
                .iter()
                .map(|sample| conv2d_reference(&layer, sample, filter).unwrap())
                .collect();

            let replay = ProgramSession::new(program);
            for (sample, want) in samples.iter().zip(&golden) {
                assert_eq!(&session.run(sample, &weights).unwrap().oacts, want);
                assert_eq!(&replay.run(sample, &weights).unwrap().oacts, want);
            }
            let lanes = replay.run_batched(&samples, &weights).unwrap();
            for (lane, want) in lanes.iter().zip(&golden) {
                assert_eq!(&lane.oacts, want, "{} batched", layer.name);
            }
        }
    }

    #[test]
    fn artifact_roundtrip_preserves_program_and_results() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let program = session.compile().unwrap();
        let path = temp_path("roundtrip");
        program.save_to(&path).unwrap();
        let loaded = Program::load_from(&path).expect("artifact loads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.fingerprint(), program.fingerprint());
        assert_eq!(loaded.dump(), program.dump());
        let iacts = Tensor4::random([1, 4, 6, 6], 31);
        let weights = g.random_weights(32);
        let replayed = ProgramSession::new(loaded).run(&iacts, &weights).unwrap();
        assert_eq!(replayed.oacts, reference(&session, &iacts, &weights));
        assert_eq!(
            replayed.report,
            session.run(&iacts, &weights).unwrap().report
        );
    }

    /// One `FEATHER_CACHE_DIR` serves several processes: a loader racing a
    /// saver finds no artifact or the whole artifact, never a prefix that
    /// `compile_cached` would quarantine as `.bad`.
    #[test]
    fn a_loader_racing_a_saver_sees_no_artifact_or_the_whole_artifact() {
        use std::sync::atomic::AtomicBool;
        // The benchmark's Model A.
        let g = feather_arch::graph::resnet50_graph_scaled(16, 16);
        let session = GraphSession::auto(FeatherConfig::new(8, 16), &g).unwrap();
        let program = session.compile().unwrap();
        let whole = program.serialize().into_bytes();

        let dir = temp_path("racing-saver");
        let _ = std::fs::remove_dir_all(&dir);
        let path = artifact_path(&dir, &g.name, 1, program.fingerprint());
        let start = std::sync::Barrier::new(2);
        let saved = AtomicBool::new(false);
        let mut complete = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..40 {
                    program.save_to(&path).unwrap();
                }
                saved.store(true, Ordering::SeqCst);
            });
            start.wait();
            while !saved.load(Ordering::SeqCst) {
                match std::fs::read(&path) {
                    Ok(bytes) => {
                        assert!(bytes == whole, "read {} of {}", bytes.len(), whole.len());
                        complete += 1;
                    }
                    Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}"),
                }
            }
        });
        assert!(complete > 0, "the loader never overlapped the saver");
        assert!(matches!(
            Program::load_checked(&path),
            LoadOutcome::Loaded(loaded) if loaded.dump() == program.dump()
        ));
        let left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        assert_eq!(left, [path], "temporary files left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_artifacts_degrade_to_none() {
        let path = temp_path("malformed");
        std::fs::write(&path, "not a program\n").unwrap();
        assert!(Program::load_from(&path).is_none());
        std::fs::write(&path, format!("{HEADER}\nmeta nope\n")).unwrap();
        assert!(Program::load_from(&path).is_none());
        let _ = std::fs::remove_file(&path);
        assert!(Program::load_from(Path::new("/nonexistent/p.program")).is_none());
    }

    #[test]
    fn checksum_rejects_truncation_and_bit_flips() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let program = session.compile().unwrap();
        let text = program.serialize();
        assert!(parse_program(&text).is_some(), "pristine artifact loads");

        // Truncation: drop the tail (checksum line gone or body shortened).
        for keep in [text.len() / 2, text.len() - 20] {
            assert!(
                parse_program(&text[..keep]).is_none(),
                "truncated at {keep} must be rejected"
            );
        }
        // A single flipped bit in the middle of the body.
        let mut bytes = text.clone().into_bytes();
        bytes[text.len() / 2] ^= 0x40;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(
            parse_program(&flipped).is_none(),
            "bit flip must be rejected"
        );
    }

    #[test]
    fn corrupt_artifacts_are_quarantined_once_then_cache_hits() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "feather-program-test-quarantine-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Populate the cache, then corrupt the artifact in place.
        let (program, status) = compile_cached_in(&session, &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Miss);
        let path = artifact_path(&dir, &g.name, session.batch(), session.fingerprint());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // The corruption is detected, the file moved aside, and the
        // recompile produces the same program.
        let (recompiled, status) = compile_cached_in(&session, &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Quarantined);
        assert_eq!(recompiled.dump(), program.dump());
        let bad = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".bad");
            PathBuf::from(os)
        };
        assert_eq!(std::fs::read(&bad).unwrap(), bytes, "evidence preserved");

        // Quarantined once: the path now holds a good artifact again, so
        // the next miss is a plain Hit, not another parse of bad bytes.
        let (_, status) = compile_cached_in(&session, &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Hit);

        // Truncation is caught the same way.
        let good = std::fs::read(&path).unwrap();
        std::fs::write(&path, &good[..good.len() / 3]).unwrap();
        let (_, status) = compile_cached_in(&session, &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Quarantined);
        let (_, status) = compile_cached_in(&session, &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Hit);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session that loaded its program from disk holds it: its first
    /// `run` replays the artifact and never reaches the route cache.
    #[test]
    fn artifact_hit_fills_the_session_so_run_does_not_compile() {
        let g = residual_graph();
        let config = FeatherConfig::new(4, 8);
        let dir =
            std::env::temp_dir().join(format!("feather-program-test-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, status) =
            compile_cached_in(&GraphSession::auto(config, &g).unwrap(), &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Miss);

        let session = GraphSession::auto(config, &g).unwrap();
        let (loaded, status) = compile_cached_in(&session, &dir).unwrap();
        assert_eq!(status, ArtifactStatus::Hit);
        let iacts = Tensor4::random([1, 4, 6, 6], 41);
        let weights = g.random_weights(42);
        let run = session.run(&iacts, &weights).unwrap();
        let replayed = ProgramSession::new(loaded).run(&iacts, &weights).unwrap();
        assert_eq!(run.oacts, replayed.oacts);
        assert_eq!(run.report, replayed.report);
        assert_eq!(session.route_cache_stats().misses, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_schedule_changes() {
        let g = residual_graph();
        let base = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        assert_eq!(base.fingerprint(), base.fingerprint());
        let batched = base.with_batch(4).unwrap();
        assert_ne!(base.fingerprint(), batched.fingerprint());
        let requantized = base.clone().with_quantization(5, 1);
        assert_ne!(base.fingerprint(), requantized.fingerprint());
        let other_fabric = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        assert_ne!(base.fingerprint(), other_fabric.fingerprint());
    }

    #[test]
    fn rle_roundtrip() {
        for values in [
            vec![],
            vec![7],
            vec![0, 0, 0, 1, 2, 2, 2, 2],
            vec![5, 5, 5, 5, 5],
            (0..40u32).collect(),
        ] {
            let line = format!("stream seg=0 layer=0 {}", rle_encode(&values));
            assert_eq!(rle_decode(&line).unwrap(), values, "{line}");
        }
    }

    #[test]
    fn escape_roundtrip() {
        for s in ["plain", "with space", "a=b", "100%", "t\nx", ""] {
            assert_eq!(unesc(&esc(s)), s, "{s:?}");
            assert!(!esc(s).contains(' '), "{s:?} escaped must be one token");
        }
    }
}
