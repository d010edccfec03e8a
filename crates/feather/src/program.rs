//! Ahead-of-time graph compilation: lower a planned [`GraphSession`] into a
//! flat, serializable [`Program`] of ops and replay it with zero per-layer
//! planning — the accelerator-as-ISA execution model.
//!
//! The interpreted [`GraphSession::run`] re-walks the DAG on every call:
//! consumer counts, scratch keys, weight clones, per-layer context builds and
//! hashed route-cache lookups all happen on the hot path. A serving process
//! replays the *same* schedule thousands of times, so all of that work is
//! hoisted here into a one-time compile:
//!
//! * **[`Program`]** — a linear op stream ([`Op`]: `Stage`, `Fire`,
//!   `Reorder`, `Swap`, `Drain`, `Join`, `Park`/`Unpark`) with every layout,
//!   location plan, buffer spec, scratch move and compiled BIRRD route
//!   resolved at compile time. Routes live in direct `Arc` slots inside a
//!   per-layer [`RouteStream`] — replay never hashes a request or touches
//!   the shared route cache.
//! * **[`ProgramSession`]** — the executor: dispatches the op stream
//!   linearly. Replay is bit-identical to the interpreted session — outputs,
//!   cycle counts, access statistics, energy, the whole [`GraphRun`] report
//!   (enforced by the `program_equivalence` suite).
//! * **On-disk artifacts** — [`GraphSession::compile_cached`] persists
//!   programs under `FEATHER_CACHE_DIR/programs/` (next to layoutloop's
//!   co-search cache), keyed by a schedule fingerprint. Loading an artifact
//!   skips the compile pass entirely; the recorded route *requests* are
//!   re-routed deterministically, so artifacts stay small and the compiled
//!   programs identical.
//! * **[`Program::dump`]** — a diffable text listing of exactly what a run
//!   will do, locked down by a golden snapshot test.
//!
//! Route streams can be recorded without any input data because the
//! reduce-reorder pattern of every fire is a pure function of layer geometry
//! (the mapped-lane pattern and the oAct layout's bank assignment) — never of
//! activation or weight values. The compile pass therefore runs the tile loop
//! once over zeroed buffers in record mode, and replay consumes the recorded
//! stream cursor-style, jumping to per-block offsets so sharded workers stay
//! in sync with the serial recording.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use feather_arch::energy::EnergyModel;
use feather_arch::graph::{NodeId, NodeOp, TensorId};
use feather_arch::layout::LocationPlan4;
use feather_arch::tensor::{quantize_to_i8, quantize_value, saturating_add_i8, Tensor4};
use feather_arch::workload::{ConvKind, ConvLayer};
use feather_arch::{ArchError, Dim};
use feather_birrd::ReductionRequest;
use feather_memsim::{BufferSpec, LayoutView, PingPong, ScratchRegion};

use crate::accelerator::check_weight_shape;
use crate::config::FeatherConfig;
use crate::core::{
    run_conv_core, run_conv_core_batched, LayerExec, RouteExecution, RouteRecorder, RouteStream,
    SpanScratch,
};
use crate::graph_session::{pool_window_weights, widen, GraphSession, Step};
use crate::mapping::LayerMapping;
use crate::report::{
    GraphReport, GraphRun, JoinSummary, LayerSummary, NetworkReport, SegmentSummary,
};
use crate::session::{for_each_oact, iact_spec, layer_summary, oact_spec};

/// Format header of a serialized program artifact; bump on layout changes
/// (unknown versions degrade to a recompile, never to an error). v2 added
/// the trailing whole-file `checksum` line.
const HEADER: &str = "feather-program v2";

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
    /// checksum, truncation, stale format, or a fingerprint mismatch. It
    /// was renamed aside to `<name>.bad` (so it is detected exactly once,
    /// not re-parsed on every cache miss) and a fresh compile replaced it.
    Quarantined,
}

/// What [`Program::load_checked`] found on disk.
#[derive(Debug)]
pub(crate) enum LoadOutcome {
    /// Parsed and checksum-verified.
    Loaded(Box<Program>),
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
    /// Scratch-region key — identical to the interpreted session's
    /// `TensorId::to_string` so scratch traffic accounting matches exactly.
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

/// One fully-resolved layer of a compiled segment: the owned tile-loop
/// context, the buffer disciplines of both StaB halves, the precompiled
/// location plans and the frozen route stream.
#[derive(Debug, Clone)]
struct CompiledLayer {
    exec: LayerExec,
    weight: WeightSource,
    iact_spec: BufferSpec,
    oact_spec: BufferSpec,
    idims: BTreeMap<Dim, usize>,
    odims: BTreeMap<Dim, usize>,
    iact_plan: LocationPlan4,
    oact_plan: LocationPlan4,
    routes: RouteStream,
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
/// resolved at compile time from the interpreted session's consumer counts.
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
    /// Acquire the segment input and stage it into a fresh ping/pong StaB.
    Stage {
        seg: usize,
        /// Source: the fresh register (`true`) or the unpark queue.
        fresh: bool,
        /// Move the fresh tensor out instead of cloning it.
        take: bool,
    },
    /// Run one layer's tile loop, replaying its recorded route stream.
    Fire { seg: usize, layer: usize },
    /// Boundary quantization in place (RIR already reordered the values).
    Reorder { seg: usize, layer: usize },
    /// Swap the StaB halves.
    Swap { seg: usize },
    /// Drain the segment output, assemble its report, quantize it into the
    /// fresh register.
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

/// A flat, replayable lowering of a planned graph: every layout, location
/// plan, BIRRD route and scratch move resolved ahead of time. Produced by
/// [`GraphSession::compile`], executed by [`ProgramSession`], serialized to
/// the `FEATHER_CACHE_DIR/programs/` artifact cache.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    config: FeatherConfig,
    batch: usize,
    quant_shift: u32,
    quant_zero: i8,
    threads: Option<usize>,
    /// Batched `(N, C, H, W)` shape of the graph input.
    input_shape: [usize; 4],
    /// Tensor-table slot of the graph input.
    input_slot: usize,
    fingerprint: u64,
    energy_model: EnergyModel,
    tensors: Vec<TensorSlot>,
    segments: Vec<CompiledSegment>,
    joins: Vec<JoinSpec>,
    ops: Vec<Op>,
}

impl Program {
    /// The compiled graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Samples per replayed run.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The hardware configuration the program was compiled for.
    pub fn config(&self) -> FeatherConfig {
        self.config
    }

    /// The schedule fingerprint this program was compiled from — matches
    /// [`GraphSession::fingerprint`] of the originating session.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of ops in the instruction stream.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Total recorded route-stream entries (BIRRD fires) across all layers.
    pub fn route_fires(&self) -> usize {
        self.segments
            .iter()
            .flat_map(|s| &s.layers)
            .map(|l| l.routes.stream.len())
            .sum()
    }

    /// The default artifact location for this program:
    /// `FEATHER_CACHE_DIR/programs/<name>-b<batch>-<fingerprint>.program`,
    /// or `None` when `FEATHER_CACHE_DIR` is unset.
    pub fn artifact_path(&self) -> Option<PathBuf> {
        cache_dir().map(|dir| artifact_path(&dir, &self.name, self.batch, self.fingerprint))
    }

    /// Serializes the program to `path` (parent directories are created).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.serialize())
    }

    /// Loads a program from `path`. Any failure — missing file, unknown
    /// header version, checksum mismatch, malformed content, an unroutable
    /// recorded request — returns `None` so callers degrade to a recompile.
    pub fn load_from(path: &Path) -> Option<Program> {
        match Program::load_checked(path) {
            LoadOutcome::Loaded(program) => Some(*program),
            LoadOutcome::Corrupt | LoadOutcome::Missing => None,
        }
    }

    /// [`Program::load_from`] distinguishing *no artifact* from *a corrupt
    /// one*, so the artifact cache can quarantine the latter instead of
    /// re-parsing it on every miss.
    pub(crate) fn load_checked(path: &Path) -> LoadOutcome {
        let Ok(text) = std::fs::read_to_string(path) else {
            return LoadOutcome::Missing;
        };
        match parse_program(&text) {
            Some(program) => LoadOutcome::Loaded(Box::new(program)),
            None => LoadOutcome::Corrupt,
        }
    }

    /// A diffable text listing of exactly what a replayed run does: the
    /// fabric, the tensor table, every compiled layer with its mapping,
    /// layouts and route-stream size, the joins and the full op stream. The
    /// format is deterministic and locked by a golden snapshot test.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program \"{}\" fingerprint {:016x}",
            self.name, self.fingerprint
        );
        let _ = writeln!(
            out,
            "fabric {}x{} stab_lines={} strb_lines={}",
            self.config.rows, self.config.cols, self.config.stab_lines, self.config.strb_lines
        );
        let threads = match self.threads {
            Some(n) => n.to_string(),
            None => "auto".to_string(),
        };
        let _ = writeln!(
            out,
            "batch {} quant shift={} zero={} threads={}",
            self.batch, self.quant_shift, self.quant_zero, threads
        );
        let _ = writeln!(
            out,
            "input {} {:?}",
            self.tensors[self.input_slot].key, self.input_shape
        );
        let _ = writeln!(out, "tensors:");
        for slot in &self.tensors {
            let _ = writeln!(out, "  {} {:?}", slot.key, slot.shape);
        }
        let _ = writeln!(out, "segments:");
        for (si, seg) in self.segments.iter().enumerate() {
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
                self.tensors[seg.input].key, self.tensors[seg.output].key, flags
            );
            for (li, layer) in seg.layers.iter().enumerate() {
                let l = &layer.exec.layer;
                let m = &layer.exec.mapping;
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
                let _ = writeln!(
                    out,
                    "      routes slots={} fires={} blocks={}",
                    layer.routes.slots.len(),
                    layer.routes.stream.len(),
                    layer.routes.block_starts.len()
                );
            }
        }
        let _ = writeln!(out, "joins:");
        for (ji, join) in self.joins.iter().enumerate() {
            let _ = writeln!(
                out,
                "  join {ji} {}: out={} a={} b={}{}",
                join.name,
                self.tensors[join.output].key,
                operand_token(join.a),
                operand_token(join.b),
                if join.graph_output {
                    " graph_output"
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "ops:");
        for (i, op) in self.ops.iter().enumerate() {
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
                Op::Join { join } => format!("join    {}", self.joins[join].name),
                Op::Park { tensor } => format!("park    {}", self.tensors[tensor].key),
                Op::Unpark { tensor, free } => format!(
                    "unpark  {}{}",
                    self.tensors[tensor].key,
                    if free { " free" } else { "" }
                ),
            };
            let _ = writeln!(out, "  {i:04} {text}");
        }
        out
    }

    // ---------------------------------------------------------------- save

    fn serialize(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let threads = match self.threads {
            Some(n) => n.to_string(),
            None => "auto".to_string(),
        };
        let _ = writeln!(
            out,
            "meta name={} rows={} cols={} stab={} strb={} batch={} shift={} zero={} \
             threads={} fp={:016x} input={}",
            esc(&self.name),
            self.config.rows,
            self.config.cols,
            self.config.stab_lines,
            self.config.strb_lines,
            self.batch,
            self.quant_shift,
            self.quant_zero,
            threads,
            self.fingerprint,
            self.input_slot
        );
        for slot in &self.tensors {
            let _ = writeln!(
                out,
                "tensor id={} shape={}",
                slot.id,
                join_usizes(&slot.shape)
            );
        }
        for seg in &self.segments {
            let _ = writeln!(
                out,
                "segment in={} out={} gin={} gout={}",
                seg.input,
                seg.output,
                u8::from(seg.graph_input),
                u8::from(seg.graph_output)
            );
        }
        for (si, seg) in self.segments.iter().enumerate() {
            for (li, layer) in seg.layers.iter().enumerate() {
                let l = &layer.exec.layer;
                let m = &layer.exec.mapping;
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
                for request in &layer.routes.requests {
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
                        "slot seg={si} layer={li} groups={} dests={}",
                        groups.join(","),
                        dests.join(",")
                    );
                }
                let _ = writeln!(
                    out,
                    "stream seg={si} layer={li} {}",
                    rle_encode(&layer.routes.stream)
                );
                let deltas = deltas_of(&layer.routes.block_starts);
                let _ = writeln!(out, "blocks seg={si} layer={li} {}", rle_encode(&deltas));
            }
        }
        for join in &self.joins {
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
        for op in &self.ops {
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
        let sum = fnv1a64(out.as_bytes());
        let _ = writeln!(out, "checksum {sum:016x}");
        out
    }
}

/// Reusable replay allocations: the per-segment StaB ping/pong pairs a
/// [`ProgramSession::run_with_scratch`] call parks between runs instead of
/// reallocating. One scratch belongs to one executor thread at a time (it is
/// `&mut` for the whole run) and adapts automatically when handed a
/// different program — the parked buffers are reshaped to the new program's
/// specs, so a worker serving many (model, batch) pairs can keep one scratch
/// per pair or share fewer and only pay a reshape.
///
/// Replaying through a reused scratch is bit-identical to replaying through
/// a fresh one (outputs *and* the full report) — buffers are re-provisioned
/// with [`PingPong::reset`] at every segment stage.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// `(fingerprint, batch)` of the program the stash was last used with;
    /// a mismatch drops the stash so one scratch never hoards buffers shaped
    /// for a program it no longer serves.
    shaped_for: Option<(u64, usize)>,
    /// One parked StaB pair per program segment.
    stabs: Vec<Option<PingPong<i32>>>,
}

impl ReplayScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Re-targets the stash at `program`, dropping buffers from any other,
    /// and marks it dirty until [`ReplayScratch::commit`]: if the replay
    /// panics mid-run (a supervised serving worker catches it), the next
    /// `begin` sees the mismatch and drops the half-staged stash instead of
    /// replaying through it.
    fn begin(&mut self, program: &Program) {
        let key = (program.fingerprint, program.batch);
        if self.shaped_for != Some(key) {
            self.stabs.clear();
        }
        self.shaped_for = None;
        if self.stabs.len() != program.segments.len() {
            self.stabs.resize_with(program.segments.len(), || None);
        }
    }

    /// Marks a completed run's stash clean so the next `begin` reuses it.
    fn commit(&mut self, program: &Program) {
        self.shaped_for = Some((program.fingerprint, program.batch));
    }
}

/// Reusable allocations for [`ProgramSession::run_batched_with_scratch`]:
/// the lane-striped StaB pairs of the batched replay backend. Works exactly
/// like [`ReplayScratch`] but keys the stash on the lane count too — a pair
/// striped for 4 lanes cannot serve an 8-lane run, so a mismatch drops the
/// stash and the next run regrows it.
#[derive(Debug, Default)]
pub struct BatchedScratch {
    /// `(fingerprint, batch, lanes)` of the last run through this scratch.
    shaped_for: Option<(u64, usize, usize)>,
    /// One parked lane-striped StaB pair per program segment.
    stabs: Vec<Option<PingPong<i32>>>,
}

impl BatchedScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        BatchedScratch::default()
    }

    /// Re-targets the stash at `(program, lanes)`, dropping buffers from any
    /// other shape; dirty until [`BatchedScratch::commit`] — a panicking
    /// replay abandons the stash (see [`ReplayScratch::begin`]).
    fn begin(&mut self, program: &Program, lanes: usize) {
        let key = (program.fingerprint, program.batch, lanes);
        if self.shaped_for != Some(key) {
            self.stabs.clear();
        }
        self.shaped_for = None;
        if self.stabs.len() != program.segments.len() {
            self.stabs.resize_with(program.segments.len(), || None);
        }
    }

    /// Marks a completed run's stash clean so the next `begin` reuses it.
    fn commit(&mut self, program: &Program, lanes: usize) {
        self.shaped_for = Some((program.fingerprint, program.batch, lanes));
    }
}

/// The graph-DAG replay executor: dispatches a compiled [`Program`]'s op
/// stream linearly. Cheap to clone (the program is shared through an `Arc`);
/// safe to use from multiple threads via `&self`.
#[derive(Debug, Clone)]
pub struct ProgramSession {
    program: Arc<Program>,
    threads: Option<usize>,
}

impl ProgramSession {
    /// Wraps a compiled program for execution.
    pub fn new(program: Program) -> Self {
        Self::from_arc(Arc::new(program))
    }

    /// Wraps an already-shared compiled program.
    pub fn from_arc(program: Arc<Program>) -> Self {
        ProgramSession {
            program,
            threads: None,
        }
    }

    /// Pins the executor's worker-thread count (builder style), overriding
    /// the count captured at compile time. The parallel replay is
    /// bit-identical to the serial one.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The compiled program this session replays.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Replays the program: bit-identical to [`GraphSession::run`] of the
    /// originating session — outputs, cycles, access statistics and reports
    /// alike — with zero planning, hashing or weight cloning on the hot path.
    ///
    /// `weights` is an input of every call and nothing derived from it
    /// outlives the call: each `Fire` looks its layer's tensor up by node,
    /// checks its shape, and multiplies against it where it lies — the
    /// weight-stationary NEST holds an address, not a copy. What a `Fire`
    /// still does per call is the data-dependent work (one accounted StaB
    /// read and `m_rows` MACs per mapped iAct, one BIRRD pass and one in-situ
    /// oAct accumulation per row fire) plus the data-independent accounting
    /// that rides on it (bank-conflict assessment, access statistics, fire
    /// counts); per weight tile it refreshes one `cols`-wide lane mask.
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
    /// calls: each segment's StaB ping/pong pair is parked in the scratch at
    /// drain time and re-provisioned (reshaped + cleared, no reallocation) at
    /// the next stage, so a serving executor's steady state allocates no
    /// buffer memory per request. Results are bit-identical to
    /// [`ProgramSession::run`] with a fresh scratch.
    ///
    /// # Errors
    /// Returns an error on missing weights or operand shape mismatches.
    pub fn run_with_scratch(
        &self,
        scratch_bufs: &mut ReplayScratch,
        iacts: &Tensor4<i8>,
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<GraphRun, ArchError> {
        let p = &*self.program;
        scratch_bufs.begin(p);
        if iacts.shape() != p.input_shape {
            return Err(ArchError::ShapeMismatch(format!(
                "graph input shape {:?}, expected {:?}",
                iacts.shape(),
                p.input_shape
            )));
        }
        let threads = self.threads.or(p.threads);
        let mut span_scratch = SpanScratch::new(p.config.rows, p.config.cols, 1);

        let mut scratch: ScratchRegion<i8> = ScratchRegion::new(p.config.cols.max(1));
        let mut fresh: Option<(usize, Tensor4<i8>)> = Some((p.input_slot, iacts.clone()));
        let mut displaced: Option<(usize, Tensor4<i8>)> = None;
        let mut queue: VecDeque<Tensor4<i8>> = VecDeque::new();
        let mut segment_reports: Vec<SegmentSummary> = Vec::with_capacity(p.segments.len());
        let mut join_reports: Vec<JoinSummary> = Vec::with_capacity(p.joins.len());
        let mut final_acc: Option<Tensor4<i32>> = None;

        // In-flight segment state between its Stage and Drain ops.
        let mut stab: Option<PingPong<i32>> = None;
        let mut summaries: Vec<LayerSummary> = Vec::new();
        let mut input_from_scratch = false;

        let broken = |what: &str| {
            ArchError::InvalidWorkload(format!("compiled program is inconsistent: {what}"))
        };

        for op in &p.ops {
            match *op {
                Op::Unpark { tensor, free } => {
                    let slot = &p.tensors[tensor];
                    let missing = || {
                        ArchError::InvalidWorkload(format!(
                            "tensor t{} consumed before being produced or after being freed",
                            slot.id
                        ))
                    };
                    // `fetch` counts the read; the final consumer then moves
                    // the parked allocation out instead of copying it.
                    let data = if free {
                        scratch.fetch(&slot.key).ok_or_else(missing)?;
                        scratch.release(&slot.key).expect("fetched above")
                    } else {
                        scratch.fetch(&slot.key).ok_or_else(missing)?.to_vec()
                    };
                    queue.push_back(Tensor4::from_vec(slot.shape, data)?);
                }
                Op::Stage {
                    seg,
                    fresh: from_fresh,
                    take,
                } => {
                    let input = if from_fresh {
                        if take {
                            fresh
                                .take()
                                .ok_or_else(|| broken("fresh operand missing"))?
                                .1
                        } else {
                            fresh
                                .as_ref()
                                .ok_or_else(|| broken("fresh operand missing"))?
                                .1
                                .clone()
                        }
                    } else {
                        queue
                            .pop_front()
                            .ok_or_else(|| broken("unpark queue is empty"))?
                    };
                    input_from_scratch = !from_fresh;
                    let cs = &p.segments[seg];
                    let first = &cs.layers[0];
                    let l = &first.exec.layer;
                    let expected = [l.n, l.c, l.h, l.w];
                    if input.shape() != expected {
                        return Err(ArchError::ShapeMismatch(format!(
                            "iacts shape {:?}, expected {:?}",
                            input.shape(),
                            expected
                        )));
                    }
                    let mut pp: PingPong<i32> = match scratch_bufs.stabs[seg].take() {
                        Some(mut parked) => {
                            parked.reset(first.iact_spec);
                            parked
                        }
                        None => PingPong::new(first.iact_spec),
                    };
                    {
                        let (active, _) = pp.split_mut();
                        let mut view =
                            LayoutView::new(active, &first.exec.mapping.iact_layout, &first.idims);
                        input.for_each(|coord, v| {
                            view.write_at(first.iact_plan.location(coord), v as i32)
                        });
                        view.flush_cycle();
                    }
                    stab = Some(pp);
                    summaries = Vec::with_capacity(cs.layers.len());
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
                    check_weight_shape(&cl.exec.layer, lw)?;
                    let pp = stab.as_mut().ok_or_else(|| broken("fire before stage"))?;
                    pp.shadow().reshape(cl.oact_spec);
                    if layer > 0 {
                        pp.active().rebank(cl.iact_spec);
                    }
                    let iact_base = *pp.active_ref().stats();
                    let oact_base = *pp.shadow_ref().stats();
                    let core = {
                        let (active, shadow) = pp.split_mut();
                        let mut iact_view =
                            LayoutView::new(active, &cl.exec.mapping.iact_layout, &cl.idims);
                        let mut oact_view =
                            LayoutView::new(shadow, &cl.exec.mapping.oact_layout, &cl.odims);
                        run_conv_core(
                            &cl.exec,
                            lw,
                            &mut iact_view,
                            &mut oact_view,
                            RouteExecution::Replay(&cl.routes),
                            layer == 0,
                            threads,
                            &mut span_scratch,
                        )?
                    };
                    let iact_stats = pp.active_ref().stats().since(&iact_base);
                    let oact_stats = pp.shadow_ref().stats().since(&oact_base);
                    summaries.push(layer_summary(
                        &p.config,
                        &p.energy_model,
                        &cl.exec.layer,
                        &core,
                        iact_stats,
                        oact_stats,
                        layer == 0,
                        layer + 1 == cs.layers.len(),
                    ));
                }
                Op::Reorder { seg, layer } => {
                    let cl = &p.segments[seg].layers[layer];
                    let pp = stab
                        .as_mut()
                        .ok_or_else(|| broken("reorder before stage"))?;
                    let shadow = pp.shadow();
                    let mut view = LayoutView::new(shadow, &cl.exec.mapping.oact_layout, &cl.odims);
                    let (shift, zero) = (p.quant_shift, p.quant_zero);
                    for_each_oact(&cl.exec.layer, |coord| {
                        let loc = cl.oact_plan.location(coord);
                        let acc = view.peek_at(loc).unwrap_or(0);
                        view.poke_at(loc, quantize_value(acc, shift, zero) as i32);
                    });
                }
                Op::Swap { .. } => {
                    stab.as_mut()
                        .ok_or_else(|| broken("swap before stage"))?
                        .swap();
                }
                Op::Drain { seg } => {
                    let cs = &p.segments[seg];
                    let last = cs.layers.last().expect("segments are non-empty");
                    let mut pp = stab.take().ok_or_else(|| broken("drain before stage"))?;
                    let oacts = {
                        let (active, _) = pp.split_mut();
                        let view =
                            LayoutView::new(active, &last.exec.mapping.oact_layout, &last.odims);
                        let l = &last.exec.layer;
                        Tensor4::from_fn(
                            [l.n, l.m, l.output_height(), l.output_width()],
                            |n, m, ph, q| {
                                view.peek_at(last.oact_plan.location([n, m, ph, q]))
                                    .unwrap_or(0)
                            },
                        )
                    };
                    let mut report = NetworkReport {
                        layers: std::mem::take(&mut summaries),
                        stab_swaps: pp.swaps(),
                    };
                    scratch_bufs.stabs[seg] = Some(pp);
                    adjust_report(&mut report, cs, &p.energy_model);
                    segment_reports.push(SegmentSummary {
                        nodes: cs.names.clone(),
                        report,
                        input_from_scratch,
                    });
                    if cs.graph_output {
                        final_acc = Some(oacts.clone());
                    }
                    let quantized = quantize_to_i8(&oacts, p.quant_shift, p.quant_zero);
                    displaced = fresh.take();
                    fresh = Some((cs.output, quantized));
                }
                Op::Join { join } => {
                    let spec = &p.joins[join];
                    let a = take_operand(spec.a, &mut fresh, &mut queue, &broken)?;
                    let b = take_operand(spec.b, &mut fresh, &mut queue, &broken)?;
                    let (sum, saturated) = saturating_add_i8(&a, &b)?;
                    join_reports.push(JoinSummary {
                        name: spec.name.clone(),
                        elements: sum.len() as u64,
                        saturated,
                    });
                    if spec.graph_output {
                        final_acc = Some(widen(&sum));
                    }
                    displaced = fresh.take();
                    fresh = Some((spec.output, sum));
                }
                Op::Park { tensor } => {
                    let (_, data) = displaced
                        .take()
                        .ok_or_else(|| broken("park without a displaced tensor"))?;
                    scratch.park(p.tensors[tensor].key.clone(), data.as_slice().to_vec());
                }
            }
        }

        scratch_bufs.commit(p);
        Ok(GraphRun {
            oacts: final_acc.ok_or_else(|| broken("no op produced the graph output"))?,
            report: GraphReport {
                segments: segment_reports,
                joins: join_reports,
                scratch: *scratch.stats(),
                scratch_peak_elems: scratch.peak_occupancy() as u64,
            },
        })
    }

    /// Replays the program once per input sample, executing every op a single
    /// time across all samples in lane-vectorized lockstep — the batched
    /// replay backend. Activations live in lane stripes (sample `l` occupies
    /// lane `l` of every StaB cell), each BIRRD route gathers whole stripes,
    /// and every piece of cycle/conflict/traffic accounting runs **once**:
    /// the schedule, routes and access patterns are data-independent, so one
    /// sample's accounting is every sample's accounting. The returned runs —
    /// outputs *and* full reports — are bit-identical to calling
    /// [`ProgramSession::run`] on each sample alone (the per-lane
    /// [`JoinSummary`] saturation flags are the only data-dependent bits and
    /// are computed per lane).
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_batched(
        &self,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        self.run_batched_with_scratch(&mut BatchedScratch::new(), iacts, weights)
    }

    /// [`ProgramSession::run_batched`] reusing `scratch`'s lane-striped StaB
    /// allocations across calls, the batched analogue of
    /// [`ProgramSession::run_with_scratch`]: a serving executor's steady
    /// state allocates no buffer memory per batch. Results are bit-identical
    /// to [`ProgramSession::run_batched`] with a fresh scratch.
    ///
    /// # Errors
    /// Returns an error on an empty batch, a sample shape mismatch, or
    /// missing weights.
    pub fn run_batched_with_scratch(
        &self,
        scratch_bufs: &mut BatchedScratch,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        let p = &*self.program;
        let lanes = iacts.len();
        if lanes == 0 {
            return Err(ArchError::InvalidWorkload(
                "batched replay needs at least one sample".to_string(),
            ));
        }
        for sample in iacts {
            if sample.shape() != p.input_shape {
                return Err(ArchError::ShapeMismatch(format!(
                    "graph input shape {:?}, expected {:?}",
                    sample.shape(),
                    p.input_shape
                )));
            }
        }
        scratch_bufs.begin(p, lanes);
        let threads = self.threads.or(p.threads);
        let mut span_scratch = SpanScratch::new(p.config.rows, p.config.cols, lanes);

        // Parked tensors hold `lanes` concatenated per-lane copies; the lane
        // factor divides the region's accounting and occupancy back to one
        // sample's numbers — exactly what every lane's report clones.
        let mut scratch: ScratchRegion<i8> =
            ScratchRegion::with_lane_factor(p.config.cols.max(1), lanes);
        let mut fresh: Option<(usize, Vec<Tensor4<i8>>)> = Some((p.input_slot, iacts.to_vec()));
        let mut displaced: Option<(usize, Vec<Tensor4<i8>>)> = None;
        let mut queue: VecDeque<Vec<Tensor4<i8>>> = VecDeque::new();
        // Segment reports are identical across lanes (all accounting is
        // data-independent); join saturation is per lane.
        let mut segment_reports: Vec<SegmentSummary> = Vec::with_capacity(p.segments.len());
        let mut join_reports: Vec<Vec<JoinSummary>> =
            vec![Vec::with_capacity(p.joins.len()); lanes];
        let mut final_acc: Option<Vec<Tensor4<i32>>> = None;

        // In-flight segment state between its Stage and Drain ops.
        let mut stab: Option<PingPong<i32>> = None;
        let mut summaries: Vec<LayerSummary> = Vec::new();
        let mut input_from_scratch = false;

        let broken = |what: &str| {
            ArchError::InvalidWorkload(format!("compiled program is inconsistent: {what}"))
        };

        for op in &p.ops {
            match *op {
                Op::Unpark { tensor, free } => {
                    let slot = &p.tensors[tensor];
                    let missing = || {
                        ArchError::InvalidWorkload(format!(
                            "tensor t{} consumed before being produced or after being freed",
                            slot.id
                        ))
                    };
                    let data = if free {
                        scratch.fetch(&slot.key).ok_or_else(missing)?;
                        scratch.release(&slot.key).expect("fetched above")
                    } else {
                        scratch.fetch(&slot.key).ok_or_else(missing)?.to_vec()
                    };
                    let per_lane = data.len() / lanes;
                    let tensors = data
                        .chunks_exact(per_lane)
                        .map(|chunk| Tensor4::from_vec(slot.shape, chunk.to_vec()))
                        .collect::<Result<Vec<_>, _>>()?;
                    queue.push_back(tensors);
                }
                Op::Stage {
                    seg,
                    fresh: from_fresh,
                    take,
                } => {
                    let input = if from_fresh {
                        if take {
                            fresh
                                .take()
                                .ok_or_else(|| broken("fresh operand missing"))?
                                .1
                        } else {
                            fresh
                                .as_ref()
                                .ok_or_else(|| broken("fresh operand missing"))?
                                .1
                                .clone()
                        }
                    } else {
                        queue
                            .pop_front()
                            .ok_or_else(|| broken("unpark queue is empty"))?
                    };
                    input_from_scratch = !from_fresh;
                    let cs = &p.segments[seg];
                    let first = &cs.layers[0];
                    let l = &first.exec.layer;
                    let expected = [l.n, l.c, l.h, l.w];
                    if input[0].shape() != expected {
                        return Err(ArchError::ShapeMismatch(format!(
                            "iacts shape {:?}, expected {:?}",
                            input[0].shape(),
                            expected
                        )));
                    }
                    let mut pp: PingPong<i32> = match scratch_bufs.stabs[seg].take() {
                        Some(mut parked) => {
                            parked.reset(first.iact_spec);
                            parked
                        }
                        None => PingPong::with_lanes(first.iact_spec, lanes),
                    };
                    {
                        let (active, _) = pp.split_mut();
                        let mut view =
                            LayoutView::new(active, &first.exec.mapping.iact_layout, &first.idims);
                        // Lane 0 drives the coordinate walk; the other lanes
                        // follow by flat index (`for_each` visits coordinates
                        // in the row-major order `as_slice` stores).
                        let rest: Vec<&[i8]> = input.iter().skip(1).map(|t| t.as_slice()).collect();
                        let mut flat = 0usize;
                        input[0].for_each(|coord, v| {
                            let stripe = view.write_stripe_at(first.iact_plan.location(coord));
                            stripe[0] = Some(v as i32);
                            for (lane, data) in rest.iter().enumerate() {
                                stripe[lane + 1] = Some(data[flat] as i32);
                            }
                            flat += 1;
                        });
                        view.flush_cycle();
                    }
                    stab = Some(pp);
                    summaries = Vec::with_capacity(cs.layers.len());
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
                    check_weight_shape(&cl.exec.layer, lw)?;
                    let pp = stab.as_mut().ok_or_else(|| broken("fire before stage"))?;
                    pp.shadow().reshape(cl.oact_spec);
                    if layer > 0 {
                        pp.active().rebank(cl.iact_spec);
                    }
                    let iact_base = *pp.active_ref().stats();
                    let oact_base = *pp.shadow_ref().stats();
                    let core = {
                        let (active, shadow) = pp.split_mut();
                        let mut iact_view =
                            LayoutView::new(active, &cl.exec.mapping.iact_layout, &cl.idims);
                        let mut oact_view =
                            LayoutView::new(shadow, &cl.exec.mapping.oact_layout, &cl.odims);
                        run_conv_core_batched(
                            &cl.exec,
                            lw,
                            &mut iact_view,
                            &mut oact_view,
                            &cl.routes,
                            layer == 0,
                            threads,
                            lanes,
                            &mut span_scratch,
                        )?
                    };
                    let iact_stats = pp.active_ref().stats().since(&iact_base);
                    let oact_stats = pp.shadow_ref().stats().since(&oact_base);
                    summaries.push(layer_summary(
                        &p.config,
                        &p.energy_model,
                        &cl.exec.layer,
                        &core,
                        iact_stats,
                        oact_stats,
                        layer == 0,
                        layer + 1 == cs.layers.len(),
                    ));
                }
                Op::Reorder { seg, layer } => {
                    let cl = &p.segments[seg].layers[layer];
                    let pp = stab
                        .as_mut()
                        .ok_or_else(|| broken("reorder before stage"))?;
                    let shadow = pp.shadow();
                    let mut view = LayoutView::new(shadow, &cl.exec.mapping.oact_layout, &cl.odims);
                    let (shift, zero) = (p.quant_shift, p.quant_zero);
                    for_each_oact(&cl.exec.layer, |coord| {
                        let stripe = view.poke_stripe_at(cl.oact_plan.location(coord));
                        for cell in stripe.iter_mut() {
                            let acc = cell.unwrap_or(0);
                            *cell = Some(quantize_value(acc, shift, zero) as i32);
                        }
                    });
                }
                Op::Swap { .. } => {
                    stab.as_mut()
                        .ok_or_else(|| broken("swap before stage"))?
                        .swap();
                }
                Op::Drain { seg } => {
                    let cs = &p.segments[seg];
                    let last = cs.layers.last().expect("segments are non-empty");
                    let mut pp = stab.take().ok_or_else(|| broken("drain before stage"))?;
                    let oacts: Vec<Tensor4<i32>> = {
                        let (active, _) = pp.split_mut();
                        let view =
                            LayoutView::new(active, &last.exec.mapping.oact_layout, &last.odims);
                        let l = &last.exec.layer;
                        (0..lanes)
                            .map(|lane| {
                                Tensor4::from_fn(
                                    [l.n, l.m, l.output_height(), l.output_width()],
                                    |n, m, ph, q| {
                                        view.peek_stripe_at(last.oact_plan.location([n, m, ph, q]))
                                            [lane]
                                            .unwrap_or(0)
                                    },
                                )
                            })
                            .collect()
                    };
                    let mut report = NetworkReport {
                        layers: std::mem::take(&mut summaries),
                        stab_swaps: pp.swaps(),
                    };
                    scratch_bufs.stabs[seg] = Some(pp);
                    adjust_report(&mut report, cs, &p.energy_model);
                    segment_reports.push(SegmentSummary {
                        nodes: cs.names.clone(),
                        report,
                        input_from_scratch,
                    });
                    if cs.graph_output {
                        final_acc = Some(oacts.clone());
                    }
                    let quantized: Vec<Tensor4<i8>> = oacts
                        .iter()
                        .map(|o| quantize_to_i8(o, p.quant_shift, p.quant_zero))
                        .collect();
                    displaced = fresh.take();
                    fresh = Some((cs.output, quantized));
                }
                Op::Join { join } => {
                    let spec = &p.joins[join];
                    let a = take_operand_lanes(spec.a, &mut fresh, &mut queue, &broken)?;
                    let b = take_operand_lanes(spec.b, &mut fresh, &mut queue, &broken)?;
                    let mut sums: Vec<Tensor4<i8>> = Vec::with_capacity(lanes);
                    for (lane, (la, lb)) in a.iter().zip(&b).enumerate() {
                        let (sum, saturated) = saturating_add_i8(la, lb)?;
                        join_reports[lane].push(JoinSummary {
                            name: spec.name.clone(),
                            elements: sum.len() as u64,
                            saturated,
                        });
                        sums.push(sum);
                    }
                    if spec.graph_output {
                        final_acc = Some(sums.iter().map(widen).collect());
                    }
                    displaced = fresh.take();
                    fresh = Some((spec.output, sums));
                }
                Op::Park { tensor } => {
                    let (_, data) = displaced
                        .take()
                        .ok_or_else(|| broken("park without a displaced tensor"))?;
                    let mut flat: Vec<i8> = Vec::with_capacity(data.len() * data[0].len());
                    for lane in &data {
                        flat.extend_from_slice(lane.as_slice());
                    }
                    scratch.park(p.tensors[tensor].key.clone(), flat);
                }
            }
        }

        let final_acc = final_acc.ok_or_else(|| broken("no op produced the graph output"))?;
        scratch_bufs.commit(p, lanes);
        let scratch_stats = *scratch.stats();
        let scratch_peak = scratch.peak_occupancy() as u64;
        Ok(final_acc
            .into_iter()
            .enumerate()
            .map(|(lane, oacts)| GraphRun {
                oacts,
                report: GraphReport {
                    segments: segment_reports.clone(),
                    joins: std::mem::take(&mut join_reports[lane]),
                    scratch: scratch_stats,
                    scratch_peak_elems: scratch_peak,
                },
            })
            .collect())
    }
}

/// [`take_operand`] for the batched executor: one tensor per lane.
fn take_operand_lanes(
    src: OperandSrc,
    fresh: &mut Option<(usize, Vec<Tensor4<i8>>)>,
    queue: &mut VecDeque<Vec<Tensor4<i8>>>,
    broken: &impl Fn(&str) -> ArchError,
) -> Result<Vec<Tensor4<i8>>, ArchError> {
    match src {
        OperandSrc::Fresh { take: true } => Ok(fresh
            .take()
            .ok_or_else(|| broken("fresh operand missing"))?
            .1),
        OperandSrc::Fresh { take: false } => Ok(fresh
            .as_ref()
            .ok_or_else(|| broken("fresh operand missing"))?
            .1
            .clone()),
        OperandSrc::Queue => queue
            .pop_front()
            .ok_or_else(|| broken("unpark queue is empty")),
    }
}

/// Resolves a join operand from the fresh register or the unpark queue.
fn take_operand(
    src: OperandSrc,
    fresh: &mut Option<(usize, Tensor4<i8>)>,
    queue: &mut VecDeque<Tensor4<i8>>,
    broken: &impl Fn(&str) -> ArchError,
) -> Result<Tensor4<i8>, ArchError> {
    match src {
        OperandSrc::Fresh { take: true } => Ok(fresh
            .take()
            .ok_or_else(|| broken("fresh operand missing"))?
            .1),
        OperandSrc::Fresh { take: false } => Ok(fresh
            .as_ref()
            .ok_or_else(|| broken("fresh operand missing"))?
            .1
            .clone()),
        OperandSrc::Queue => queue
            .pop_front()
            .ok_or_else(|| broken("unpark queue is empty")),
    }
}

/// Rewrites a drained segment's report for graph-level DRAM accounting —
/// the compiled mirror of the interpreted session's `adjust_report`.
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

// ------------------------------------------------------------------ compile

/// Lowers a planned session into a [`Program`] — the implementation behind
/// [`GraphSession::compile`].
pub(crate) fn compile(session: &GraphSession) -> Result<Program, ArchError> {
    let graph = session.graph();
    let config = session.config();
    let (quant_shift, quant_zero) = session.quantization();
    let batch = session.batch();

    // Tensor table: the graph input plus every node output, with batched
    // shapes and the scratch keys the interpreted session uses.
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

    // Compile every segment: build the owned layer contexts and record each
    // layer's route stream with a zero-input pass that replicates the
    // interpreted StaB sequence exactly (routes are data-independent).
    let mut segments: Vec<CompiledSegment> = Vec::with_capacity(session.segments.len());
    let mut span_scratch = SpanScratch::new(config.rows, config.cols, 1);
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
            let mut recorder = RouteRecorder::new();
            {
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
                    Some(1),
                    &mut span_scratch,
                )?;
            }
            stab.swap();

            layers.push(CompiledLayer {
                exec,
                weight,
                iact_spec: ispec,
                oact_spec: ospec,
                idims,
                odims,
                iact_plan: crate::core::iact_plan(&mapping.iact_layout, layer),
                oact_plan: crate::core::oact_plan(&mapping.oact_layout, layer),
                routes: recorder.into_stream(),
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

    // Emit the op stream by symbolically replaying the interpreted run-state
    // transitions (consumer counts, the fresh register, scratch parking).
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

    Ok(Program {
        name: graph.name.clone(),
        config,
        batch,
        quant_shift,
        quant_zero,
        threads: session.segments[0].session.threads(),
        input_shape,
        input_slot,
        fingerprint: session_fingerprint(session),
        energy_model: session.energy_model,
        tensors,
        segments,
        joins,
        ops,
    })
}

/// Compile through the on-disk artifact cache — the implementation behind
/// [`GraphSession::compile_cached`].
pub(crate) fn compile_cached(
    session: &GraphSession,
) -> Result<(Program, ArtifactStatus), ArchError> {
    let Some(dir) = cache_dir() else {
        return Ok((compile(session)?, ArtifactStatus::Disabled));
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
        LoadOutcome::Loaded(program) if program.fingerprint == fingerprint => {
            return Ok((*program, ArtifactStatus::Hit));
        }
        // The path encodes the fingerprint, so parseable-but-mismatched
        // content is just as wrong as a bad checksum.
        LoadOutcome::Loaded(_) | LoadOutcome::Corrupt => {
            quarantine(&path);
            ArtifactStatus::Quarantined
        }
        LoadOutcome::Missing => ArtifactStatus::Miss,
    };
    let program = compile(session)?;
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
    let threads = match session.segments[0].session.threads() {
        Some(n) => n.to_string(),
        None => "auto".to_string(),
    };
    let _ = writeln!(
        text,
        "program|{}|rows={}|cols={}|stab={}|strb={}|batch={}|shift={shift}|zero={zero}|threads={threads}",
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

/// Parses a serialized program; `None` on any malformed content, including
/// a missing or mismatched trailing checksum line.
fn parse_program(text: &str) -> Option<Program> {
    // The artifact ends with `checksum <fnv1a64-hex>` covering every byte
    // before it; verify that first so truncation or bit flips anywhere in
    // the body fail fast instead of surfacing as a puzzling parse error.
    let sum_at = text.rfind("checksum ")?;
    if sum_at != 0 && text.as_bytes()[sum_at - 1] != b'\n' {
        return None;
    }
    let expected =
        u64::from_str_radix(text[sum_at..].trim_end().strip_prefix("checksum ")?, 16).ok()?;
    let covered = &text[..sum_at];
    if fnv1a64(covered.as_bytes()) != expected {
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
        requests: Vec<ReductionRequest>,
        stream: Vec<u32>,
        block_starts: Vec<u32>,
    }
    struct SegmentParts {
        input: usize,
        output: usize,
        graph_input: bool,
        graph_output: bool,
        layers: Vec<LayerParts>,
    }

    let mut name = String::new();
    let mut config: Option<FeatherConfig> = None;
    let mut batch = 0usize;
    let mut quant_shift = 0u32;
    let mut quant_zero = 0i8;
    let mut threads: Option<usize> = None;
    let mut fingerprint = 0u64;
    let mut input_slot = 0usize;
    let mut tensors: Vec<TensorSlot> = Vec::new();
    let mut segments: Vec<SegmentParts> = Vec::new();
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
                threads = match get("threads")? {
                    "auto" => None,
                    n => Some(n.parse().ok()?),
                };
                fingerprint = u64::from_str_radix(get("fp")?, 16).ok()?;
                input_slot = get("input")?.parse().ok()?;
            }
            "tensor" => {
                let id: usize = get("id")?.parse().ok()?;
                let shape = parse_usizes::<4>(get("shape")?)?;
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
                let conv = get("conv")?;
                let mut fields = conv.split(',');
                let n: usize = fields.next()?.parse().ok()?;
                let m: usize = fields.next()?.parse().ok()?;
                let c: usize = fields.next()?.parse().ok()?;
                let h: usize = fields.next()?.parse().ok()?;
                let w: usize = fields.next()?.parse().ok()?;
                let r: usize = fields.next()?.parse().ok()?;
                let s: usize = fields.next()?.parse().ok()?;
                let stride: usize = fields.next()?.parse().ok()?;
                let padding: usize = fields.next()?.parse().ok()?;
                let kind = parse_kind(fields.next()?)?;
                let layer_name = unesc(get("name")?);
                let mut layer = ConvLayer::new(n, m, c, h, w, r, s)
                    .with_stride(stride)
                    .with_padding(padding)
                    .with_name(layer_name.clone());
                layer.kind = kind;
                let map = parse_usizes::<3>(get("map")?)?;
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
                    requests: Vec::new(),
                    stream: Vec::new(),
                    block_starts: Vec::new(),
                });
            }
            "slot" => {
                let si: usize = get("seg")?.parse().ok()?;
                let li: usize = get("layer")?.parse().ok()?;
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
                let dests = get("dests")?;
                if !dests.is_empty() {
                    for pair in dests.split(',') {
                        let (gid, bank) = pair.split_once(':')?;
                        group_destinations.insert(gid.parse().ok()?, bank.parse().ok()?);
                    }
                }
                segments
                    .get_mut(si)?
                    .layers
                    .get_mut(li)?
                    .requests
                    .push(ReductionRequest {
                        input_groups,
                        group_destinations,
                    });
            }
            "stream" => {
                let si: usize = get("seg")?.parse().ok()?;
                let li: usize = get("layer")?.parse().ok()?;
                let values = rle_decode(line)?;
                segments.get_mut(si)?.layers.get_mut(li)?.stream = values;
            }
            "blocks" => {
                let si: usize = get("seg")?.parse().ok()?;
                let li: usize = get("layer")?.parse().ok()?;
                let deltas = rle_decode(line)?;
                let mut acc = 0u32;
                let starts = deltas
                    .iter()
                    .map(|&d| {
                        acc = acc.checked_add(d)?;
                        Some(acc)
                    })
                    .collect::<Option<Vec<u32>>>()?;
                segments.get_mut(si)?.layers.get_mut(li)?.block_starts = starts;
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
    let energy_model = EnergyModel::tsmc28();
    let mut compiled_segments: Vec<CompiledSegment> = Vec::with_capacity(segments.len());
    for seg in segments {
        let mut layers: Vec<CompiledLayer> = Vec::with_capacity(seg.layers.len());
        let mut names: Vec<String> = Vec::with_capacity(seg.layers.len());
        for lp in seg.layers {
            let exec = LayerExec::new(&config, &lp.layer, &lp.mapping).ok()?;
            let routes =
                RouteStream::recompile(exec.birrd(), lp.requests, lp.stream, lp.block_starts)
                    .ok()?;
            // The block table must cover every (wt_m, wt_c, n) work block or
            // replay would index out of range.
            if routes.block_starts.len() != exec.block_count() {
                return None;
            }
            let weight = if lp.pool {
                WeightSource::Pool(pool_window_weights(&lp.layer))
            } else {
                WeightSource::Node(NodeId(lp.weight_node))
            };
            names.push(lp.name);
            layers.push(CompiledLayer {
                iact_spec: iact_spec(&lp.layer, &lp.mapping),
                oact_spec: oact_spec(&lp.layer, &lp.mapping),
                idims: lp.layer.iact_dim_sizes(),
                odims: lp.layer.oact_dim_sizes(),
                iact_plan: crate::core::iact_plan(&lp.mapping.iact_layout, &lp.layer),
                oact_plan: crate::core::oact_plan(&lp.mapping.oact_layout, &lp.layer),
                exec,
                weight,
                routes,
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
    if tensors.get(input_slot).is_none() || compiled_segments.is_empty() {
        return None;
    }
    let input_shape = tensors[input_slot].shape;
    Some(Program {
        name,
        config,
        batch,
        quant_shift,
        quant_zero,
        threads,
        input_shape,
        input_slot,
        fingerprint,
        energy_model,
        tensors,
        segments: compiled_segments,
        joins,
        ops,
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

fn join_usizes(values: &[usize]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_usizes<const N: usize>(text: &str) -> Option<[usize; N]> {
    let parsed: Vec<usize> = text
        .split(',')
        .map(|tok| tok.parse().ok())
        .collect::<Option<Vec<_>>>()?;
    parsed.try_into().ok()
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

    #[test]
    fn replay_matches_interpreted_run_exactly() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 11);
        let weights = g.random_weights(12);
        let interpreted = session.run(&iacts, &weights).unwrap();
        let program = session.compile().unwrap();
        let replayed = ProgramSession::new(program).run(&iacts, &weights).unwrap();
        assert_eq!(replayed.oacts, interpreted.oacts);
        assert_eq!(replayed.report, interpreted.report);
    }

    #[test]
    fn replay_is_reusable_and_thread_invariant() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let iacts = Tensor4::random([1, 4, 6, 6], 21);
        let weights = g.random_weights(22);
        let interpreted = session.run(&iacts, &weights).unwrap();
        let replay = ProgramSession::new(session.compile().unwrap());
        // Replay twice (a serving process reuses one program) and once with
        // explicit sharding — all bit-identical.
        let first = replay.run(&iacts, &weights).unwrap();
        let second = replay.run(&iacts, &weights).unwrap();
        let sharded = replay
            .clone()
            .with_threads(3)
            .run(&iacts, &weights)
            .unwrap();
        assert_eq!(first.report, interpreted.report);
        assert_eq!(second.report, interpreted.report);
        assert_eq!(sharded.oacts, interpreted.oacts);
        assert_eq!(sharded.report, interpreted.report);
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

    #[test]
    fn batched_replay_is_bit_identical_to_solo_replays() {
        let g = residual_graph();
        let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let weights = g.random_weights(82);
        let replay = ProgramSession::new(session.compile().unwrap());
        let samples: Vec<Tensor4<i8>> = (0..4u64)
            .map(|seed| Tensor4::random([1, 4, 6, 6], 80 + seed))
            .collect();

        let mut scratch = BatchedScratch::new();
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
        // Sharded batched replay stays exact too.
        let sharded = replay
            .clone()
            .with_threads(3)
            .run_batched(&samples, &weights)
            .unwrap();
        for (lane, sample) in samples.iter().enumerate() {
            let solo = replay.run(sample, &weights).unwrap();
            assert_eq!(sharded[lane].oacts, solo.oacts, "lane {lane} sharded");
            assert_eq!(sharded[lane].report, solo.report, "lane {lane} sharded");
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
        let mut lane_scratch = BatchedScratch::new();
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
            let mapping = &program.segments[0].layers[0].exec.mapping;
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
            let sharded = replay.clone().with_threads(3);
            for (sample, want) in samples.iter().zip(&golden) {
                assert_eq!(&session.run(sample, &weights).unwrap().oacts, want);
                assert_eq!(&replay.run(sample, &weights).unwrap().oacts, want);
                assert_eq!(&sharded.run(sample, &weights).unwrap().oacts, want);
            }
            for session in [&replay, &sharded] {
                let lanes = session.run_batched(&samples, &weights).unwrap();
                for (lane, want) in lanes.iter().zip(&golden) {
                    assert_eq!(&lane.oacts, want, "{} batched", layer.name);
                }
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
        let interpreted = session.run(&iacts, &weights).unwrap();
        let replayed = ProgramSession::new(loaded).run(&iacts, &weights).unwrap();
        assert_eq!(replayed.oacts, interpreted.oacts);
        assert_eq!(replayed.report, interpreted.report);
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
