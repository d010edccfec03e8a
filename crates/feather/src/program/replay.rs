use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use feather_arch::graph::NodeId;
use feather_arch::tensor::{quantize_value, Tensor4};
use feather_arch::ArchError;

use crate::accelerator::check_weight_shape;
use crate::core::{replay_fire, FlatPlan4, LANES};
#[cfg(doc)]
use crate::graph_session::GraphSession;
use crate::profile::{OpFamily, ProfileRow, ReplayProfile};
use crate::report::{GraphReport, GraphRun, JoinSummary};

use super::{Op, OperandSrc, Program, Tables, WeightSource};

impl Tables {
    /// The profile row of one executed `op`: its family and owner, with the
    /// layer's modelled cost on `Fire` rows.
    fn profile_row(&self, op: Op, wall_ns: u64) -> ProfileRow {
        let layer_of = |seg: usize, layer: usize| self.layer_cost(seg, layer).name.clone();
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
            let cost = &self.layer_cost(seg, layer).report;
            row.cycles = cost.cycles;
            row.macs = cost.macs;
            row.passes = cost.birrd_passes;
        }
        row
    }
}

/// Reusable replay allocations: the two StaB halves (plain `i32` cells, one
/// lane stripe per cell), the NEST accumulators (one stripe per mapped row
/// and `q_lane`), the `i16` operand gather row, and the tensor table's
/// boundary stripes. Every tensor that crosses a segment boundary — a
/// segment output, a join sum, a parked shortcut — is one `i8` lane stripe
/// (element `flat` of lane `l` at `flat · L + l`, padding lanes zero) taken
/// from the scratch's free list and given back when its last consumer has
/// read it. A [`ProgramSession::run_with_scratch`] /
/// [`run_batched_with_scratch`] call grows all of them to what its program
/// needs at one lane or at eight and keeps them, so a serving executor's
/// steady state allocates only what it hands back: the output tensors and
/// each run's join list. One scratch belongs to one executor thread at a
/// time (it is `&mut` for the whole run) and serves any program and both
/// lane widths.
///
/// Replaying through a reused scratch is bit-identical to replaying through
/// a fresh one: every `Stage` and `Fire` zeroes the cells it is about to
/// use, every run starts from zeroed accumulators, a `Fire` writes the
/// gather row before it reads it, and every stripe is zeroed when it is
/// taken, so nothing a previous run — even one that panicked half-way —
/// left behind is ever read.
///
/// [`run_batched_with_scratch`]: ProgramSession::run_batched_with_scratch
#[derive(Debug, Default)]
pub struct ReplayScratch {
    halves: [Vec<i32>; 2],
    acc: Vec<i32>,
    operands: Vec<i16>,
    /// Boundary stripes no tensor holds.
    free: Vec<Vec<i8>>,
    /// Per tensor-table slot: its stripe while parked in the scratch region.
    parked: Vec<Option<Vec<i8>>>,
    /// Unparked operands awaiting their consumer: `(slot, last reader)`.
    queue: VecDeque<(usize, bool)>,
    /// Join saturation counts of the group, join-major over its live lanes.
    saturated: Vec<u64>,
    /// The graph output's `i32` values, striped, until the group's per-lane
    /// output tensors are split off it.
    output: Vec<i32>,
}

impl ReplayScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Sizes the buffers for `program` at `lanes` samples per cell, zeroes
    /// the accumulators and empties the tensor table.
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
        // Zeroed accumulators, and the widest operand gather row.
        let accumulators = program.config.rows * program.config.cols;
        self.acc.clear();
        self.acc.resize(accumulators * lanes, 0);
        let operands = program.segments.iter().flat_map(|s| &s.layers);
        let operands = operands
            .map(|l| l.replay.operand_cells())
            .max()
            .unwrap_or(0);
        if self.operands.len() < operands * lanes {
            self.operands.resize(operands * lanes, 0);
        }
        // A run that failed half-way leaves its stripes where they were.
        let held = self.parked.iter_mut().filter_map(Option::take);
        self.free.extend(held);
        self.parked.resize_with(program.tensors.len(), || None);
        self.queue.clear();
        self.saturated.clear();
    }
}

/// Where a boundary operand lies at replay time, and whether its reader is
/// the last one (which hands its stripe back to the free list).
#[derive(Debug, Clone, Copy)]
enum Held {
    /// The fresh register.
    Fresh { last: bool },
    /// A parked slot, reached through the unpark queue.
    Parked { slot: usize, last: bool },
}

/// The live boundary stripes of one replay: the fresh register, the tensor
/// it displaced (until a `Park` moves it into the scratch region) and the
/// parked slots.
struct Boundary<'s> {
    fresh: Option<Vec<i8>>,
    displaced: Option<Vec<i8>>,
    parked: &'s mut [Option<Vec<i8>>],
    free: &'s mut Vec<Vec<i8>>,
    /// The program's largest stripe: a buffer taken is first grown this
    /// large, so whichever tensor it is handed to next, it never grows
    /// again.
    widest: usize,
}

impl Boundary<'_> {
    /// A zeroed stripe of `len` elements off the free list.
    fn take(&mut self, len: usize) -> Vec<i8> {
        let mut stripe = self.free.pop().unwrap_or_default();
        stripe.clear();
        stripe.reserve_exact(self.widest);
        stripe.resize(len, 0);
        stripe
    }

    /// The stripe `held` names.
    fn read(&self, held: Held) -> Result<&[i8], ArchError> {
        let stripe = match held {
            Held::Fresh { .. } => self.fresh.as_deref(),
            Held::Parked { slot, .. } => self.parked[slot].as_deref(),
        };
        stripe.ok_or_else(|| inconsistent("boundary operand missing"))
    }

    /// Hands `held`'s stripe back to the free list if its reader was the
    /// last.
    fn release(&mut self, held: Held) {
        let stripe = match held {
            Held::Fresh { last: true } => self.fresh.take(),
            Held::Parked { slot, last: true } => self.parked[slot].take(),
            Held::Fresh { last: false } | Held::Parked { last: false, .. } => None,
        };
        self.free.extend(stripe);
    }

    /// Makes `stripe` the fresh tensor; the one it displaces waits for a
    /// `Park`, and an earlier displaced one nobody parked is freed.
    fn publish(&mut self, stripe: Vec<i8>) {
        let stale = std::mem::replace(&mut self.displaced, self.fresh.replace(stripe));
        self.free.extend(stale);
    }

    /// Hands every stripe still held back to the free list.
    fn recycle(mut self) {
        let parked = self.parked.iter_mut().filter_map(Option::take);
        self.free
            .extend(parked.chain(self.fresh.take()).chain(self.displaced.take()));
    }
}

/// The graph-DAG replay executor: dispatches a compiled [`Program`]'s op
/// stream linearly. Cheap to clone (it holds a [`Program`] handle); safe to
/// use from multiple threads via `&self`.
#[derive(Debug, Clone)]
pub struct ProgramSession {
    pub(super) program: Program,
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
    /// values, so they are not computed here at all: the returned report
    /// shares [`Program::cost`]'s segment list (one reference-count bump)
    /// and carries its own join list, with each join's `saturated` count —
    /// the one number that is data. What a `Fire` does per call is
    /// one plain StaB cell read per mapped iAct into a gather row shared by
    /// all `m_rows` mapped rows, their MACs summed per row and `q_lane` into
    /// one register-local accumulator, then per row fire each lane's sum
    /// added into its output cell in place — what the row's folded BIRRD
    /// passes deliver, without reading them (`core::replay_fire`). A single
    /// sample runs the one-lane specialisation of that loop. Between
    /// segments a tensor stays one lane stripe of the scratch: a `Drain`
    /// quantises the StaB cells straight into it and the next `Stage` or
    /// `Join` reads it as it lies; only the graph output becomes a
    /// `Tensor4`.
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

    /// [`ProgramSession::run`] reusing `scratch`'s buffers — StaB halves,
    /// accumulators and boundary stripes — across calls, so a serving
    /// executor's steady state allocates only the output tensor and the
    /// report's join list per request. Results are bit-identical to
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

    /// Replays the program once per input sample, in groups of eight samples
    /// that execute every op a single time in lane-vectorized lockstep.
    /// Activations live in lane stripes (sample `l` of a group occupies lane
    /// `l` of every StaB cell, accumulator and boundary tensor), so every
    /// multiply-accumulate, row fire, drain and residual add moves a whole
    /// 8-lane stripe, and per-sample tensors exist only at the graph input
    /// and output. A batch of `n ≥ 2`
    /// samples replays as `⌈n / 8⌉` such groups, the last padded with zero
    /// lanes whose outputs and join counts are dropped; a batch of one runs
    /// the one-lane specialisation [`ProgramSession::run`] runs. It is the
    /// same replay loop either way, so the returned runs, outputs *and*
    /// reports, are bit-identical to calling `run` on each sample alone:
    /// every sample's report shares [`Program::cost`]'s segment list and
    /// has its own join saturation counts.
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
    /// fresh scratch. Every entry point ends here, and here alone the batch
    /// size picks the loop: a batch of one sample — a lone serving request,
    /// or [`ProgramSession::run`] — gets the scalar (one-lane)
    /// specialisation, any larger one eight-lane groups.
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
    /// nanoseconds — joined with what [`Program::cost`] charges that layer
    /// (a batch of more than eight samples executes, and profiles, the op
    /// stream once per eight-lane group). The plain entry points hand the
    /// loop no sink and read no clock.
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

    /// Checks the samples and picks the loop by batch size — one lane for a
    /// lone sample, [`LANES`]-wide groups otherwise — with or without a
    /// profile sink.
    fn dispatch(
        &self,
        scratch: &mut ReplayScratch,
        iacts: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
        mut profile: Option<&mut ReplayProfile>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        let expected = self.program.tables.input_shape;
        if let Some(bad) = iacts.iter().find(|t| t.shape() != expected) {
            return Err(ArchError::ShapeMismatch(format!(
                "graph input shape {:?}, expected {expected:?}",
                bad.shape()
            )));
        }
        if iacts.is_empty() {
            return Err(ArchError::InvalidWorkload(
                "batched replay needs at least one sample".to_string(),
            ));
        }
        let mut runs = Vec::with_capacity(iacts.len());
        if iacts.len() == 1 {
            self.replay::<1>(scratch, iacts, weights, profile, &mut runs)?;
        } else {
            for group in iacts.chunks(LANES) {
                let sink = profile.as_deref_mut();
                self.replay::<LANES>(scratch, group, weights, sink, &mut runs)?;
            }
        }
        Ok(runs)
    }

    /// The replay loop behind every entry point: `samples` (at most `L`)
    /// occupy the first lanes of `L`-lane stripes; the rest are zero lanes,
    /// staged as zeros, carried through every `Fire` and zeroed again at
    /// every `Drain`, so nothing of theirs is returned or joined. One run
    /// per sample is pushed onto `runs`.
    fn replay<const L: usize>(
        &self,
        scratch: &mut ReplayScratch,
        samples: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
        mut profile: Option<&mut ReplayProfile>,
        runs: &mut Vec<GraphRun>,
    ) -> Result<(), ArchError> {
        debug_assert!((1..=L).contains(&samples.len()));
        let started = profile.as_ref().map(|_| Instant::now());
        let p = &*self.program.tables;
        let live = samples.len();
        scratch.provision(p, L);
        let ReplayScratch {
            halves: [ping, pong],
            acc,
            operands,
            free,
            parked,
            queue,
            saturated,
            output,
        } = scratch;
        let (mut active, mut shadow) = (ping, pong);
        let (shift, zero) = (p.quant_shift, p.quant_zero);
        let elems = |slot: usize| p.tensors[slot].shape.iter().product::<usize>();

        let mut held = Boundary {
            fresh: None,
            displaced: None,
            parked,
            free,
            widest: (0..p.tensors.len()).map(elems).max().unwrap_or(0) * L,
        };
        // The graph input, striped, is the first fresh tensor.
        let mut input = held.take(elems(p.input_slot) * L);
        for (lane, sample) in samples.iter().enumerate() {
            for (slot, &v) in input[lane..].iter_mut().step_by(L).zip(sample.as_slice()) {
                *slot = v;
            }
        }
        held.fresh = Some(input);
        // The graph output's shape, once an op has striped it into `output`.
        let mut output_shape: Option<[usize; 4]> = None;

        if let (Some(profile), Some(started)) = (profile.as_deref_mut(), started) {
            profile.outside_ns += elapsed_ns(started);
        }

        for op in &p.ops {
            let started = profile.as_ref().map(|_| Instant::now());
            match *op {
                Op::Unpark { tensor, free } => {
                    if held.parked[tensor].is_none() {
                        return Err(ArchError::InvalidWorkload(format!(
                            "tensor t{} consumed before being produced or after being freed",
                            p.tensors[tensor].id
                        )));
                    }
                    queue.push_back((tensor, free));
                }
                Op::Stage { seg, fresh, take } => {
                    let src = if fresh {
                        OperandSrc::Fresh { take }
                    } else {
                        OperandSrc::Queue
                    };
                    let src = resolve(src, queue)?;
                    let input = held.read(src)?;
                    let first = &p.segments[seg].layers[0].replay;
                    let l = &first.tiling.layer;
                    let expected = [l.n, l.c, l.h, l.w];
                    if input.len() != expected.iter().product::<usize>() * L {
                        return Err(ArchError::ShapeMismatch(format!(
                            "segment input of {} elements, expected {expected:?}",
                            input.len() / L
                        )));
                    }
                    // Cells the layout leaves unaddressed stay zero.
                    let cells = &mut active[..first.iact.cells() * L];
                    cells.fill(0);
                    stage_stripe::<L>(&first.iact, input, cells);
                    held.release(src);
                }
                Op::Fire { seg, layer } => {
                    let cs = &p.segments[seg];
                    let cl = &cs.layers[layer];
                    let lw: &Tensor4<i8> = match &cl.weight {
                        WeightSource::Pool(w) => w,
                        WeightSource::Node(id) => weights.get(id).ok_or_else(|| {
                            ArchError::InvalidWorkload(format!(
                                "no weight tensor supplied for node `{}`",
                                p.layer_cost(seg, layer).name
                            ))
                        })?,
                    };
                    check_weight_shape(&cl.replay.tiling.layer, lw)?;
                    shadow[..cl.replay.oact.cells() * L].fill(0);
                    replay_fire::<L>(&cl.replay, lw.as_slice(), active, shadow, acc, operands);
                }
                Op::Reorder { seg, layer } => {
                    let rl = &p.segments[seg].layers[layer].replay;
                    rl.oact.for_each_cell(|_, cell| {
                        for v in &mut shadow[cell * L..][..L] {
                            *v = quantize_value(*v, shift, zero) as i32;
                        }
                    });
                }
                Op::Swap { .. } => std::mem::swap(&mut active, &mut shadow),
                Op::Drain { seg } => {
                    let cs = &p.segments[seg];
                    let last = &cs.layers.last().expect("segments are non-empty").replay;
                    let cells: &[i32] = active;
                    let mut drained = held.take(elems(cs.output) * L);
                    drain_stripe::<L>(&last.oact, cells, &mut drained, shift, zero);
                    if live < L {
                        // Padding lanes stay zero.
                        for stripe in drained.chunks_exact_mut(L) {
                            stripe[live..].fill(0);
                        }
                    }
                    if cs.graph_output {
                        output.clear();
                        output.resize(drained.len(), 0);
                        last.oact.for_each_cell(|flat, cell| {
                            output[flat * L..][..L].copy_from_slice(&cells[cell * L..][..L]);
                        });
                        output_shape = Some(p.tensors[cs.output].shape);
                    }
                    held.publish(drained);
                }
                Op::Join { join } => {
                    let spec = &p.joins[join];
                    let (a, b) = (resolve(spec.a, queue)?, resolve(spec.b, queue)?);
                    let len = elems(spec.output) * L;
                    let mut sum = held.take(len);
                    let (xa, xb) = (held.read(a)?, held.read(b)?);
                    if xa.len() != len || xb.len() != len {
                        return Err(ArchError::ShapeMismatch(format!(
                            "residual add `{}` of {} and {} elements, expected {:?}",
                            spec.name,
                            xa.len() / L,
                            xb.len() / L,
                            p.tensors[spec.output].shape
                        )));
                    }
                    let clamped = saturating_add::<L>(&mut sum, xa, xb);
                    saturated.extend_from_slice(&clamped[..live]);
                    if spec.graph_output {
                        output.clear();
                        output.extend(sum.iter().map(|&v| i32::from(v)));
                        output_shape = Some(p.tensors[spec.output].shape);
                    }
                    held.release(a);
                    held.release(b);
                    held.publish(sum);
                }
                Op::Park { tensor } => {
                    let stripe = held
                        .displaced
                        .take()
                        .ok_or_else(|| inconsistent("park without a displaced tensor"))?;
                    let stale = held.parked[tensor].replace(stripe);
                    held.free.extend(stale);
                }
            }
            if let (Some(profile), Some(started)) = (profile.as_deref_mut(), started) {
                profile.rows.push(p.profile_row(*op, elapsed_ns(started)));
            }
        }

        let started = profile.as_ref().map(|_| Instant::now());
        held.recycle();
        let shape = output_shape.ok_or_else(|| inconsistent("no op produced the graph output"))?;
        if saturated.len() != p.cost.joins.len() * live {
            return Err(inconsistent("a join did not cover every lane"));
        }
        // The per-lane results: each sample's output, split off the striped
        // graph output, and the program's report — its segment list shared,
        // its join list carrying the sample's saturation counts.
        for lane in 0..live {
            let values = output[lane..].iter().step_by(L).copied().collect();
            let joins = p.cost.joins.iter().enumerate();
            let joins = joins.map(|(join, summary)| JoinSummary {
                saturated: saturated[join * live + lane],
                ..summary.clone()
            });
            runs.push(GraphRun {
                oacts: Tensor4::from_vec(shape, values)?,
                report: GraphReport {
                    segments: Arc::clone(&p.cost.segments),
                    joins: joins.collect(),
                    scratch: p.cost.scratch,
                    scratch_peak_elems: p.cost.scratch_peak_elems,
                },
            });
        }
        if let (Some(profile), Some(started)) = (profile, started) {
            profile.outside_ns += elapsed_ns(started);
        }
        Ok(())
    }
}

/// Stages a boundary stripe into the StaB cells `plan` addresses: the `L`
/// lanes of element `flat` into those of its cell.
///
/// This and [`drain_stripe`] are functions of their own so that their
/// slices are distinct arguments: knowing that the cells and the stripe
/// never overlap, LLVM moves a whole stripe per cell instead of one lane at
/// a time.
#[inline(never)]
fn stage_stripe<const L: usize>(plan: &FlatPlan4, stripe: &[i8], cells: &mut [i32]) {
    plan.for_each_cell(|flat, cell| {
        let lanes = cells[cell * L..][..L].iter_mut();
        for (slot, &v) in lanes.zip(&stripe[flat * L..][..L]) {
            *slot = i32::from(v);
        }
    });
}

/// Drains the StaB cells `plan` addresses into a boundary stripe, each lane
/// through the quantization module ([`quantize_value`]).
#[inline(never)]
fn drain_stripe<const L: usize>(
    plan: &FlatPlan4,
    cells: &[i32],
    stripe: &mut [i8],
    shift: u32,
    zero: i8,
) {
    plan.for_each_cell(|flat, cell| {
        let lanes = stripe[flat * L..][..L].iter_mut();
        for (q, &v) in lanes.zip(&cells[cell * L..][..L]) {
            *q = quantize_value(v, shift, zero);
        }
    });
}

/// Nanoseconds since `started`, saturating.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The error of a program whose op stream contradicts itself.
fn inconsistent(what: &str) -> ArchError {
    ArchError::InvalidWorkload(format!("compiled program is inconsistent: {what}"))
}

/// Acquires a join operand or segment input: the fresh register, or the
/// parked slot at the front of the unpark queue.
fn resolve(src: OperandSrc, queue: &mut VecDeque<(usize, bool)>) -> Result<Held, ArchError> {
    match src {
        OperandSrc::Fresh { take } => Ok(Held::Fresh { last: take }),
        OperandSrc::Queue => {
            let (slot, last) = queue
                .pop_front()
                .ok_or_else(|| inconsistent("unpark queue is empty"))?;
            Ok(Held::Parked { slot, last })
        }
    }
}

/// `sum = a + b` element by element, saturating at the INT8 boundary like
/// [`saturating_add_i8`](feather_arch::tensor::saturating_add_i8), over
/// `L`-lane stripes: returns how many elements of each lane clamped. Not
/// inlined, for the reason [`stage_stripe`] gives.
#[inline(never)]
fn saturating_add<const L: usize>(sum: &mut [i8], a: &[i8], b: &[i8]) -> [u64; L] {
    // Blocks of whole stripes, so that position `j` of every block is lane
    // `j % L`: each position counts its clamps in a byte — a sum clamped
    // exactly where it differs from the wrapping one — which is emptied
    // into its lane's total every 255 blocks, before it can wrap.
    const BLOCK: usize = 32;
    const ROUND: usize = 255 * BLOCK;
    const { assert!(BLOCK % L == 0) };
    let mut per_lane = [0u64; L];
    let mut counts = [0u8; BLOCK];
    let add = |sum: &mut [i8], a: &[i8], b: &[i8], counts: &mut [u8; BLOCK]| {
        let elements = sum.iter_mut().zip(a.iter().zip(b));
        for ((s, (&a, &b)), count) in elements.zip(counts.iter_mut()) {
            *s = a.saturating_add(b);
            *count += u8::from(*s != a.wrapping_add(b));
        }
    };
    let rounds = sum
        .chunks_mut(ROUND)
        .zip(a.chunks(ROUND).zip(b.chunks(ROUND)));
    for (sum, (a, b)) in rounds {
        let mut blocks = sum.chunks_exact_mut(BLOCK);
        let (mut a, mut b) = (a.chunks_exact(BLOCK), b.chunks_exact(BLOCK));
        for (sum, (a, b)) in blocks.by_ref().zip(a.by_ref().zip(b.by_ref())) {
            add(sum, a, b, &mut counts);
        }
        add(
            blocks.into_remainder(),
            a.remainder(),
            b.remainder(),
            &mut counts,
        );
        for (j, count) in counts.iter_mut().enumerate() {
            per_lane[j % L] += u64::from(std::mem::take(count));
        }
    }
    per_lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::tensor::saturating_add_i8;

    /// Interleaves one tensor per lane into an `L`-lane stripe.
    fn stripe<const L: usize>(lanes: &[Tensor4<i8>]) -> Vec<i8> {
        let mut stripe = vec![0; lanes[0].len() * L];
        for (lane, tensor) in lanes.iter().enumerate() {
            for (slot, &v) in stripe[lane..].iter_mut().step_by(L).zip(tensor.as_slice()) {
                *slot = v;
            }
        }
        stripe
    }

    /// The striped residual add is `saturating_add_i8` lane by lane, sums
    /// and clamp counts alike: across lengths that end mid-block, and past
    /// the 255 blocks after which the per-position byte counters are
    /// emptied — with every element clamping, so a counter that wrapped
    /// would show.
    fn striped_add_matches_the_tensor_add<const L: usize>() {
        let lengths = [1usize, 3, 4, 5, 31, 32, 33, 100, 1021, 2048, 2049, 9000];
        for (case, &n) in lengths.iter().enumerate() {
            let seed = 100 * case as u64;
            // Full-range values, about a quarter of whose sums clamp; and
            // sums that all clamp.
            let spread = |s: u64| {
                Tensor4::from_fn([1, 1, 1, n], |_, _, _, i| {
                    ((i as u64 * 2_654_435_761 + s * 97) >> 7) as u8 as i8
                })
            };
            for what in ["spread", "clamping"] {
                let fill = |s| match what {
                    "spread" => spread(s),
                    _ => Tensor4::from_fn([1, 1, 1, n], |_, _, _, _| 100),
                };
                let a: Vec<Tensor4<i8>> = (0..L as u64).map(|l| fill(seed + l)).collect();
                let b: Vec<Tensor4<i8>> = (0..L as u64).map(|l| fill(seed + 50 + l)).collect();
                let mut sum = vec![0; n * L];
                let clamped = saturating_add::<L>(&mut sum, &stripe::<L>(&a), &stripe::<L>(&b));
                let expected: Vec<(Tensor4<i8>, u64)> = a
                    .iter()
                    .zip(&b)
                    .map(|(a, b)| saturating_add_i8(a, b).unwrap())
                    .collect();
                let sums: Vec<Tensor4<i8>> = expected.iter().map(|(s, _)| s.clone()).collect();
                assert_eq!(sum, stripe::<L>(&sums), "{L} lanes, {n} elements, {what}");
                let counts: Vec<u64> = expected.iter().map(|&(_, c)| c).collect();
                assert_eq!(clamped.to_vec(), counts, "{L} lanes, {n} elements, {what}");
                if n >= 100 {
                    assert!(counts.iter().all(|&c| c > 0), "{what}: nothing clamped");
                }
            }
        }
    }

    #[test]
    fn striped_add_matches_the_tensor_add_at_one_and_eight_lanes() {
        striped_add_matches_the_tensor_add::<1>();
        striped_add_matches_the_tensor_add::<LANES>();
    }
}
