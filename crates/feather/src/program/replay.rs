use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use feather_arch::graph::NodeId;
use feather_arch::tensor::{quantize_to_i8, quantize_value, saturating_add_i8, Tensor4};
use feather_arch::ArchError;

use crate::accelerator::check_weight_shape;
use crate::core::{replay_fire, FlatPlan4, LANES};
use crate::graph_session::widen;
#[cfg(doc)]
use crate::graph_session::GraphSession;
use crate::profile::{OpFamily, ProfileRow, ReplayProfile};
use crate::report::GraphRun;

use super::{Op, OperandSrc, Program, Tables, WeightSource};

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

/// Reusable replay allocations: the two StaB halves (plain `i32` cells, one
/// lane stripe per cell), the NEST accumulators (one stripe per mapped row
/// and `q_lane`) and the `i16` operand gather row. A
/// [`ProgramSession::run_with_scratch`] / [`run_batched_with_scratch`] call
/// grows them to what its program needs at one lane or at eight and keeps
/// them, so a serving executor's steady state allocates no buffer memory.
/// One scratch belongs to one executor thread at a time (it is `&mut` for
/// the whole run) and serves any program and both lane widths.
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
    operands: Vec<i16>,
}

impl ReplayScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Sizes the buffers for `program` at `lanes` samples per cell and
    /// zeroes the accumulators.
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
    /// values, so they are not computed here at all: the returned report is
    /// a clone of [`Program::cost`] with each join's `saturated` count — the
    /// one number that is data — patched in. What a `Fire` does per call is
    /// one plain StaB cell read per mapped iAct into a gather row shared by
    /// all `m_rows` mapped rows, their MACs summed per row and `q_lane` into
    /// one register-local accumulator, then per row fire each lane's sum
    /// added into its output cell in place — what the row's folded BIRRD
    /// passes deliver, without reading them (`core::replay_fire`). A single
    /// sample runs the one-lane specialisation of that loop.
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

    /// Replays the program once per input sample, in groups of eight samples
    /// that execute every op a single time in lane-vectorized lockstep.
    /// Activations live in lane stripes (sample `l` of a group occupies lane
    /// `l` of every StaB cell and accumulator), so every multiply-accumulate
    /// and every row fire moves a whole 8-lane stripe. A batch of `n ≥ 2`
    /// samples replays as `⌈n / 8⌉` such groups, the last padded with zero
    /// lanes whose outputs and join counts are dropped; a batch of one runs
    /// the one-lane specialisation [`ProgramSession::run`] runs. It is the
    /// same replay loop either way, so the returned runs, outputs *and*
    /// reports, are bit-identical to calling `run` on each sample alone:
    /// every sample gets [`Program::cost`] with its own join saturation
    /// counts.
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
        match iacts.len() {
            0 => Err(ArchError::InvalidWorkload(
                "batched replay needs at least one sample".to_string(),
            )),
            1 => self.replay::<1>(scratch, iacts, weights, profile),
            n => {
                let mut runs = Vec::with_capacity(n);
                for group in iacts.chunks(LANES) {
                    let sink = profile.as_deref_mut();
                    runs.extend(self.replay::<LANES>(scratch, group, weights, sink)?);
                }
                Ok(runs)
            }
        }
    }

    /// The replay loop behind every entry point: `samples` (at most `L`)
    /// occupy the first lanes of `L`-lane stripes; the rest are zero lanes,
    /// staged as zeros, carried through every `Fire` and dropped at every
    /// `Drain`, so nothing of theirs is returned or joined.
    fn replay<const L: usize>(
        &self,
        scratch: &mut ReplayScratch,
        samples: &[Tensor4<i8>],
        weights: &BTreeMap<NodeId, Tensor4<i8>>,
        mut profile: Option<&mut ReplayProfile>,
    ) -> Result<Vec<GraphRun>, ArchError> {
        debug_assert!((1..=L).contains(&samples.len()));
        let p = &*self.program.tables;
        let (lanes, live) = (L, samples.len());
        scratch.provision(p, lanes);
        let ReplayScratch {
            halves: [ping, pong],
            acc,
            operands,
        } = scratch;
        let (mut active, mut shadow) = (ping, pong);
        let (shift, zero) = (p.quant_shift, p.quant_zero);

        // One tensor per live lane everywhere below. The fresh register
        // starts out borrowing the caller's samples; the scratch region is
        // one slot per tensor of the table.
        let mut fresh: Option<Cow<'_, [Tensor4<i8>]>> = Some(Cow::Borrowed(samples));
        let mut displaced: Option<Cow<'_, [Tensor4<i8>]>> = None;
        let mut queue: VecDeque<Vec<Tensor4<i8>>> = VecDeque::new();
        let mut parked: Vec<Option<Vec<Tensor4<i8>>>> = vec![None; p.tensors.len()];
        // Join saturation counts, join-major: the only data in a report.
        let mut saturated: Vec<u64> = Vec::with_capacity(p.joins.len() * live);
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
                    // Padding lanes stay zero.
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
                    replay_fire::<L>(&cl.replay, lw.as_slice(), active, shadow, acc, operands);
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
                        let accs = drain_lanes::<L, _>(&last.oact, shape, active, live, |v| v);
                        let quantized = accs
                            .iter()
                            .map(|acc| quantize_to_i8(acc, shift, zero))
                            .collect();
                        final_acc = Some(accs);
                        quantized
                    } else {
                        let quantize = |v| quantize_value(v, shift, zero);
                        drain_lanes::<L, _>(&last.oact, shape, active, live, quantize)
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
        if saturated.len() != p.cost.joins.len() * live {
            return Err(broken("a join did not cover every lane"));
        }
        Ok(final_acc
            .into_iter()
            .enumerate()
            .map(|(lane, oacts)| {
                let mut report = p.cost.clone();
                for (join, summary) in report.joins.iter_mut().enumerate() {
                    summary.saturated = saturated[join * live + lane];
                }
                GraphRun { oacts, report }
            })
            .collect())
    }
}

/// Drains a layer's oAct cells (addressed by `plan`, `L` lanes per cell)
/// into one `shape`d tensor per live lane — the first `live` — through
/// `map`, visiting each cell once.
fn drain_lanes<const L: usize, T: Copy + Default>(
    plan: &FlatPlan4,
    shape: [usize; 4],
    cells: &[i32],
    live: usize,
    map: impl Fn(i32) -> T,
) -> Vec<Tensor4<T>> {
    let mut tensors: Vec<Tensor4<T>> = (0..live).map(|_| Tensor4::zeros(shape)).collect();
    plan.for_each_cell(|flat, cell| {
        for (tensor, &v) in tensors.iter_mut().zip(&cells[cell * L..]) {
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
