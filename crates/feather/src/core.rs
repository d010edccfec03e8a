//! The shared tile-loop core of the functional executor, optimized for
//! evaluations-per-second:
//!
//! * **Compiled BIRRD routes** — every distinct reduction-reorder request of
//!   a program is routed once and lowered to a flat gather-sum program
//!   ([`feather_birrd::CompiledRoute`]). A row fire *selects* its route, as
//!   FEATHER's controller selects a configuration fixed ahead of time: the
//!   compiler's program-wide [`RouteMemo`] resolves it from the issuing
//!   layer's `c_cols` and the fire batch's bank signature, and a request is
//!   built, routed and folded into the program's [`RouteTable`] once per
//!   distinct route, not once per layer or per BIRRD pass.
//! * **Compile counts, it does not compute** — the compiler's record pass is
//!   a counting walk ([`count_conv_core`]): the buffer addresses, fire
//!   batches and route resolutions of the accounted loop, with no NEST
//!   array, weights, bus or cell value, walking each distinct block once.
//!   iAct/oAct addressing goes through precompiled per-dimension location
//!   tables ([`feather_arch::layout::LocationPlan4`]) and precomputed `h`/`w`
//!   coordinate tables instead of per-element coordinate maps.
//! * **Replay as pure data movement** — none of the accounting depends on
//!   data, so a compiled program records it once and [`replay_fire`] moves
//!   values only: plain cells and one accumulator per mapped row and live
//!   `q_lane`, which each row fire adds straight into its lane's output
//!   cell. That fusion of NEST's two phases is what every BIRRD pass of the
//!   program delivers — [`RouteTable::push`] refuses, at compile time, a
//!   folded group that is not its lane's own live ports — so replay reads
//!   no pass. Nothing about addressing is decided while it runs either: a
//!   [`ReplayLayer`] holds, lowered at compile time, the valid kernel taps
//!   of every output row and column as ranges (no padding test inside a
//!   tile) and the loop order whose innermost run is contiguous for the
//!   layer's shape. Weights stay stationary in the layer's filter tensor
//!   and are addressed in place. The loop is built for one lane and for
//!   [`LANES`] samples in lockstep, nothing between.
//!
//! Replay is the only executor that ships. The accounted loop — real values
//! through a simulated NEST array and BIRRD bus, every access counted, one
//! layer on fresh StaB halves — is test code (`accounted`): the cycle-level
//! oracle that the counting walk, replay and the public entry points are
//! tested against.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use feather_arch::fabric::{FeatherConfig, LayerMapping};
use feather_arch::layout::{Location, LocationPlan4};
use feather_arch::workload::ConvLayer;
use feather_arch::{ArchError, Dim};
use feather_birrd::{Birrd, CompiledRoute, ReductionRequest};
use feather_memsim::{AccessLedger, AccessStats};
use feather_nest::NestTiming;

/// Raw counters produced by one pass of the inner tile loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoreRun {
    /// Compute cycles (tile timings + serialized BIRRD passes), excluding
    /// bank-conflict stalls — the caller charges those from the buffer stats.
    pub cycles: u64,
    /// Number of BIRRD passes (row fires that produced live outputs).
    pub birrd_passes: u64,
    /// Number of adder activations inside BIRRD.
    pub birrd_adds: u64,
    /// Useful MACs performed.
    pub macs: u64,
}

/// A word-wise multiplicative hasher (FxHash-style) for the route memo: a
/// rotate, xor and multiply per word instead of SipHash's rounds. Its keys
/// are small integers derived from layer geometry, never input from outside.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &byte in words.remainder() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`WordHasher`].
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Routes `request` and lowers the configuration to its gather-sum program.
fn route_and_compile(
    birrd: &Birrd,
    request: &ReductionRequest,
) -> Result<CompiledRoute, ArchError> {
    let config = birrd
        .route(request)
        .map_err(|e| ArchError::InvalidDataflow(e.to_string()))?;
    Ok(CompiledRoute::compile(birrd.topology(), &config)
        .expect("routed configuration always matches the network shape"))
}

/// One reduction group of a folded BIRRD pass: the `q_lane` whose output
/// cell it accumulates into and the run of bus columns `start..start + len`
/// that sums into it — always the live prefix of that lane, as the
/// controller issues a group (`fill_request`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldedGroup {
    q_lane: u32,
    start: u32,
    len: u32,
}

/// The program-wide table of BIRRD passes, constant-folded.
///
/// A pass is identified by its reduce-reorder request plus the `c_cols` of
/// the layer that issued it (which fixes how bus columns group into
/// `q_lane`s); layers of one program share passes heavily, so the table is
/// deduplicated across all of them. Each pass is stored *folded*: per
/// reduction group, the run of bus columns the routed [`CompiledRoute`] sums
/// into the group's destination bank, with input presence already applied —
/// what is left of a BIRRD pass once its configuration is known ahead of
/// time. Every run is its group's own live ports ([`RouteTable::push`]
/// refuses any other), so a pass delivers each `q_lane`'s reduction to its
/// own output cell and replay, which sums each lane's columns straight into
/// that cell, never reads the table: it is what the program listing prints.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteTable {
    requests: Vec<(usize, ReductionRequest)>,
    /// Pass `s` owns `groups[pass_starts[s]..pass_starts[s + 1]]`.
    pass_starts: Vec<u32>,
    groups: Vec<FoldedGroup>,
}

impl RouteTable {
    /// The `(c_cols, request)` pair behind every pass, in slot order.
    pub(crate) fn requests(&self) -> &[(usize, ReductionRequest)] {
        &self.requests
    }

    /// Folds `route` under `request`'s presence mask and appends it as a new
    /// pass, returning its slot.
    ///
    /// # Errors
    /// Fails on a request that does not fit the fabric, on a group whose
    /// folded columns are not one contiguous run, and on a group whose run
    /// is not exactly its own live ports within one lane — a route that
    /// delivers some other group's columns to its bank. The controller
    /// issues neither.
    fn push(
        &mut self,
        c_cols: usize,
        request: ReductionRequest,
        route: &CompiledRoute,
    ) -> Result<u32, ArchError> {
        let malformed = |what: &str| ArchError::InvalidDataflow(format!("route table: {what}"));
        let narrow = |n: usize| u32::try_from(n).map_err(|_| malformed("index exceeds u32"));
        if c_cols == 0 || request.input_groups.len() != route.width() {
            return Err(malformed("request does not fit the fabric"));
        }
        let slot = narrow(self.requests.len())?;
        if self.pass_starts.is_empty() {
            self.pass_starts.push(0);
        }
        for (&gid, &bank) in &request.group_destinations {
            // Absent ports put nothing on the wire, whatever the fabric would
            // forward from them. Sources come in ascending order.
            let mut sources = route
                .sources_of(bank)
                .iter()
                .filter(|&&src| request.input_groups[src as usize].is_some());
            let not_a_run = || malformed("folded columns are not one run");
            let start = *sources.next().ok_or_else(not_a_run)?;
            let mut len = 1;
            for &src in sources {
                if src != start + len {
                    return Err(not_a_run());
                }
                len += 1;
            }
            // Replay sums a lane's live columns into the lane's own cell, so
            // the run must be exactly the group's ports, inside one lane.
            let (first, last) = (start as usize, (start + len - 1) as usize);
            let members = request.input_groups.iter().filter(|g| **g == Some(gid));
            let own = request.input_groups[first..=last]
                .iter()
                .all(|g| *g == Some(gid));
            if !own || members.count() != len as usize || first / c_cols != last / c_cols {
                return Err(malformed("a group's folded run is not its own live ports"));
            }
            self.groups.push(FoldedGroup {
                q_lane: narrow(first / c_cols)?,
                start,
                len,
            });
        }
        self.pass_starts.push(narrow(self.groups.len())?);
        self.requests.push((c_cols, request));
        Ok(slot)
    }

    /// Pass `slot` as `(q_lane, bus columns)` pairs, for listings.
    pub(crate) fn pass_groups(
        &self,
        slot: usize,
    ) -> impl Iterator<Item = (u32, std::ops::Range<u32>)> + '_ {
        let groups =
            &self.groups[self.pass_starts[slot] as usize..self.pass_starts[slot + 1] as usize];
        groups.iter().map(|g| (g.q_lane, g.start..g.start + g.len))
    }
}

/// One distinct route of a program: the compiled program and its
/// [`RouteTable`] slot, whose `(c_cols, request)` the table keeps.
struct MemoEntry {
    route: CompiledRoute,
    slot: u32,
}

/// The route memo of one program — its only route cache — keyed by what a
/// fire batch's route is a function of on a fabric of fixed width: the
/// issuing layer's `c_cols`, the live reduction width of its channel tile
/// and the batch's `(q_lane, bank)` pairs (`fill_request` and
/// `mark_live_lanes` read nothing else). Over one program this signature and
/// the `(c_cols, request)` pair determine each other, so a miss — the only
/// way an entry is created — builds, routes and lowers each distinct route
/// of the program exactly once and folds it into the program's
/// [`RouteTable`] as a new slot, and every later layer that issues the route
/// only selects it, as FEATHER's controller selects a configuration fixed
/// ahead of time. A memo starts empty and serves one program; its table is
/// what the program keeps ([`RouteMemo::into_table`]).
#[derive(Default)]
pub(crate) struct RouteMemo {
    /// `[c_cols, c_live, q_lane, bank, q_lane, bank, …]` → index into
    /// `entries`.
    index: WordMap<Vec<u32>, usize>,
    entries: Vec<MemoEntry>,
    key: Vec<u32>,
    table: RouteTable,
}

impl RouteMemo {
    /// Resolves `batch`'s route under the channel tile whose lane mask is
    /// `c_ok` (`c_live` live columns per lane).
    fn resolve(
        &mut self,
        ctx: &LayerExec,
        c_live: usize,
        c_ok: &[bool],
        batch: &[FireGroup],
        request: &mut ReductionRequest,
    ) -> Result<&CompiledRoute, ArchError> {
        self.key.clear();
        self.key.extend([ctx.c_cols as u32, c_live as u32]);
        let pairs = batch.iter().flat_map(|g| [g.q_lane as u32, g.bank as u32]);
        self.key.extend(pairs);
        let table = &mut self.table;
        let at = match self.index.get(self.key.as_slice()) {
            Some(&at) => {
                // Debug builds check the key ↔ request bijection both ways:
                // a hit rebuilds its request and compares it with the one its
                // slot was recorded under, and a miss (below) must be a pair
                // the table does not hold yet.
                if cfg!(debug_assertions) {
                    fill_request(request, batch, c_ok, ctx.c_cols);
                    let (c_cols, recorded) = &table.requests()[self.entries[at].slot as usize];
                    assert_eq!(
                        (*c_cols, &*request),
                        (ctx.c_cols, recorded),
                        "memo key {:?}",
                        self.key
                    );
                }
                at
            }
            None => {
                fill_request(request, batch, c_ok, ctx.c_cols);
                if cfg!(debug_assertions) {
                    let mut recorded = table.requests().iter();
                    assert!(
                        !recorded.any(|(c_cols, r)| (*c_cols, r) == (ctx.c_cols, &*request)),
                        "memo key {:?} names a recorded route",
                        self.key
                    );
                }
                let route = route_and_compile(&ctx.birrd, request)?;
                let slot = table.push(ctx.c_cols, request.clone(), &route)?;
                self.index.insert(self.key.clone(), self.entries.len());
                self.entries.push(MemoEntry { route, slot });
                self.entries.len() - 1
            }
        };
        Ok(&self.entries[at].route)
    }

    /// The program-wide route table: one folded pass per distinct route.
    pub(crate) fn into_table(self) -> RouteTable {
        self.table
    }
}

#[cfg(test)]
impl RouteMemo {
    /// The slot of the route the last [`RouteMemo::resolve`] selected.
    fn selected_slot(&self) -> u32 {
        self.entries[self.index[self.key.as_slice()]].slot
    }
}

/// Fills the reusable scratch `request` from the current fire batch: lane
/// spans of every batched group plus their destination banks.
fn fill_request(
    request: &mut ReductionRequest,
    batch: &[FireGroup],
    mapped: &[bool],
    c_cols: usize,
) {
    request.input_groups.fill(None);
    request.group_destinations.clear();
    for (gid, g) in batch.iter().enumerate() {
        let lane = g.q_lane * c_cols;
        let span = lane..lane + c_cols;
        for (live, slot) in mapped[span.clone()]
            .iter()
            .zip(&mut request.input_groups[span])
        {
            if *live {
                *slot = Some(gid);
            }
        }
        request.group_destinations.insert(gid, g.bank);
    }
}

/// Precompiles an iAct layout over a layer's `(N, C, H, W)` extents — the
/// single source of the iAct coordinate order used by the executor.
pub(crate) fn iact_plan(layout: &feather_arch::layout::Layout, layer: &ConvLayer) -> LocationPlan4 {
    layout.plan4([
        (Dim::N, layer.n),
        (Dim::C, layer.c),
        (Dim::H, layer.h),
        (Dim::W, layer.w),
    ])
}

/// Precompiles an oAct layout over a layer's `(N, M, P, Q)` extents — the
/// single source of the oAct coordinate order used by the executor.
pub(crate) fn oact_plan(layout: &feather_arch::layout::Layout, layer: &ConvLayer) -> LocationPlan4 {
    layout.plan4([
        (Dim::N, layer.n),
        (Dim::M, layer.m),
        (Dim::P, layer.output_height()),
        (Dim::Q, layer.output_width()),
    ])
}

/// How a layer tiles onto the array: the extents of the `(wt_m, wt_c, n, p,
/// qt)` nest that the accounted loop and [`replay_fire`] both walk. Owned and
/// small, so a compiled [`crate::program::Program`] keeps one per layer for
/// the lifetime of a serving process.
#[derive(Debug, Clone)]
pub(crate) struct Tiling {
    pub(crate) layer: ConvLayer,
    pub(crate) mapping: LayerMapping,
    rows: usize,
    cols: usize,
    m_rows: usize,
    c_cols: usize,
    q_cols: usize,
    m_tiles: usize,
    c_tiles: usize,
    q_tiles: usize,
    p_total: usize,
    q_total: usize,
    rs: usize,
    depthwise: bool,
}

/// Everything the record pass needs that is immutable across the whole
/// layer: the [`Tiling`] (which it derefs to), the precompiled address plans,
/// the padded-coordinate tables and the BIRRD instance.
///
/// The struct is *owned* (no borrows): the compiler builds one per layer for
/// its record pass and keeps only the tiling ([`ReplayLayer::new`]).
#[derive(Debug, Clone)]
pub(crate) struct LayerExec {
    tiling: Tiling,
    birrd: Birrd,
    /// `(N, C, H, W)` location plan for the iAct view.
    iact_plan: LocationPlan4,
    /// `(N, M, P, Q)` location plan for the oAct view.
    oact_plan: LocationPlan4,
    /// `h_table[p * R + r]` = input row for output row `p` at kernel row `r`
    /// (`None` inside the padding halo or past the input edge).
    h_table: Vec<Option<usize>>,
    /// `w_table[q * S + s]` = input column for output column `q` at kernel
    /// column `s`.
    w_table: Vec<Option<usize>>,
}

impl std::ops::Deref for LayerExec {
    type Target = Tiling;

    fn deref(&self) -> &Tiling {
        &self.tiling
    }
}

impl LayerExec {
    pub(crate) fn new(
        config: &FeatherConfig,
        layer: &ConvLayer,
        mapping: &LayerMapping,
    ) -> Result<Self, ArchError> {
        let rows = config.rows;
        let cols = config.cols;
        let p_total = layer.output_height();
        let q_total = layer.output_width();
        // Depthwise layers collapse the channel reduction: each output
        // channel consumes only its own input channel.
        let depthwise = layer.is_depthwise();
        let c_cols = if depthwise { 1 } else { mapping.c_cols };
        let q_cols = mapping.q_cols.min(cols / c_cols).max(1);
        let m_rows = mapping.m_rows;
        let m_tiles = layer.m.div_ceil(m_rows);
        let c_tiles = if depthwise {
            1
        } else {
            layer.c.div_ceil(c_cols)
        };
        let q_tiles = q_total.div_ceil(q_cols);
        let birrd = Birrd::new(cols).map_err(|e| ArchError::InvalidDataflow(e.to_string()))?;

        let iact_plan = iact_plan(&mapping.iact_layout, layer);
        let oact_plan = oact_plan(&mapping.oact_layout, layer);
        let in_bounds = |raw: usize, extent: usize| {
            (raw >= layer.padding && raw - layer.padding < extent).then(|| raw - layer.padding)
        };
        let h_table = (0..p_total * layer.r)
            .map(|i| in_bounds((i / layer.r) * layer.stride + i % layer.r, layer.h))
            .collect();
        let w_table = (0..q_total * layer.s)
            .map(|i| in_bounds((i / layer.s) * layer.stride + i % layer.s, layer.w))
            .collect();

        Ok(LayerExec {
            tiling: Tiling {
                layer: layer.clone(),
                mapping: mapping.clone(),
                rows,
                cols,
                m_rows,
                c_cols,
                q_cols,
                m_tiles,
                c_tiles,
                q_tiles,
                p_total,
                q_total,
                rs: layer.r * layer.s,
                depthwise,
            },
            birrd,
            iact_plan,
            oact_plan,
            h_table,
            w_table,
        })
    }
}

impl Tiling {
    /// The layer's `(wt_m, wt_c, n)` work blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.m_tiles * self.c_tiles * self.layer.n
    }

    /// Live reduction width of channel tile `wt_c`: the columns of a lane
    /// that hold an in-range input channel.
    fn c_live(&self, wt_c: usize) -> usize {
        if self.depthwise {
            1
        } else {
            self.c_cols.min(self.layer.c - wt_c * self.c_cols)
        }
    }
}

impl LayerExec {
    /// Marks in `c_ok` the columns whose reduction lane holds an in-range
    /// input channel under channel tile `wt_c` — the whole per-tile cost of
    /// switching weights.
    fn mark_live_lanes(&self, wt_c: usize, c_ok: &mut [bool]) {
        let c_live = self.c_live(wt_c);
        c_ok.fill(false);
        for lane in c_ok[..self.q_cols * self.c_cols].chunks_exact_mut(self.c_cols) {
            lane[..c_live].fill(true);
        }
    }

    /// Builds the reduction groups of output channel `m`'s row fire at
    /// pixel group `(n, p, qt)`: one per in-range `q_lane` (every tile has a
    /// live reduction lane: `wt_c < c_tiles`, and depthwise has `M == C`),
    /// destination = the StaB bank the oAct lands in under the next layer's
    /// layout.
    fn fire_groups(&self, [n, m, p, qt]: [usize; 4], groups: &mut Vec<FireGroup>) {
        groups.clear();
        for q_lane in 0..self.q_cols.min(self.q_total - qt * self.q_cols) {
            let loc = self
                .oact_plan
                .location([n, m, p, qt * self.q_cols + q_lane]);
            groups.push(FireGroup {
                q_lane,
                bank: loc.offset % self.cols,
                loc,
            });
        }
    }
}

/// One reduction group of a row fire: the column-lane span it gathers from,
/// the StaB bank its sum must reach, and the output cell it accumulates into.
#[derive(Clone, Copy)]
struct FireGroup {
    q_lane: usize,
    bank: usize,
    loc: Location,
}

/// Moves the next batch of `groups` with unique destination banks into
/// `batch`, leaving the rest in `groups` (a concordant mapping needs one
/// batch per fire).
fn next_batch(
    groups: &mut Vec<FireGroup>,
    batch: &mut Vec<FireGroup>,
    pending: &mut Vec<FireGroup>,
    bank_used: &mut [bool],
) {
    batch.clear();
    pending.clear();
    bank_used.fill(false);
    for g in groups.drain(..) {
        if !std::mem::replace(&mut bank_used[g.bank], true) {
            batch.push(g);
        } else {
            pending.push(g);
        }
    }
    std::mem::swap(groups, pending);
}

/// What a layer's tile loop counts, before the NEST timing turns it into a
/// [`CoreRun`].
struct SpanAccum {
    /// Row fires per `(wt_m, wt_c)` tile (index `wt_m * c_tiles + wt_c`),
    /// which the NEST timing model charges tile by tile.
    tile_fires: Vec<u64>,
    /// Serialization cycles charged for multi-batch BIRRD fires.
    extra_cycles: u64,
    birrd_passes: u64,
    birrd_adds: u64,
    macs: u64,
}

impl SpanAccum {
    /// Charges every tile's NEST timing — the first tile's weight load only
    /// when it is exposed — on top of the serialized BIRRD passes.
    fn into_core_run(self, ctx: &LayerExec, expose_first_weight_load: bool) -> CoreRun {
        let timing = NestTiming::new(ctx.rows, ctx.cols, ctx.birrd.latency_cycles());
        let mut cycles = self.extra_cycles;
        for (tile, &fires) in self.tile_fires.iter().enumerate() {
            let first_tile = tile == 0 && expose_first_weight_load;
            cycles += timing.tile(ctx.rs, fires, ctx.rs, first_tile).total();
        }
        CoreRun {
            cycles,
            birrd_passes: self.birrd_passes,
            birrd_adds: self.birrd_adds,
            macs: self.macs,
        }
    }
}

/// What the record pass counted of one `(n, p)` block of a tile — output
/// row `p` of sample `n`, over every `q` tile and every kernel step (iAct
/// reads) or every output channel of the tile (row fires): the BIRRD
/// counters (passes, adder activations, serialization cycles) and the
/// access statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    counts: [u64; 3],
    stats: AccessStats,
}

/// Accounts the `(n, p)` block of class `key`, whose highest line is `top`
/// (`None` if it touches none). The first block of a class in a tile is
/// walked (`walk(ledger, false)`) and kept in `classes`; a later one repeats
/// it on shifted lines, so it is only checked at `top` against the buffer's
/// last line (`op` names the access) and counted like the first — its
/// offsets need no check, since a layout's offset summands sum below its
/// line size. Debug builds walk it too (`walk(ledger, true)`) and assert
/// that it counts what the first did.
fn account_block<K: PartialEq + std::fmt::Debug>(
    classes: &mut Vec<(K, Block)>,
    (key, top): (K, Option<usize>),
    ledger: &mut AccessLedger,
    op: &str,
    mut walk: impl FnMut(&mut AccessLedger, bool) -> Result<Block, ArchError>,
) -> Result<Block, ArchError> {
    if let Some(&(_, first)) = classes.iter().find(|(k, _)| *k == key) {
        if let Some(top) = top {
            ledger.check_line(op, top);
        }
        if cfg!(debug_assertions) {
            assert_eq!(walk(ledger, true)?, first, "block of class {key:?}");
        }
        return Ok(first);
    }
    let block = walk(ledger, false)?;
    classes.push((key, block));
    Ok(block)
}

/// The reusable buffers of a tile's row fires.
struct FireScratch {
    c_ok: Vec<bool>,
    bank_used: Vec<bool>,
    groups: Vec<FireGroup>,
    batch: Vec<FireGroup>,
    pending: Vec<FireGroup>,
    request: ReductionRequest,
}

/// Walks the iAct reads of output row `p` of sample `n` over `channels`:
/// per `q` tile and kernel step, one cycle that reads every in-range input
/// column of the tile at kernel row `taps[r]` (`None` in the halo).
fn walk_iact_row(
    ctx: &LayerExec,
    iact: &mut AccessLedger,
    channels: &std::ops::Range<usize>,
    taps: &[Option<usize>],
    n: usize,
) -> Block {
    let layer = &ctx.layer;
    let base = *iact.stats();
    for qt in 0..ctx.q_tiles {
        let qs = qt * ctx.q_cols..ctx.q_total.min((qt + 1) * ctx.q_cols);
        for rs_step in 0..ctx.rs {
            iact.begin_cycle();
            if let Some(h) = taps[rs_step / layer.s] {
                let s_i = rs_step % layer.s;
                for w in qs.clone().filter_map(|q| ctx.w_table[q * layer.s + s_i]) {
                    for c in channels.clone() {
                        let loc = ctx.iact_plan.location([n, c, h, w]);
                        iact.read(loc.line, loc.offset);
                    }
                }
            }
            iact.flush_cycle();
        }
    }
    Block {
        counts: [0; 3],
        stats: iact.stats().since(&base),
    }
}

/// Walks the row fires of output row `p` of sample `n` under weight tile
/// `wt_m`, with the channel tile's lane mask (`c_live` live columns per
/// lane) already in `s.c_ok`: per `q` tile and mapped output channel, the
/// fire's batches, each resolved through `memo` and written in one cycle.
fn walk_fire_row(
    ctx: &LayerExec,
    oact: &mut AccessLedger,
    memo: &mut RouteMemo,
    s: &mut FireScratch,
    c_live: usize,
    [wt_m, n, p]: [usize; 3],
) -> Result<Block, ArchError> {
    let (base, mut counts) = (*oact.stats(), [0; 3]);
    for qt in 0..ctx.q_tiles {
        for m in wt_m * ctx.m_rows..ctx.layer.m.min((wt_m + 1) * ctx.m_rows) {
            ctx.fire_groups([n, m, p, qt], &mut s.groups);
            while !s.groups.is_empty() {
                next_batch(
                    &mut s.groups,
                    &mut s.batch,
                    &mut s.pending,
                    &mut s.bank_used,
                );
                let route = memo.resolve(ctx, c_live, &s.c_ok, &s.batch, &mut s.request)?;
                oact.begin_cycle();
                for g in &s.batch {
                    oact.write(g.loc.line, g.loc.offset);
                }
                oact.flush_cycle();
                let extra = u64::from(!s.groups.is_empty());
                let pass = [1, route.adder_activations() as u64, extra];
                counts.iter_mut().zip(pass).for_each(|(t, k)| *t += k);
            }
        }
    }
    Ok(Block {
        counts,
        stats: oact.stats().since(&base),
    })
}

/// The compiler's record pass over one layer: what the accounted loop counts
/// and records, with no NEST array, weights, bus, route evaluation or cell
/// value. Routes resolve through `memo`, which the compiler keeps for the
/// whole program. None of it depends on data (paper §III), so the walk
/// charges the same ledgers and route accounting at the same addresses —
/// `ctx.iact_plan` reads, each fire group's `loc` writes — each distinct
/// pattern once, and returns the counters with both halves' access
/// statistics (`iact` and `oact` are charged the walked part only).
///
/// Precondition: both StaB halves' conflict rule depends only on how many
/// distinct lines a cycle touches — the iAct half is one dual-ported bank
/// (`session::iact_spec`) and the oAct half is horizontally banked
/// (`session::oact_spec`). So a block whose every cycle touches the lines of
/// another block's cycle moved by one constant costs what that block costs.
/// `S_N[n]`, `S_H[h]`, … below are a layout's per-dimension summands
/// ([`LocationPlan4::summand`]): a location is their sum. What repeats:
///
/// * **iAct reads** do not depend on `wt_m` outside depthwise layers: one
///   tile row is walked, counted `m_tiles` times, each read feeding `M`
///   MACs. Depthwise rows read their own channels: all walked, one MAC each.
/// * **iAct rows**: within a tile, the `(n, p)` block's reads at kernel row
///   `r` are one set of lines moved by `S_N[n].line + S_H[h].line`, so a
///   block is fixed by which kernel rows fall inside the input — a run, so
///   its first and last name it. One block per run is walked.
/// * **Passes** depend only on `wt_m` and the live width `c_live`, which
///   only the last channel tile can narrow: a later tile as wide as the
///   first of its `wt_m` (all memo hits) repeats that tile's counts. Tiles
///   go in the accounted order, so slots are first seen alike — and, since
///   a memo hit never creates a slot, a memo that arrives holding earlier
///   layers' routes records the same slots.
/// * **Fire rows**: within a tile, the `(n, p)` block's fires depend on
///   `(n, p)` only through `S_N[n].offset + S_P[p].offset`, which fixes
///   every group's bank, so its batches, memo keys, adds and serialization,
///   and through a line shift `S_N[n].line + S_P[p].line`. One block per
///   offset class is walked, the first in loop order: a later one would
///   only have made memo hits.
/// * **Row fires** are `n · p_total · q_tiles · m_rows` per tile.
///
/// A repeated block is checked against the buffer's last line at its own
/// highest line: the location of its last channel, input or output row and
/// column, since no summand falls as its coordinate grows. Debug builds walk
/// it and assert that it repeats its class, as the memo's debug oracle
/// rebuilds every hit.
pub(crate) fn count_conv_core(
    ctx: &LayerExec,
    iact: &mut AccessLedger,
    oact: &mut AccessLedger,
    memo: &mut RouteMemo,
    expose_first_weight_load: bool,
) -> Result<(CoreRun, AccessStats, AccessStats), ArchError> {
    let layer = &ctx.layer;

    // ---- Phase 1: iAct reads ----
    // Per tile, each class of rows — the first and last kernel row inside
    // the input, between which every row is — with its first block.
    let last_w = ctx.w_table.iter().flatten().max();
    let (mut row, mut classes) = (AccessStats::new(), Vec::new());
    for wt_m in 0..if ctx.depthwise { ctx.m_tiles } else { 1 } {
        for wt_c in 0..ctx.c_tiles {
            let channels = if ctx.depthwise {
                wt_m * ctx.m_rows..layer.c.min((wt_m + 1) * ctx.m_rows)
            } else {
                wt_c * ctx.c_cols..wt_c * ctx.c_cols + ctx.c_live(wt_c)
            };
            classes.clear();
            for n in 0..layer.n {
                for p in 0..ctx.p_total {
                    let taps = &ctx.h_table[p * layer.r..(p + 1) * layer.r];
                    let key = (
                        taps.iter().position(Option::is_some),
                        taps.iter().rposition(Option::is_some),
                    );
                    let last_h = taps.iter().rev().flatten().next();
                    let top = last_h
                        .zip(last_w)
                        .map(|(&h, &w)| ctx.iact_plan.location([n, channels.end - 1, h, w]).line);
                    let walk = |iact: &mut AccessLedger, _| {
                        Ok(walk_iact_row(ctx, iact, &channels, taps, n))
                    };
                    #[cfg(test)]
                    let walked = classes.len();
                    let block = account_block(&mut classes, (key, top), iact, "read", walk)?;
                    #[cfg(test)]
                    tests::tally_repeat(
                        classes.len() == walked,
                        usize::from(key != (Some(0), Some(layer.r - 1))),
                    );
                    row.merge(&block.stats);
                }
            }
        }
    }
    let (iact_stats, macs) = if ctx.depthwise {
        (row, row.element_reads)
    } else {
        let macs = row.element_reads * layer.m as u64;
        (std::iter::repeat(row).take(ctx.m_tiles).sum(), macs)
    };

    // ---- Phase 2: row fires through BIRRD (RIR) ----
    // BIRRD passes, adder activations and serialization cycles; per walked
    // tile, each offset class of rows with its first block.
    let scratch = &mut FireScratch {
        c_ok: vec![false; ctx.cols],
        bank_used: vec![false; ctx.cols],
        groups: Vec::new(),
        batch: Vec::new(),
        pending: Vec::new(),
        request: ReductionRequest {
            input_groups: vec![None; ctx.cols],
            group_destinations: BTreeMap::new(),
        },
    };
    let (mut counts, mut oact_stats, mut classes) = ([0u64; 3], AccessStats::new(), Vec::new());
    for wt_m in 0..ctx.m_tiles {
        let last_m = layer.m.min((wt_m + 1) * ctx.m_rows) - 1;
        let mut first = ([0; 3], AccessStats::new());
        for wt_c in 0..ctx.c_tiles {
            let c_live = ctx.c_live(wt_c);
            let walked = if wt_c > 0 && c_live == ctx.c_live(0) {
                first
            } else {
                ctx.mark_live_lanes(wt_c, &mut scratch.c_ok);
                let mut tile = ([0; 3], AccessStats::new());
                classes.clear();
                for n in 0..layer.n {
                    for p in 0..ctx.p_total {
                        let offset =
                            ctx.oact_plan.summand(0, n).offset + ctx.oact_plan.summand(2, p).offset;
                        let last = [n, last_m, p, ctx.q_total - 1];
                        let class = (offset, Some(ctx.oact_plan.location(last).line));
                        let walk = |oact: &mut AccessLedger, repeat: bool| {
                            let routes = memo.entries.len();
                            let block =
                                walk_fire_row(ctx, oact, memo, scratch, c_live, [wt_m, n, p])?;
                            let new_routes = memo.entries.len() - routes;
                            debug_assert!(!repeat || new_routes == 0, "a repeated block routed");
                            Ok(block)
                        };
                        #[cfg(test)]
                        let walked = classes.len();
                        let block = account_block(&mut classes, class, oact, "write", walk)?;
                        #[cfg(test)]
                        tests::tally_repeat(classes.len() == walked, 2);
                        tile.0
                            .iter_mut()
                            .zip(block.counts)
                            .for_each(|(t, k)| *t += k);
                        tile.1.merge(&block.stats);
                    }
                }
                tile
            };
            first = if wt_c == 0 { walked } else { first };
            counts.iter_mut().zip(walked.0).for_each(|(t, k)| *t += k);
            oact_stats.merge(&walked.1);
        }
    }
    let [birrd_passes, birrd_adds, extra_cycles] = counts;
    let fires = (layer.n * ctx.p_total * ctx.q_tiles * ctx.m_rows) as u64;
    let span = SpanAccum {
        tile_fires: vec![fires; ctx.m_tiles * ctx.c_tiles],
        extra_cycles,
        birrd_passes,
        birrd_adds,
        macs,
    };
    let core = span.into_core_run(ctx, expose_first_weight_load);
    Ok((core, iact_stats, oact_stats))
}

// ---------------------------------------------------------------------------
// Replay: pure data movement
//
// Everything the accounted loop accounts for — cycles, fires, BIRRD passes
// and adds, buffer statistics, conflict stalls — is independent of the data,
// so the compiler's record pass (`count_conv_core`) counts it once and a
// replayed `Fire` only moves values: plain StaB cells, one accumulator per
// mapped row and live `q_lane`, output cells.
// ---------------------------------------------------------------------------

/// Samples a batched replay moves in lockstep: eight `i16` operands fill
/// one 128-bit SSE2 register, the x86-64 baseline. [`replay_fire`] is
/// instantiated for one lane (the scalar replay) and for this many.
pub(crate) const LANES: usize = 8;

/// A layout precompiled over a fixed 4-dimension coordinate order down to
/// flat *cell* indices (`line · line_size + offset`) of a plain StaB half:
/// the index is separable like [`LocationPlan4`] — the sum of one table
/// entry per dimension. Lane `l` of cell `i` lives at `i · lanes + l`.
#[derive(Debug, Clone)]
pub(crate) struct FlatPlan4 {
    tables: [Vec<u32>; 4],
    cells: usize,
}

impl FlatPlan4 {
    /// Flattens `plan` (built over `extents`) for a half of `cells` cells in
    /// lines of `line_size`.
    ///
    /// # Errors
    /// Fails if a cell index does not fit `u32` or some coordinate would fall
    /// outside the half — so every cell [`FlatPlan4::for_each_cell`] yields
    /// is in range.
    fn new(
        plan: &LocationPlan4,
        extents: [usize; 4],
        line_size: usize,
        cells: usize,
    ) -> Result<Self, ArchError> {
        let too_big = || ArchError::InvalidWorkload("layer exceeds the u32 cell index".to_string());
        let mut tables: [Vec<u32>; 4] = Default::default();
        let mut farthest = 0usize;
        for (dim, table) in tables.iter_mut().enumerate() {
            table.reserve_exact(extents[dim].max(1));
            for v in 0..extents[dim].max(1) {
                let mut coord = [0; 4];
                coord[dim] = v;
                let loc = plan.location(coord);
                let cell = loc
                    .line
                    .checked_mul(line_size)
                    .and_then(|c| c.checked_add(loc.offset))
                    .ok_or_else(too_big)?;
                table.push(u32::try_from(cell).map_err(|_| too_big())?);
            }
            let reach = table.iter().copied().max().unwrap_or(0) as usize;
            farthest = farthest.checked_add(reach).ok_or_else(too_big)?;
        }
        if farthest >= cells {
            return Err(ArchError::InvalidWorkload(
                "layout addresses cells outside its buffer".to_string(),
            ));
        }
        Ok(FlatPlan4 { tables, cells })
    }

    /// Cells of the half this plan addresses.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Visits every coordinate of the plan's extents in row-major order as
    /// `(row-major index, cell index)`, addressing each coordinate once:
    /// the partial sum of the outer three tables is carried, not looked up
    /// again per element.
    #[inline]
    pub(crate) fn for_each_cell(&self, mut f: impl FnMut(usize, usize)) {
        let [t0, t1, t2, t3] = &self.tables;
        let mut flat = 0;
        for &c0 in t0 {
            for &c1 in t1 {
                for &c2 in t2 {
                    let row = c0 + c1 + c2;
                    for &c3 in t3 {
                        f(flat, (row + c3) as usize);
                        flat += 1;
                    }
                }
            }
        }
    }
}

/// The kernel taps of one output row (or column) that read real input: taps
/// `lo..hi` read the input coordinates `first, first + 1, …` in step. A
/// tap's raw coordinate `o · stride + k` grows by one with `k` and the real
/// input is the interval `padding..padding + extent`, so the valid taps are
/// always one run — empty where every tap falls in the padding halo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapRun {
    lo: usize,
    hi: usize,
    first: usize,
}

/// The tap run of every output coordinate `0..outputs` along one axis.
fn tap_runs(
    outputs: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    extent: usize,
) -> Vec<TapRun> {
    (0..outputs)
        .map(|o| {
            let raw = o * stride;
            let lo = padding.saturating_sub(raw).min(kernel);
            let hi = (padding + extent).saturating_sub(raw).clamp(lo, kernel);
            // An empty run reads nothing; keep its origin inside the tables.
            let first = if lo < hi { raw + lo - padding } else { 0 };
            TapRun { lo, hi, first }
        })
        .collect()
}

/// Everything a replayed `Fire` of one layer needs besides the data, lowered
/// when the program is compiled: the tile-loop context, both halves' flat
/// addressing and the valid kernel taps of every output row and column.
#[derive(Debug, Clone)]
pub(crate) struct ReplayLayer {
    pub(crate) tiling: Tiling,
    pub(crate) iact: FlatPlan4,
    pub(crate) oact: FlatPlan4,
    /// `h_taps[p]`: the kernel rows of output row `p` that read real input —
    /// the `Some` entries of [`LayerExec`]'s `h_table[p · R..]`, as a range.
    h_taps: Vec<TapRun>,
    /// `w_taps[q]`: likewise the kernel columns of output column `q`.
    w_taps: Vec<TapRun>,
}

impl ReplayLayer {
    /// Lowers a layer context to what replay reads, keeping the context's
    /// tiling only. `iact_cells` / `oact_cells` are the capacities of the
    /// halves under the layer's buffer specs.
    pub(crate) fn new(
        exec: LayerExec,
        iact_cells: usize,
        oact_cells: usize,
    ) -> Result<Self, ArchError> {
        let l = &exec.layer;
        let iact = FlatPlan4::new(
            &exec.iact_plan,
            [l.n, l.c, l.h, l.w],
            exec.mapping.iact_layout.line_size(),
            iact_cells,
        )?;
        let oact = FlatPlan4::new(
            &exec.oact_plan,
            [l.n, l.m, exec.p_total, exec.q_total],
            exec.mapping.oact_layout.line_size(),
            oact_cells,
        )?;
        let h_taps = tap_runs(exec.p_total, l.r, l.stride, l.padding, l.h);
        let w_taps = tap_runs(exec.q_total, l.s, l.stride, l.padding, l.w);
        Ok(ReplayLayer {
            iact,
            oact,
            h_taps,
            w_taps,
            tiling: exec.tiling,
        })
    }

    /// Cells of the operand gather row [`replay_fire`] needs (per lane): one
    /// tap's bus operands, or one PE's kernel window.
    pub(crate) fn operand_cells(&self) -> usize {
        self.tiling.cols.max(self.tiling.rs)
    }
}

/// Replays one layer's `Fire` as pure data movement across `L` samples, one
/// per lane of every cell: `L` is 1 (the scalar replay) or [`LANES`], and
/// both are this one source, specialised. Per `(p, qt)` pixel group of a
/// weight tile:
///
/// * **Phase 1, local temporal reduction** — every mapped PE row keeps one
///   accumulator stripe per live `q_lane` and reduces that lane's channels
///   and kernel taps into it, in wrapping `i32`, against weights read in
///   place. Operands are gathered once per group out of the `iact` half
///   (unaccounted reads, INT8 cells widened once to `i16`) and shared by all
///   mapped rows, and every kernel sums a stripe in a register-local
///   `[i32; L]`. Only the taps of the layer's [`TapRun`]s are visited, so
///   padding costs nothing. The loop order is the layer's
///   ([`reduce_bus_major`] or [`reduce_window_major`], whichever has the
///   longer contiguous innermost run; [`reduce_depthwise`] for depthwise
///   layers).
/// * **Phase 2, row fires** — each accumulator drains into its output cell
///   `out_n[n] + out_m[m] + out_p[p] + out_q[q]` in place and is zeroed.
///   That is what the row's BIRRD passes deliver: every folded group of the
///   program's route table sums exactly its `q_lane`'s live columns into
///   that lane's own cell ([`RouteTable::push`] refuses anything else), and
///   wrapping addition is associative and commutative, so summing the
///   columns first changes no bit.
///
/// `acc` is `m_rows · q_cols · L` zeroed accumulators or more, left zeroed;
/// `operands` is [`ReplayLayer::operand_cells`]` · L` gather cells whose
/// contents are never read before they are written. `oact` must be zeroed
/// over the layer's cells by the caller, and `weights` must already have
/// passed [`check_weight_shape`](crate::accelerator::check_weight_shape).
pub(crate) fn replay_fire<const L: usize>(
    layer: &ReplayLayer,
    weights: &[i8],
    iact: &[i32],
    oact: &mut [i32],
    acc: &mut [i32],
    operands: &mut [i16],
) {
    let ctx = &layer.tiling;
    let l = &ctx.layer;
    let row_len = ctx.q_cols * L;
    let [in_n, in_c, in_h, in_w] = &layer.iact.tables;
    let [out_n, out_m, out_p, out_q] = &layer.oact.tables;
    // Which way Phase 1 walks a tile: so that its innermost loop runs over
    // the longer of the two contiguous extents, a lane's channels (one
    // kernel tap at a time across the whole bus) or a PE's kernel window.
    let bus_major = ctx.c_cols >= ctx.rs;

    for wt_m in 0..ctx.m_tiles {
        let m_base = wt_m * ctx.m_rows;
        let m_lanes = ctx.m_rows.min(l.m - m_base);
        for wt_c in 0..ctx.c_tiles {
            let c_base = wt_c * ctx.c_cols;
            // The input channels of the tile: one per mapped row when
            // depthwise (`M == C`), one per live column of a lane otherwise.
            let in_c = if ctx.depthwise {
                &in_c[m_base..][..m_lanes]
            } else {
                &in_c[c_base..][..ctx.c_live(wt_c)]
            };
            for n in 0..l.n {
                for (&out_row, rows) in out_p.iter().zip(&layer.h_taps) {
                    for qt in 0..ctx.q_tiles {
                        let q_base = qt * ctx.q_cols;
                        let q_live = ctx.q_cols.min(ctx.q_total - q_base);
                        let group = PixelGroup {
                            weights,
                            iact,
                            sample: in_n[n],
                            in_c,
                            in_rows: &in_h[rows.first..][..rows.hi - rows.lo],
                            in_w,
                            r_lo: rows.lo,
                            w_taps: &layer.w_taps[q_base..][..q_live],
                            m_base,
                            m_lanes,
                            c_base,
                            row_len,
                        };

                        // ---- Phase 1: local temporal reduction ----
                        if ctx.depthwise {
                            reduce_depthwise::<L>(ctx, &group, acc);
                        } else if bus_major {
                            reduce_bus_major::<L>(ctx, &group, acc, operands);
                        } else {
                            reduce_window_major::<L>(ctx, &group, acc, operands);
                        }

                        // ---- Phase 2: row fires, each lane into its cell ----
                        // In-situ accumulation across channel tiles, wrapping
                        // like the i64 BIRRD sum it folds once truncated to
                        // the cell; every accumulator drains as it is added,
                        // so the rows are left zeroed.
                        let out_q = &out_q[q_base..][..q_live];
                        for m_lane in 0..m_lanes {
                            let out_cell = out_n[n] + out_m[m_base + m_lane] + out_row;
                            let row = &mut acc[m_lane * row_len..][..q_live * L];
                            for (stripe, &out_q) in row.chunks_exact_mut(L).zip(out_q) {
                                let cell = (out_cell + out_q) as usize * L;
                                for (out, a) in oact[cell..][..L].iter_mut().zip(stripe) {
                                    *out = out.wrapping_add(std::mem::take(a));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    debug_assert!(acc.iter().all(|&a| a == 0), "accumulators left dirty");
}

/// What Phase 1 reads for one `(p, qt)` pixel group of one weight tile.
struct PixelGroup<'a> {
    weights: &'a [i8],
    iact: &'a [i32],
    /// Cell offset of the sample …
    sample: u32,
    /// … of each input channel of the tile (depthwise: one per mapped row;
    /// otherwise one per live column of a lane) …
    in_c: &'a [u32],
    /// … of each valid kernel row's input row, from kernel row `r_lo` up …
    in_rows: &'a [u32],
    /// … and of every input column.
    in_w: &'a [u32],
    r_lo: usize,
    /// The valid column taps of each live `q_lane`.
    w_taps: &'a [TapRun],
    m_base: usize,
    m_lanes: usize,
    c_base: usize,
    /// Accumulator cells per mapped row: `q_cols` stripes.
    row_len: usize,
}

/// `sum += x · w`, lane by lane.
#[inline(always)]
fn mac<const L: usize>(sum: &mut [i32; L], x: &[i16], w: i8) {
    let w = i32::from(w);
    for (s, &x) in sum.iter_mut().zip(&x[..L]) {
        *s = s.wrapping_add(i32::from(x) * w);
    }
}

/// `Σ_k x_k · w_k` lane by lane, over the operand stripes `x_k` of a gather
/// row and their weights `w`. The one-lane instantiation is a plain dot
/// product, which LLVM vectorizes across `k`; wider ones take two taps per
/// step, which leaves the stripe as the vector — a plain loop would be
/// vectorized across `k` there too, into per-lane gathers.
#[inline(always)]
fn dot<const L: usize>(x: &[i16], w: &[i8]) -> [i32; L] {
    let mut sum = [0i32; L];
    if L == 1 {
        for (&x, &w) in x.iter().zip(w) {
            sum[0] = sum[0].wrapping_add(i32::from(x) * i32::from(w));
        }
        return sum;
    }
    for (x, w) in x.chunks_exact(2 * L).zip(w.chunks_exact(2)) {
        mac(&mut sum, x, w[0]);
        mac(&mut sum, &x[L..], w[1]);
    }
    if w.len() % 2 == 1 {
        let last = w.len() - 1;
        mac(&mut sum, &x[last * L..], w[last]);
    }
    sum
}

/// Adds a register-local stripe into its accumulator stripe.
#[inline(always)]
fn add_stripe<const L: usize>(acc: &mut [i32], sum: [i32; L]) {
    for (a, s) in acc[..L].iter_mut().zip(sum) {
        *a = a.wrapping_add(s);
    }
}

/// Depthwise Phase 1: each mapped row reads its own input channel (one
/// column per `q_lane`) and sums each `q_lane`'s kernel window, read in
/// place.
#[inline(always)]
fn reduce_depthwise<const L: usize>(ctx: &Tiling, g: &PixelGroup<'_>, acc: &mut [i32]) {
    let s_total = ctx.layer.s;
    for (m_lane, &chan) in g.in_c.iter().enumerate() {
        let filter = &g.weights[(g.m_base + m_lane) * ctx.rs..][..ctx.rs];
        let acc_row = &mut acc[m_lane * g.row_len..][..g.w_taps.len() * L];
        for (a, taps) in acc_row.chunks_exact_mut(L).zip(g.w_taps) {
            let mut sum = [0i32; L];
            for (r, &row) in (g.r_lo..).zip(g.in_rows) {
                let in_cols = &g.in_w[taps.first..][..taps.hi - taps.lo];
                for (&w, &col) in filter[r * s_total + taps.lo..].iter().zip(in_cols) {
                    let cells = &g.iact[(g.sample + chan + row + col) as usize * L..][..L];
                    let w = i32::from(w);
                    for (s, &x) in sum.iter_mut().zip(cells) {
                        *s = s.wrapping_add(i32::from(x as i8) * w);
                    }
                }
            }
            add_stripe(a, sum);
        }
    }
}

/// Phase 1, one kernel tap at a time across the whole bus — for layers whose
/// lanes hold at least as many channels as the kernel has taps. The tap's bus
/// operands are gathered once for the lanes whose tap reads input, then
/// every mapped row reduces each such lane's channels against its filter
/// column `W[m][c_base..][r][s]`:
/// `acc[m][q] += Σ_c x[q][c] · W[m][c_base + c][r][s]`.
#[inline(always)]
fn reduce_bus_major<const L: usize>(
    ctx: &Tiling,
    g: &PixelGroup<'_>,
    acc: &mut [i32],
    operands: &mut [i16],
) {
    let (l, rs) = (&ctx.layer, ctx.rs);
    let c_live = g.in_c.len();
    let lane_len = c_live * L;
    let reads = |taps: &TapRun, s: usize| (taps.lo..taps.hi).contains(&s);
    for (r, &row) in (g.r_lo..).zip(g.in_rows) {
        for s in 0..l.s {
            let mut live_lanes = 0;
            for (x, taps) in operands.chunks_exact_mut(lane_len).zip(g.w_taps) {
                if !reads(taps, s) {
                    continue;
                }
                live_lanes += 1;
                let pixel = g.sample + row + g.in_w[taps.first + (s - taps.lo)];
                for (x, &chan) in x.chunks_exact_mut(L).zip(g.in_c) {
                    load_stripe(x, &g.iact[(pixel + chan) as usize * L..]);
                }
            }
            if live_lanes == 0 {
                continue;
            }
            for m_lane in 0..g.m_lanes {
                let tap = ((g.m_base + m_lane) * l.c + g.c_base) * rs + r * l.s + s;
                let w_col = &g.weights[tap..][..(c_live - 1) * rs + 1];
                let acc_row = &mut acc[m_lane * g.row_len..][..g.w_taps.len() * L];
                let lanes = acc_row
                    .chunks_exact_mut(L)
                    .zip(operands.chunks_exact(lane_len));
                for ((a, x), taps) in lanes.zip(g.w_taps) {
                    if !reads(taps, s) {
                        continue;
                    }
                    let mut sum = [0i32; L];
                    for (x, &w) in x.chunks_exact(L).zip(w_col.iter().step_by(rs)) {
                        mac(&mut sum, x, w);
                    }
                    add_stripe(a, sum);
                }
            }
        }
    }
}

/// Phase 1, one PE column at a time — for layers whose kernel has more taps
/// than a lane has channels. The column's kernel window is gathered once
/// (the valid rows, whole; zeros at the column taps that are padding), then
/// every mapped row reduces it in one dot product against its own filter
/// rows `W[m][c][r_lo..r_hi]`, contiguous where they lie.
#[inline(always)]
fn reduce_window_major<const L: usize>(
    ctx: &Tiling,
    g: &PixelGroup<'_>,
    acc: &mut [i32],
    operands: &mut [i16],
) {
    let (l, rs) = (&ctx.layer, ctx.rs);
    let window = g.in_rows.len() * l.s;
    if window == 0 {
        return;
    }
    let x = &mut operands[..window * L];
    for (q_lane, taps) in g.w_taps.iter().enumerate() {
        let in_cols = &g.in_w[taps.first..][..taps.hi - taps.lo];
        if in_cols.is_empty() {
            continue;
        }
        if in_cols.len() < l.s {
            x.fill(0);
        }
        for (c_lane, &chan) in g.in_c.iter().enumerate() {
            for (i, &row) in g.in_rows.iter().enumerate() {
                let x = &mut x[(i * l.s + taps.lo) * L..][..in_cols.len() * L];
                for (x, &col) in x.chunks_exact_mut(L).zip(in_cols) {
                    load_stripe(x, &g.iact[(g.sample + chan + row + col) as usize * L..]);
                }
            }
            for m_lane in 0..g.m_lanes {
                let filter = (g.m_base + m_lane) * l.c + g.c_base + c_lane;
                let w = &g.weights[filter * rs + g.r_lo * l.s..][..window];
                let sum = dot::<L>(x, w);
                add_stripe(&mut acc[m_lane * g.row_len + q_lane * L..], sum);
            }
        }
    }
}

/// Widens one lane stripe of INT8 iAct values (held in `i32` StaB cells)
/// into the operand gather row.
#[inline(always)]
fn load_stripe(x: &mut [i16], cells: &[i32]) {
    for (x, &cell) in x.iter_mut().zip(cells) {
        *x = i16::from(cell as i8);
    }
}

/// The accounted tile loop: real values through a simulated NEST array and
/// BIRRD bus while every cycle, access and conflict is counted. Test code
/// only — the cycle-level oracle the counting walk, replay and the public
/// entry points are checked against.
#[cfg(test)]
pub(crate) mod accounted {
    use feather_arch::tensor::Tensor4;
    use feather_memsim::BufferSpec;
    use feather_nest::NestArray;

    use super::*;
    use crate::session::{iact_spec, oact_spec};

    /// One StaB half of the oracle: the ledger that counts its accesses and,
    /// beside it, the values it holds — a physical image indexed
    /// `line · line_size + offset`, so a value lands at (and is read from)
    /// the address its layout gives it.
    struct Half {
        ledger: AccessLedger,
        cells: Vec<i32>,
    }

    impl Half {
        fn new(spec: BufferSpec) -> Self {
            Half {
                ledger: AccessLedger::new(spec),
                cells: vec![0; spec.capacity()],
            }
        }

        fn cell(&self, loc: Location) -> usize {
            let line_size = self.ledger.spec().line_size;
            assert!(
                loc.offset < line_size,
                "{loc:?} is past a line of {line_size}"
            );
            loc.line * line_size + loc.offset
        }

        fn read(&mut self, loc: Location) -> i32 {
            self.ledger.read(loc.line, loc.offset);
            self.cells[self.cell(loc)]
        }

        fn write(&mut self, loc: Location, value: i32) {
            self.ledger.write(loc.line, loc.offset);
            let cell = self.cell(loc);
            self.cells[cell] = value;
        }
    }

    /// One layer through the accounted loop on fresh StaB halves, as the
    /// first (`expose`) or a pipelined layer of a chain: `iacts` staged in the
    /// iAct layout (the DMA is not counted), weight-stationary tiling over
    /// `(M, C)`, Phase-1 local temporal reduction in NEST, Phase-2 row fires
    /// through BIRRD with Reorder-in-Reduction into the oAct layout, and the
    /// accumulators drained. Routes resolve through `memo`, whose table
    /// records them. Returns the outputs, the counters and both halves'
    /// access statistics.
    pub(crate) fn run_layer(
        ctx: &LayerExec,
        iacts: &Tensor4<i8>,
        weights: &Tensor4<i8>,
        memo: &mut RouteMemo,
        expose: bool,
    ) -> Result<(Tensor4<i32>, CoreRun, AccessStats, AccessStats), ArchError> {
        let (layer, mapping) = (&ctx.layer, &ctx.mapping);
        let mut iact = Half::new(iact_spec(layer, mapping));
        let mut oact = Half::new(oact_spec(layer, mapping));
        iacts.for_each(|coord, v| {
            let cell = iact.cell(ctx.iact_plan.location(coord));
            iact.cells[cell] = v as i32;
        });
        let span = run_span(ctx, weights, &mut iact, &mut oact, memo)?;
        let core = span.into_core_run(ctx, expose);
        let shape = [layer.n, layer.m, ctx.p_total, ctx.q_total];
        let oacts = Tensor4::from_fn(shape, |n, m, p, q| {
            oact.cells[oact.cell(ctx.oact_plan.location([n, m, p, q]))]
        });
        Ok((oacts, core, *iact.ledger.stats(), *oact.ledger.stats()))
    }

    /// Simulates one layer: the `(wt_m, wt_c, n, p, qt)` nest [`replay_fire`]
    /// also walks. It allocates nothing per tile and copies no weights — a
    /// tile switch is a mask-row refresh — and a request is only filled on
    /// `memo`'s first sight of a route.
    fn run_span(
        ctx: &LayerExec,
        weights: &Tensor4<i8>,
        iact: &mut Half,
        oact: &mut Half,
        memo: &mut RouteMemo,
    ) -> Result<SpanAccum, ArchError> {
        let (layer, cols) = (&ctx.layer, ctx.cols);
        let mut nest = NestArray::new(ctx.rows, cols);
        // The columns the firing row drains onto.
        let bus = &mut vec![0; cols];
        // `c_ok[col]`: under the current weight tile, column `col`'s
        // reduction lane holds an in-range input channel. With the row's
        // `m < M` bit this is the whole lane-mapping mask: the third factor,
        // `q < Q`, is the guard under which a reduction group exists at all,
        // and the mask is only ever consulted inside a group's column span.
        let (c_ok, bank_used) = (&mut vec![false; cols], &mut vec![false; cols]);
        let (groups, batch, pending) = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        let (inputs, present) = (&mut vec![0; cols], &mut vec![false; cols]);
        let (outputs, out_present) = (&mut vec![0; cols], &mut vec![false; cols]);
        let request = &mut ReductionRequest {
            input_groups: vec![None; cols],
            group_destinations: BTreeMap::new(),
        };
        let ws = weights.as_slice();
        let mut accum = SpanAccum {
            tile_fires: vec![0; ctx.m_tiles * ctx.c_tiles],
            extra_cycles: 0,
            birrd_passes: 0,
            birrd_adds: 0,
            macs: 0,
        };

        for wt_m in 0..ctx.m_tiles {
            for wt_c in 0..ctx.c_tiles {
                ctx.mark_live_lanes(wt_c, c_ok);
                let c_live = ctx.c_live(wt_c);
                let tile = wt_m * ctx.c_tiles + wt_c;

                for n in 0..layer.n {
                    for p in 0..ctx.p_total {
                        for qt in 0..ctx.q_tiles {
                            // ---- Phase 1: local temporal reduction ----
                            for rs_step in 0..ctx.rs {
                                let r_i = rs_step / layer.s;
                                let s_i = rs_step % layer.s;
                                let h = ctx.h_table[p * layer.r + r_i];
                                iact.ledger.begin_cycle();
                                if let Some(h) = h {
                                    phase1_step(
                                        ctx, &mut nest, iact, ws, wt_m, wt_c, n, h, s_i, qt,
                                        rs_step,
                                    );
                                }
                                iact.ledger.flush_cycle();
                            }

                            // ---- Phase 2: row fires through BIRRD (RIR) ----
                            for m_lane in 0..ctx.m_rows {
                                let m = wt_m * ctx.m_rows + m_lane;
                                nest.fire_row_stripe(m_lane, c_ok, bus);
                                accum.tile_fires[tile] += 1;
                                if m >= layer.m {
                                    continue;
                                }

                                ctx.fire_groups([n, m, p, qt], groups);
                                while !groups.is_empty() {
                                    next_batch(groups, batch, pending, bank_used);
                                    let route = memo.resolve(ctx, c_live, c_ok, batch, request)?;

                                    present.fill(false);
                                    for g in batch.iter() {
                                        let lane = g.q_lane * ctx.c_cols;
                                        for col in lane..lane + ctx.c_cols {
                                            if c_ok[col] {
                                                inputs[col] = bus[col] as i64;
                                                present[col] = true;
                                            }
                                        }
                                    }
                                    route
                                        .run_batched(inputs, present, 1, outputs, out_present)
                                        .expect("compiled route matches the network width");
                                    accum.birrd_passes += 1;
                                    accum.birrd_adds += route.adder_activations() as u64;

                                    oact.ledger.begin_cycle();
                                    for g in batch.iter() {
                                        let value = outputs[g.bank] as i32;
                                        // In-situ accumulation in the output
                                        // buffer across channel tiles.
                                        let prev = oact.cells[oact.cell(g.loc)];
                                        oact.write(g.loc, prev + value);
                                    }
                                    oact.ledger.flush_cycle();
                                    if !groups.is_empty() {
                                        // An extra BIRRD pass serializes the fire.
                                        accum.extra_cycles += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        accum.macs = nest.total_macs();
        Ok(accum)
    }

    /// One Phase-1 `rs_step` of a `(n, p, qt)` pixel group: feed every mapped PE
    /// its iAct and advance the local temporal reduction against the stationary
    /// weight, read in place from the filter tensor's flat storage `ws`. The
    /// input row `h` is already validated against the padding halo.
    #[allow(clippy::too_many_arguments)]
    fn phase1_step(
        ctx: &LayerExec,
        nest: &mut NestArray,
        iact: &mut Half,
        ws: &[i8],
        wt_m: usize,
        wt_c: usize,
        n: usize,
        h: usize,
        s_i: usize,
        qt: usize,
        rs_step: usize,
    ) {
        let layer = &ctx.layer;
        let m_base = wt_m * ctx.m_rows;
        if m_base >= layer.m {
            return;
        }
        let m_lanes = ctx.m_rows.min(layer.m - m_base);
        for q_lane in 0..ctx.q_cols {
            let q = qt * ctx.q_cols + q_lane;
            if q >= ctx.q_total {
                continue;
            }
            let Some(w) = ctx.w_table[q * layer.s + s_i] else {
                continue;
            };
            for c_lane in 0..ctx.c_cols {
                let col = q_lane * ctx.c_cols + c_lane;
                if ctx.depthwise {
                    // Each output channel reads its own input channel.
                    for m_lane in 0..m_lanes {
                        let c = m_base + m_lane;
                        if c >= layer.c {
                            continue;
                        }
                        let value = iact.read(ctx.iact_plan.location([n, c, h, w]));
                        let lane_vals = &[value as i8];
                        nest.mac_operand(m_lane, col, lane_vals, ws[c * ctx.rs + rs_step]);
                    }
                } else {
                    // The same iAct is shared by every row: one accounted read,
                    // broadcast to all mapped rows.
                    let c = wt_c * ctx.c_cols + c_lane;
                    if c >= layer.c {
                        continue;
                    }
                    let value = iact.read(ctx.iact_plan.location([n, c, h, w]));
                    let lane_vals = &[value as i8];
                    for m_lane in 0..m_lanes {
                        let filter = (m_base + m_lane) * layer.c + c;
                        nest.mac_operand(m_lane, col, lane_vals, ws[filter * ctx.rs + rs_step]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::layer_summary;
    use crate::Feather;
    use feather_arch::energy::EnergyModel;
    use feather_arch::tensor::{conv2d_reference, Tensor4};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The memo keys a batch by its layer's `c_cols` too: the same `c_live`
    /// and `(q_lane, bank)` pairs under `c_cols = 2` and `c_cols = 4` span
    /// different bus columns, so one program memo must resolve them to two
    /// requests in two slots.
    #[test]
    fn one_memo_tells_c_cols_apart() {
        let config = FeatherConfig::new(4, 8);
        let layer = ConvLayer::new(1, 4, 6, 4, 4, 1, 1);
        let mut memo = RouteMemo::default();
        let mut slots = Vec::new();
        // Channel tile 0 of `c_cols = 2` and tile 1 of `c_cols = 4` both
        // have two live columns per lane.
        for (c_cols, wt_c) in [(2, 0), (4, 1)] {
            let mut mapping =
                LayerMapping::weight_stationary(&layer, &config, "HWC_C4", "MPQ_Q4").unwrap();
            (mapping.c_cols, mapping.q_cols) = (c_cols, config.cols / c_cols);
            let ctx = LayerExec::new(&config, &layer, &mapping).unwrap();
            let c_ok = &mut vec![false; config.cols];
            ctx.mark_live_lanes(wt_c, c_ok);
            assert_eq!(ctx.c_live(wt_c), 2);
            let loc = Location { line: 0, offset: 0 };
            let batch = [FireGroup {
                q_lane: 1,
                bank: 0,
                loc,
            }];
            let request = &mut ReductionRequest {
                input_groups: vec![None; config.cols],
                group_destinations: BTreeMap::new(),
            };
            memo.resolve(&ctx, 2, c_ok, &batch, request).unwrap();
            slots.push(memo.selected_slot());
        }
        assert_eq!(slots, [0, 1]);
        let requests = memo.table.requests();
        assert_eq!((requests[0].0, requests[1].0), (2, 4));
        assert_ne!(requests[0].1, requests[1].1);
        assert_eq!(memo.entries.len(), 2);
    }

    /// The controller never issues a group whose folded columns skip a
    /// port; one is refused where it is folded, and a contiguous group folds
    /// to its run.
    #[test]
    fn push_folds_a_group_to_one_run_or_refuses_it() {
        let birrd = Birrd::new(4).unwrap();
        let fold = |members: Vec<usize>| {
            let request = ReductionRequest::from_groups(4, &[(members, 1)]).unwrap();
            let route = route_and_compile(&birrd, &request).unwrap();
            let mut table = RouteTable::default();
            let slot = table.push(2, request, &route)?;
            Ok::<_, ArchError>(table.pass_groups(slot as usize).collect::<Vec<_>>())
        };
        assert_eq!(fold(vec![2, 3]).unwrap(), [(1, 2..4)]);
        let err = fold(vec![0, 2]).unwrap_err();
        assert!(err
            .to_string()
            .contains("route table: folded columns are not one run"));
    }

    /// Replay sums each lane's live columns into that lane's own output
    /// cell, so a pass whose runs are contiguous but deliver another group's
    /// columns to a bank must be refused where it is folded: groups {0,1} →
    /// bank 0 and {2,3} → bank 1, under a configuration that routes them the
    /// other way round.
    #[test]
    fn push_refuses_a_run_that_is_not_its_groups_own_ports() {
        let birrd = Birrd::new(4).unwrap();
        let groups = |banks: [usize; 2]| {
            ReductionRequest::from_groups(4, &[(vec![0, 1], banks[0]), (vec![2, 3], banks[1])])
                .unwrap()
        };
        let swapped = route_and_compile(&birrd, &groups([1, 0])).unwrap();
        assert_eq!(swapped.sources_of(0), [2, 3]);
        let err = RouteTable::default()
            .push(2, groups([0, 1]), &swapped)
            .unwrap_err();
        assert!(matches!(err, ArchError::InvalidDataflow(_)), "{err}");
        assert!(err.to_string().contains("not its own live ports"), "{err}");
        // The configuration routed for the request itself folds.
        let mut table = RouteTable::default();
        let route = route_and_compile(&birrd, &groups([0, 1])).unwrap();
        let slot = table.push(2, groups([0, 1]), &route).unwrap();
        let folded: Vec<_> = table.pass_groups(slot as usize).collect();
        assert_eq!(folded, [(0, 0..2), (1, 2..4)]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The accounted loop's `Option` tables are the oracle: per output
        /// row and column, a tap run enumerates exactly their `Some`
        /// entries, in order — also where a stride skips past the kernel or
        /// every tap of an output falls in the padding halo.
        #[test]
        fn tap_runs_enumerate_the_some_entries_of_the_option_tables(
            hw in proptest::collection::vec(1usize..=9, 2),
            kernel in proptest::collection::vec(1usize..=5, 2),
            stride in 1usize..=4,
            padding in 0usize..=6,
        ) {
            let layer = ConvLayer::new(1, 2, 2, hw[0], hw[1], kernel[0], kernel[1])
                .with_stride(stride)
                .with_padding(padding);
            prop_assume!(layer.validate().is_ok());
            let config = FeatherConfig::new(4, 8);
            let mapping =
                LayerMapping::weight_stationary(&layer, &config, "HWC_C4", "MPQ_Q4").unwrap();
            let exec = LayerExec::new(&config, &layer, &mapping).unwrap();
            let (h_table, w_table) = (exec.h_table.clone(), exec.w_table.clone());
            let replay = ReplayLayer::new(exec, 1 << 16, 1 << 16).unwrap();
            let axes = [
                (&replay.h_taps, &h_table, layer.r, layer.h),
                (&replay.w_taps, &w_table, layer.s, layer.w),
            ];
            let mut halo_only = 0;
            for (runs, table, kernel, extent) in axes {
                prop_assert_eq!(runs.len() * kernel, table.len());
                for (run, taps) in runs.iter().zip(table.chunks(kernel)) {
                    let from_run: Vec<_> = (run.lo..run.hi).zip(run.first..).collect();
                    let from_table: Vec<_> = taps
                        .iter()
                        .enumerate()
                        .filter_map(|(k, &at)| Some((k, at?)))
                        .collect();
                    prop_assert_eq!(&from_run, &from_table);
                    // Sliced even when empty.
                    prop_assert!(run.first + (run.hi - run.lo) <= extent);
                    halo_only += usize::from(run.lo == run.hi);
                }
            }
            if padding >= kernel[0].max(kernel[1]) {
                prop_assert!(halo_only > 0, "an output inside the halo has no tap");
            }
        }
    }

    /// oAct layouts from concordant (one bank per `q_lane`) to discordant
    /// (`PQM_M4`: every `q_lane` of a fire lands in the same bank).
    const OACT_LAYOUTS: [&str; 6] = [
        "MPQ_Q8", "MPQ_Q4", "PQM_M4Q2", "PMQ_Q2M4", "MQP_P2M2", "PQM_M4",
    ];

    /// `count_conv_core`'s precondition: each StaB half prices a cycle by
    /// how many distinct lines it touches, never by which — one bank for the
    /// iAct half, horizontal banks for the oAct half — so a block that
    /// repeats another on shifted lines costs what that block costs.
    #[test]
    fn stab_halves_price_a_cycle_by_its_distinct_line_count() {
        use crate::session::{iact_spec, oact_spec};
        use feather_memsim::{Banking, ConflictModel};

        let config = FeatherConfig::new(4, 8);
        let layer = ConvLayer::new(2, 6, 5, 5, 5, 3, 3).with_padding(1);
        for iact in ["HWC_C4", "HCW_W8", "CHW_W2H2C2", "HWC_C2W2"] {
            for oact in OACT_LAYOUTS {
                let mapping = LayerMapping::weight_stationary(&layer, &config, iact, oact).unwrap();
                let (ispec, ospec) = (iact_spec(&layer, &mapping), oact_spec(&layer, &mapping));
                assert_eq!(ispec.num_banks, 1, "{iact}");
                assert_eq!(ospec.banking, Banking::Horizontal, "{oact}");
                for spec in [ispec, ospec] {
                    let model = ConflictModel::new(spec);
                    for k in 0..6 {
                        let packed: Vec<usize> = (0..k).collect();
                        let spread: Vec<usize> = (0..k).map(|i| 1000 + 7 * i).collect();
                        assert_eq!(
                            model.assess_distinct_reads(&mut packed.clone()),
                            model.assess_distinct_reads(&mut spread.clone())
                        );
                        assert_eq!(
                            model.assess_distinct_writes(&mut packed.clone()),
                            model.assess_distinct_writes(&mut spread.clone())
                        );
                    }
                }
            }
        }
    }

    /// Records a 1×1 layer whose output rows each take their own lines
    /// (`HWC_C4` in, `PMQ_Q4` out), on halves with room for the first
    /// output row only of the iAct half (`short_iact`) or the oAct half: row
    /// 0 is walked and fits, and every later row repeats it past the buffer.
    fn record_on_short_half(short_iact: bool) {
        use crate::session::{iact_spec, oact_spec};

        let config = FeatherConfig::new(4, 8);
        let layer = ConvLayer::new(1, 4, 4, 4, 4, 1, 1);
        let mapping = LayerMapping::weight_stationary(&layer, &config, "HWC_C4", "PMQ_Q4").unwrap();
        let ctx = LayerExec::new(&config, &layer, &mapping).unwrap();
        let (mut ispec, mut ospec) = (iact_spec(&layer, &mapping), oact_spec(&layer, &mapping));
        let short = if short_iact { &mut ispec } else { &mut ospec };
        short.num_lines /= 4;
        let (mut iact, mut oact) = (AccessLedger::new(ispec), AccessLedger::new(ospec));
        let _ = count_conv_core(&ctx, &mut iact, &mut oact, &mut RouteMemo::default(), true);
    }

    /// A repeated iAct row is not walked in release, yet a read past the
    /// buffer still fails as the ledger's own check would.
    #[test]
    #[should_panic(expected = "read out of bounds: line 7")]
    fn a_repeated_iact_row_past_the_buffer_panics() {
        record_on_short_half(true);
    }

    /// Likewise a repeated fire row's write.
    #[test]
    #[should_panic(expected = "write out of bounds: line 7")]
    fn a_repeated_fire_row_past_the_buffer_panics() {
        record_on_short_half(false);
    }

    /// Generated cases whose fires needed more than one BIRRD pass.
    static MULTI_BATCH_CASES: AtomicU64 = AtomicU64::new(0);

    /// Resolves every pass of `layer` under `mapping` through one memo
    /// and checks each against the oracle — a request rebuilt for that pass,
    /// routed afresh and hashed into first-seen slot order. Returns
    /// `(row fires, BIRRD passes)`.
    fn check_memo_against_request_lookups(
        layer: &ConvLayer,
        mapping: &LayerMapping,
    ) -> Result<(u64, u64), TestCaseError> {
        let config = FeatherConfig::new(4, 8);
        let ctx = LayerExec::new(&config, layer, mapping).unwrap();
        let mut memo = RouteMemo::default();
        let (c_ok, bank_used) = (&mut vec![false; config.cols], &mut vec![false; config.cols]);
        let (groups, batch, pending) = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        let request = &mut ReductionRequest {
            input_groups: vec![None; config.cols],
            group_destinations: BTreeMap::new(),
        };
        let mut oracle = request.clone();
        let mut slots: HashMap<ReductionRequest, u32> = HashMap::new();
        let (mut fires, mut passes) = (0u64, 0u64);
        for tile in 0..ctx.m_tiles * ctx.c_tiles {
            let (wt_m, wt_c) = (tile / ctx.c_tiles, tile % ctx.c_tiles);
            ctx.mark_live_lanes(wt_c, c_ok);
            for fire in 0..layer.n * ctx.p_total * ctx.q_tiles * ctx.m_rows {
                let m = wt_m * ctx.m_rows + fire % ctx.m_rows;
                if m >= layer.m {
                    continue;
                }
                let pixel_group = fire / ctx.m_rows;
                let (n, p) = (
                    pixel_group / ctx.q_tiles / ctx.p_total,
                    pixel_group / ctx.q_tiles % ctx.p_total,
                );
                fires += 1;
                ctx.fire_groups([n, m, p, pixel_group % ctx.q_tiles], groups);
                while !groups.is_empty() {
                    next_batch(groups, batch, pending, bank_used);
                    passes += 1;
                    let c_live = ctx.c_live(wt_c);
                    let Ok(route) = memo.resolve(&ctx, c_live, c_ok, batch, request).cloned()
                    else {
                        // A pattern BIRRD cannot route is not this test's.
                        return Err(TestCaseError::reject("unroutable pattern"));
                    };
                    fill_request(&mut oracle, batch, c_ok, ctx.c_cols);
                    prop_assert_eq!(route, route_and_compile(&ctx.birrd, &oracle).unwrap());
                    let next_slot = slots.len() as u32;
                    let slot = *slots.entry(oracle.clone()).or_insert(next_slot);
                    prop_assert_eq!(memo.selected_slot(), slot);
                    let recorded = &memo.table.requests()[slot as usize];
                    prop_assert_eq!(recorded, &(ctx.c_cols, oracle.clone()));
                }
            }
        }
        // One memo entry (one route compiled) and one table pass per
        // distinct request — no more, no fewer.
        prop_assert_eq!(memo.entries.len(), slots.len());
        prop_assert_eq!(memo.table.requests().len(), slots.len());
        Ok((fires, passes))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Ragged `C`/`M`, strides, padding, depthwise and oAct layouts of
        /// every degree of discordance: the memo agrees with the oracle.
        fn memo_cases(
            dims in proptest::collection::vec(1usize..=9, 2),
            hw in proptest::collection::vec(3usize..=7, 2),
            kernel_stride_pad in proptest::collection::vec(0usize..=2, 3),
            depthwise in 0usize..4,
            factors in proptest::collection::vec(0usize..4, 3),
            oact in 0usize..OACT_LAYOUTS.len(),
        ) {
            let depthwise = depthwise == 0;
            let c = if depthwise { dims[0] } else { dims[1] };
            let k = [1, 3, 3][kernel_stride_pad[0]];
            let base = ConvLayer::new(2, dims[0], c, hw[0], hw[1], k, k)
                .with_stride(1 + kernel_stride_pad[1] % 2)
                .with_padding(kernel_stride_pad[2]);
            let layer = if depthwise { base.depthwise() } else { base };
            prop_assume!(layer.validate().is_ok());

            let config = FeatherConfig::new(4, 8);
            let oact = OACT_LAYOUTS[oact];
            let mut mapping =
                LayerMapping::weight_stationary(&layer, &config, "HWC_C4", oact).unwrap();
            mapping.m_rows = (1 + factors[0]).min(mapping.m_rows);
            mapping.c_cols = (1 << factors[1]).min(mapping.c_cols);
            mapping.q_cols = (1 << factors[2]).min(layer.output_width()).min(8 / mapping.c_cols);
            prop_assume!(mapping.validate(&layer, &config).is_ok());

            let (fires, passes) = check_memo_against_request_lookups(&layer, &mapping)?;
            if oact == "PQM_M4" && mapping.q_cols > 1 {
                prop_assert!(passes > fires, "a discordant layout must split its fires");
            }
            if passes > fires {
                MULTI_BATCH_CASES.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn memo_resolves_every_pass_like_a_request_hashed_lookup() {
        memo_cases();
        assert!(
            MULTI_BATCH_CASES.load(Ordering::Relaxed) > 0,
            "no generated case split a fire into several batches"
        );
    }

    /// What a record pass left behind for one layer walked twice through
    /// one memo — the second time as a pipelined layer, every route a memo
    /// hit.
    #[derive(Debug, PartialEq)]
    struct Recorded {
        /// Per pass: the counters and both halves' access statistics.
        costs: Vec<(CoreRun, AccessStats, AccessStats)>,
        /// The route table's requests, in slot order.
        requests: Vec<(usize, ReductionRequest)>,
    }

    /// Random operands for `layer`: its iActs and its filter tensor.
    fn operands(layer: &ConvLayer) -> (Tensor4<i8>, Tensor4<i8>) {
        let (m, c, r, s) = (layer.m, layer.c, layer.r, layer.s);
        let filter = if layer.is_depthwise() {
            [c, 1, r, s]
        } else {
            [m, c, r, s]
        };
        let iacts = Tensor4::random([layer.n, c, layer.h, layer.w], 1);
        (iacts, Tensor4::random(filter, 2))
    }

    /// Records `layer` with the counting walk, or with its oracle: the
    /// accounted loop over real operands.
    fn record(
        config: &FeatherConfig,
        layer: &ConvLayer,
        mapping: &LayerMapping,
        counting: bool,
    ) -> Result<Recorded, ArchError> {
        use crate::session::{iact_spec, oact_spec};

        let ctx = LayerExec::new(config, layer, mapping)?;
        let mut memo = RouteMemo::default();
        let (iacts, weights) = operands(layer);
        let mut costs = Vec::new();
        for expose in [true, false] {
            costs.push(if counting {
                let mut iact = AccessLedger::new(iact_spec(layer, mapping));
                let mut oact = AccessLedger::new(oact_spec(layer, mapping));
                count_conv_core(&ctx, &mut iact, &mut oact, &mut memo, expose)?
            } else {
                let (_, core, iact, oact) =
                    accounted::run_layer(&ctx, &iacts, &weights, &mut memo, expose)?;
                (core, iact, oact)
            });
        }
        Ok(Recorded {
            costs,
            requests: memo.into_table().requests().to_vec(),
        })
    }

    /// Generated cases with a repeated channel tile beside a ragged one.
    static RAGGED_REPEAT_CASES: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Blocks the record pass repeated instead of walking them on this
        /// thread: iAct rows with every kernel row inside the input, iAct
        /// rows in the padding halo, fire rows.
        static REPEATED_BLOCKS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    /// Counts a block of `kind` (an index into `REPEATED_BLOCKS`) if it was
    /// `repeated`.
    pub(super) fn tally_repeat(repeated: bool, kind: usize) {
        REPEATED_BLOCKS.with(|tally| {
            let mut counts = tally.get();
            counts[kind] += u64::from(repeated);
            tally.set(counts);
        });
    }

    /// Generated cases that repeated a fire row under an oAct layout with
    /// `P` in-line (`MQP_P2M2`), an iAct row under an iAct layout with `H`
    /// in-line (`CHW_W2H2C2`), and an iAct row in the padding halo.
    static ROW_REPEAT_CASES: [AtomicU64; 3] = [const { AtomicU64::new(0) }; 3];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The awkward geometry of `lowered_fire_equals_the_reference_on_
        /// awkward_geometry` (non-square kernels, strides past the kernel,
        /// wide halos, depthwise), batches 1–3, ragged `M`/`C`/`Q` tiles and
        /// iAct/oAct layouts from conflict-free to conflicting: the counting
        /// walk counts and records exactly what the accounted loop does.
        fn counting_walk_cases(
            channels in proptest::collection::vec(1usize..=20, 2),
            hw in proptest::collection::vec(1usize..=6, 2),
            kernel in proptest::collection::vec(0usize..4, 2),
            stride in 1usize..=3,
            padding in 0usize..=5,
            depthwise in 0usize..2,
            batch in 1usize..=3,
            factors in proptest::collection::vec(0usize..4, 3),
            layouts in proptest::collection::vec(0usize..OACT_LAYOUTS.len(), 2),
        ) {
            let (r, s) = ([1, 2, 3, 5][kernel[0]], [1, 2, 3, 5][kernel[1]]);
            let c = channels[0];
            let base = ConvLayer::new(batch, channels[1], c, hw[0], hw[1], r, s)
                .with_stride(stride)
                .with_padding(padding % (r.max(s) + 1));
            let layer = if depthwise == 1 {
                ConvLayer { m: c, ..base }.depthwise()
            } else {
                base
            };
            prop_assume!(layer.validate().is_ok());

            let config = FeatherConfig::new(4, 8);
            let iact = ["HWC_C4", "HCW_W8", "CHW_W2H2C2", "HWC_C2W2"][layouts[0] % 4];
            let oact = OACT_LAYOUTS[layouts[1]];
            let mut mapping = LayerMapping::weight_stationary(&layer, &config, iact, oact).unwrap();
            mapping.m_rows = (1 + factors[0]).min(mapping.m_rows);
            mapping.c_cols = (1 << factors[1]).min(mapping.c_cols);
            mapping.q_cols = (1 << factors[2]).min(layer.output_width()).min(8 / mapping.c_cols);
            prop_assume!(mapping.validate(&layer, &config).is_ok());

            let Ok(oracle) = record(&config, &layer, &mapping, false) else {
                prop_assert!(record(&config, &layer, &mapping, true).is_err());
                return Err(TestCaseError::reject("unroutable pattern"));
            };
            let before = REPEATED_BLOCKS.with(Cell::get);
            prop_assert_eq!(record(&config, &layer, &mapping, true).unwrap(), oracle);
            let after = REPEATED_BLOCKS.with(Cell::get);
            let repeated = |kind: usize| after[kind] > before[kind];
            let situations = [
                oact == "MQP_P2M2" && repeated(2),
                iact == "CHW_W2H2C2" && (repeated(0) || repeated(1)),
                repeated(1),
            ];
            for (cases, seen) in ROW_REPEAT_CASES.iter().zip(situations) {
                cases.fetch_add(u64::from(seen), Ordering::Relaxed);
            }

            // What the public entry point, which compiles and replays,
            // returns for real operands: the oracle's outputs — the
            // reference convolution — and its whole report.
            let (iacts, weights) = operands(&layer);
            let ctx = LayerExec::new(&config, &layer, &mapping).unwrap();
            let (oacts, core, iact_stats, oact_stats) =
                accounted::run_layer(&ctx, &iacts, &weights, &mut RouteMemo::default(), true).unwrap();
            let energy = EnergyModel::tsmc28();
            let summary = layer_summary(&config, &energy, &layer, &core, iact_stats, oact_stats, true, true, true);
            let run = Feather::new(config).execute_conv(&layer, &mapping, &iacts, &weights).unwrap();
            prop_assert_eq!(&oacts, &conv2d_reference(&layer, &iacts, &weights).unwrap());
            prop_assert_eq!(&run.oacts, &oacts);
            prop_assert_eq!(run.report, summary.report);
            if !layer.is_depthwise() && c.div_ceil(mapping.c_cols) > 2 && c % mapping.c_cols != 0 {
                RAGGED_REPEAT_CASES.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn counting_walk_equals_the_accounted_loop() {
        counting_walk_cases();
        assert!(
            RAGGED_REPEAT_CASES.load(Ordering::Relaxed) > 0,
            "no generated case repeated a channel tile beside a ragged one"
        );
        let situations = [
            "an in-line-P fire row",
            "an in-line-H iAct row",
            "a halo row",
        ];
        for (cases, what) in ROW_REPEAT_CASES.iter().zip(situations) {
            let cases = cases.load(Ordering::Relaxed);
            assert!(cases > 0, "no generated case repeated {what}");
        }
    }
}
