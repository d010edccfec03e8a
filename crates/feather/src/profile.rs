//! Where a replay's wall time goes: one [`ProfileRow`] per executed op of a
//! [`crate::Program`], next to what the cost model charges the same layer.
//!
//! Produced by [`crate::ProgramSession::run_profiled`]. The plain entry
//! points pass no sink, read no clock and build no rows.

/// The op families a replay's time splits over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpFamily {
    /// Staging a segment input into the active StaB half.
    Stage,
    /// A layer's tile loop: local temporal reduction, then row fires.
    Fire,
    /// Boundary quantization between two layers of a segment.
    Reorder,
    /// Draining a segment output into the fresh register.
    Drain,
    /// A residual add.
    Join,
    /// `Swap`, `Park` and `Unpark`: moves that touch no layer's data.
    Other,
}

impl OpFamily {
    /// Every family, in the order [`ReplayProfile::by_family`] reports them.
    pub const ALL: [OpFamily; 6] = [
        OpFamily::Stage,
        OpFamily::Fire,
        OpFamily::Reorder,
        OpFamily::Drain,
        OpFamily::Join,
        OpFamily::Other,
    ];
}

/// One executed op: what it was, whose it was, how long it took — and, on a
/// layer's `Fire` row, what [`crate::Program::cost`] charges that layer (zero
/// on every other row, so column sums count each layer once).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// The op's family.
    pub family: OpFamily,
    /// The segment the op belongs to (`None` for joins, parks and unparks).
    pub segment: Option<usize>,
    /// The layer (or join) the op works for: a `Stage` belongs to its
    /// segment's first layer, a `Drain` to its last. Empty for
    /// [`OpFamily::Other`].
    pub layer: String,
    /// Wall time of the op, all lanes together.
    pub wall_ns: u64,
    /// Modelled cycles of the layer, conflict stalls included.
    pub cycles: u64,
    /// Useful MACs of the layer.
    pub macs: u64,
    /// BIRRD passes (row fires with live outputs) of the layer.
    pub passes: u64,
}

/// The per-op profile of one replay, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayProfile {
    /// One row per executed op: [`crate::Program::num_ops`] of them.
    pub rows: Vec<ProfileRow>,
    /// Wall time spent outside the op loop, in no row: provisioning the
    /// scratch, striping the input samples, splitting the graph output into
    /// per-lane tensors, handing the boundary stripes back and assembling
    /// the reports — summed over a batch's eight-lane groups.
    pub outside_ns: u64,
}

impl ReplayProfile {
    /// Wall nanoseconds per op family, every family listed.
    pub fn by_family(&self) -> Vec<(OpFamily, u64)> {
        let wall_ns = |family| {
            let rows = self.rows.iter().filter(|r| r.family == family);
            rows.map(|r| r.wall_ns).sum()
        };
        OpFamily::ALL.iter().map(|&f| (f, wall_ns(f))).collect()
    }

    /// One row per layer and join, in first-execution order: the wall time
    /// of all of its ops summed, with the layer's modelled cost. The
    /// `family` of a summed row is that of its first op.
    pub fn by_layer(&self) -> Vec<ProfileRow> {
        let mut layers: Vec<ProfileRow> = Vec::new();
        for row in self.rows.iter().filter(|r| !r.layer.is_empty()) {
            let same = |l: &&mut ProfileRow| l.segment == row.segment && l.layer == row.layer;
            match layers.iter_mut().find(same) {
                Some(sum) => {
                    sum.wall_ns += row.wall_ns;
                    sum.cycles += row.cycles;
                    sum.macs += row.macs;
                    sum.passes += row.passes;
                }
                None => layers.push(row.clone()),
            }
        }
        layers
    }
}
