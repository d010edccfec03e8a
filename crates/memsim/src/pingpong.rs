//! Ping/pong double buffering, as used by FEATHER's StaB and StrB (§III-C).

use serde::{Deserialize, Serialize};

use crate::buffer::FunctionalBuffer;
use crate::stats::AccessStats;
use crate::BufferSpec;

/// Which half of a ping/pong pair is currently the "read" side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Half {
    /// The ping half.
    Ping,
    /// The pong half.
    Pong,
}

impl Half {
    /// The opposite half.
    pub fn other(self) -> Half {
        match self {
            Half::Ping => Half::Pong,
            Half::Pong => Half::Ping,
        }
    }
}

/// A ping/pong buffer pair: the compute pipeline reads the *active* half and
/// writes results (or prefetched data) into the *shadow* half; [`PingPong::swap`]
/// flips the roles at layer/tile boundaries. FEATHER uses this to overlap
/// layer `i`'s oAct writes (in the next layer's layout) with layer `i`'s iAct
/// reads — the heart of inter-layer pipelining with RIR.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PingPong<T> {
    ping: FunctionalBuffer<T>,
    pong: FunctionalBuffer<T>,
    active: Half,
    swaps: u64,
}

impl<T: Copy> PingPong<T> {
    /// Creates a ping/pong pair of identical halves.
    pub fn new(spec: BufferSpec) -> Self {
        PingPong {
            ping: FunctionalBuffer::new(spec),
            pong: FunctionalBuffer::new(spec),
            active: Half::Ping,
            swaps: 0,
        }
    }

    /// Which half is currently active (being read by compute).
    pub fn active_half(&self) -> Half {
        self.active
    }

    /// Number of swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The active (read) half.
    pub fn active(&mut self) -> &mut FunctionalBuffer<T> {
        match self.active {
            Half::Ping => &mut self.ping,
            Half::Pong => &mut self.pong,
        }
    }

    /// The shadow (write) half.
    pub fn shadow(&mut self) -> &mut FunctionalBuffer<T> {
        match self.active {
            Half::Ping => &mut self.pong,
            Half::Pong => &mut self.ping,
        }
    }

    /// Both halves at once, `(active, shadow)` — the borrow a pipelined layer
    /// needs: compute reads its iActs from the active half while BIRRD writes
    /// oActs into the shadow half in the same simulated cycles.
    pub fn split_mut(&mut self) -> (&mut FunctionalBuffer<T>, &mut FunctionalBuffer<T>) {
        match self.active {
            Half::Ping => (&mut self.ping, &mut self.pong),
            Half::Pong => (&mut self.pong, &mut self.ping),
        }
    }

    /// Immutable view of the active half.
    pub fn active_ref(&self) -> &FunctionalBuffer<T> {
        match self.active {
            Half::Ping => &self.ping,
            Half::Pong => &self.pong,
        }
    }

    /// Immutable view of the shadow half.
    pub fn shadow_ref(&self) -> &FunctionalBuffer<T> {
        match self.active {
            Half::Ping => &self.pong,
            Half::Pong => &self.ping,
        }
    }

    /// Swaps the roles of the two halves (layer / tile boundary).
    pub fn swap(&mut self) {
        self.ping.flush_cycle();
        self.pong.flush_cycle();
        self.active = self.active.other();
        self.swaps += 1;
    }

    /// Clears the shadow half so a new tile/layer can be written into it.
    pub fn clear_shadow(&mut self) {
        self.shadow().clear();
    }

    /// Re-provisions the pair for a new tenant, reusing the allocations:
    /// both halves are [`FunctionalBuffer::reshape`]d to `spec` (data
    /// discarded, statistics kept — consumers measure deltas), the ping half
    /// becomes active again and the swap counter restarts. After a reset the
    /// pair is observationally identical to `PingPong::new(spec)` except for
    /// the accumulated absolute statistics, which delta-based accounting
    /// (`AccessStats::since`) never sees. This is what lets a replay executor
    /// keep one StaB allocation alive across requests instead of
    /// reallocating per run.
    pub fn reset(&mut self, spec: BufferSpec) {
        self.ping.reshape(spec);
        self.pong.reshape(spec);
        self.active = Half::Ping;
        self.swaps = 0;
    }

    /// Combined statistics of both halves.
    pub fn stats(&self) -> AccessStats {
        let mut s = *self.ping.stats();
        s.merge(self.pong.stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Banking;

    fn spec() -> BufferSpec {
        BufferSpec::new(8, 4, 4, Banking::Horizontal)
    }

    #[test]
    fn swap_flips_roles() {
        let mut pp = PingPong::<i8>::new(spec());
        assert_eq!(pp.active_half(), Half::Ping);
        pp.active().write(0, 0, 1);
        pp.swap();
        assert_eq!(pp.active_half(), Half::Pong);
        // The value written into ping is now visible on the shadow side.
        assert_eq!(pp.shadow_ref().peek(0, 0), Some(1));
        assert_eq!(pp.active_ref().peek(0, 0), None);
        assert_eq!(pp.swaps(), 1);
    }

    #[test]
    fn write_shadow_read_after_swap() {
        // Model one FEATHER layer: read iActs from the active half, write
        // oActs to the shadow half, swap, and the oActs become next layer's iActs.
        let mut pp = PingPong::<i32>::new(spec());
        pp.active().write(0, 0, 10);
        pp.shadow().write(1, 1, 99);
        pp.swap();
        assert_eq!(pp.active().read(1, 1), Some(99));
    }

    #[test]
    fn stats_combine_both_halves() {
        let mut pp = PingPong::<i8>::new(spec());
        pp.active().write(0, 0, 1);
        pp.shadow().write(0, 0, 2);
        assert_eq!(pp.stats().element_writes, 2);
    }

    #[test]
    fn clear_shadow_only_clears_shadow() {
        let mut pp = PingPong::<i8>::new(spec());
        pp.active().write(0, 0, 1);
        pp.shadow().write(0, 0, 2);
        pp.clear_shadow();
        assert_eq!(pp.active_ref().peek(0, 0), Some(1));
        assert_eq!(pp.shadow_ref().peek(0, 0), None);
    }

    #[test]
    fn reset_behaves_like_new_except_stats() {
        let mut pp = PingPong::<i32>::new(spec());
        pp.active().write(0, 0, 7);
        pp.shadow().write(1, 0, 9);
        pp.swap();
        pp.swap();
        let writes_before = pp.stats().element_writes;
        let new_spec = BufferSpec::new(16, 2, 2, Banking::Horizontal);
        pp.reset(new_spec);
        // Fresh-pair observables: ping active, zero swaps, no data.
        assert_eq!(pp.active_half(), Half::Ping);
        assert_eq!(pp.swaps(), 0);
        assert_eq!(pp.active_ref().occupancy(), 0);
        assert_eq!(pp.shadow_ref().occupancy(), 0);
        assert_eq!(pp.active_ref().spec().num_lines, 16);
        // Statistics survive the reset (delta accounting handles them).
        assert_eq!(pp.stats().element_writes, writes_before);
    }

    #[test]
    fn half_other_is_involutive() {
        assert_eq!(Half::Ping.other().other(), Half::Ping);
    }

    #[test]
    fn split_mut_returns_active_then_shadow() {
        let mut pp = PingPong::<i8>::new(spec());
        {
            let (active, shadow) = pp.split_mut();
            active.write(0, 0, 1);
            shadow.write(0, 0, 2);
        }
        assert_eq!(pp.active_ref().peek(0, 0), Some(1));
        assert_eq!(pp.shadow_ref().peek(0, 0), Some(2));
        pp.swap();
        let (active, _) = pp.split_mut();
        assert_eq!(active.peek(0, 0), Some(2));
    }
}
