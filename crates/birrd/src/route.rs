//! Routing: turning a *reduction-reorder request* into per-stage switch
//! configurations.
//!
//! The paper routes BIRRD with a multicast-style path-selection algorithm
//! (Arora–Leighton–Maggs) and falls back to brute force for the rare patterns
//! the heuristic misses (§III-B.3). We implement the same idea as *path
//! packing*: signals are routed one at a time through the link graph (every
//! inter-stage link has capacity one), depth-first with backtracking across
//! signals, with three accelerators:
//!
//! * **reachability pruning** — a signal is only allowed onto a link from
//!   which its destination output port is still reachable;
//! * **merge-first heuristic** — when a signal arrives at a switch whose
//!   other input already carries its reduction group, it merges there
//!   unconditionally (reduction can never hurt: the merged signal continues
//!   on the existing path and a link is freed);
//! * **randomized restarts** — the first attempt uses the natural
//!   deterministic order; subsequent attempts shuffle the group order and the
//!   per-stage output preference. A fresh ordering succeeds with good
//!   probability, so many cheap restarts beat one deep search.
//!
//! The search is deterministic for a given request: restart seeds are fixed.

use std::collections::BTreeMap;
use std::fmt;

use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::switch::EggConfig;
use crate::topology::{Topology, MAX_ROUTED_WIDTH};

/// Identifier of a reduction group.
pub type GroupId = usize;

/// A reduction-reorder request: for each input port, which group it belongs to
/// (or `None` if the port carries no data), and for each group, the output
/// port its reduced value must reach.
///
/// The request is totally ordered *and* hashable so it can key
/// route-memoization maps (ordered or hashed): the controller issues the same
/// handful of reduce-reorder patterns millions of times per layer, and
/// routing is deterministic per request.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReductionRequest {
    /// Group membership per input port (`None` = no data on that port).
    pub input_groups: Vec<Option<GroupId>>,
    /// Destination output port per group.
    pub group_destinations: BTreeMap<GroupId, usize>,
}

impl ReductionRequest {
    /// Builds a request from `(member input ports, destination port)` tuples.
    ///
    /// # Errors
    /// Returns [`RouteError::MalformedRequest`] if a port is referenced twice,
    /// a port or destination is out of range, a group has no member, or two
    /// groups share a destination.
    pub fn from_groups(width: usize, groups: &[(Vec<usize>, usize)]) -> Result<Self, RouteError> {
        let mut input_groups = vec![None; width];
        let mut group_destinations = BTreeMap::new();
        for (gid, (members, dest)) in groups.iter().enumerate() {
            for &port in members {
                if port >= width {
                    return Err(RouteError::MalformedRequest(format!(
                        "input port {port} out of range for width {width}"
                    )));
                }
                if input_groups[port].is_some() {
                    return Err(RouteError::MalformedRequest(format!(
                        "input port {port} appears in two groups"
                    )));
                }
                input_groups[port] = Some(gid);
            }
            group_destinations.insert(gid, *dest);
        }
        let request = ReductionRequest {
            input_groups,
            group_destinations,
        };
        request.validate()?;
        Ok(request)
    }

    /// Checks what the public fields alone do not guarantee: every
    /// destination is a port of the request's width, no two groups share
    /// one, every group with a destination has a member input, and every
    /// member input's group has a destination.
    /// [`ReductionRequest::from_groups`] and [`crate::Birrd::route`] both
    /// call it.
    pub(crate) fn validate(&self) -> Result<(), RouteError> {
        let width = self.width();
        let malformed = |msg: String| Err(RouteError::MalformedRequest(msg));
        let mut targeted = vec![false; width];
        for (&gid, &dest) in &self.group_destinations {
            if dest >= width {
                return malformed(format!(
                    "destination port {dest} out of range for width {width}"
                ));
            }
            if std::mem::replace(&mut targeted[dest], true) {
                return malformed(format!("two groups target output port {dest}"));
            }
            if !self.input_groups.contains(&Some(gid)) {
                return malformed(format!("group {gid} has no member inputs"));
            }
        }
        for (port, group) in self.input_groups.iter().enumerate() {
            match group {
                Some(gid) if !self.group_destinations.contains_key(gid) => {
                    return malformed(format!(
                        "input port {port} belongs to group {gid}, which has no destination"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// A pure permutation request: input `i` goes (un-reduced) to `perm[i]`.
    ///
    /// # Errors
    /// Returns [`RouteError::MalformedRequest`] if `perm` is not a permutation
    /// of `0..width`.
    pub fn permutation(perm: &[usize]) -> Result<Self, RouteError> {
        let width = perm.len();
        let groups: Vec<(Vec<usize>, usize)> = perm
            .iter()
            .enumerate()
            .map(|(i, &d)| (vec![i], d))
            .collect();
        Self::from_groups(width, &groups)
    }

    /// Number of input ports.
    pub fn width(&self) -> usize {
        self.input_groups.len()
    }

    /// Number of reduction groups.
    pub fn num_groups(&self) -> usize {
        self.group_destinations.len()
    }
}

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The request itself is inconsistent.
    MalformedRequest(String),
    /// The request references a different width than the network.
    WidthMismatch {
        /// Network width.
        network: usize,
        /// Request width.
        request: usize,
    },
    /// The search exhausted its budget without finding a configuration.
    Unroutable {
        /// Number of search nodes explored before giving up.
        explored: u64,
    },
    /// The network is wider than the router's reachability masks cover.
    WidthUnsupported {
        /// Network width.
        width: usize,
        /// Widest routable network ([`MAX_ROUTED_WIDTH`]).
        max: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::MalformedRequest(msg) => write!(f, "malformed reduction request: {msg}"),
            RouteError::WidthMismatch { network, request } => write!(
                f,
                "request width {request} does not match network width {network}"
            ),
            RouteError::Unroutable { explored } => {
                write!(
                    f,
                    "no routing found after exploring {explored} search nodes"
                )
            }
            RouteError::WidthUnsupported { width, max } => write!(
                f,
                "cannot route a {width}-port network: the router supports widths up to {max}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// One signal to be routed: a group member entering at `input`, bound for the
/// group's destination. Only the `first` member of a group must physically
/// reach the output port; later members terminate by merging into an
/// already-routed same-group path.
#[derive(Debug, Clone, Copy)]
struct Signal {
    /// The group's index in [`Router::route`]'s ascending-id group list.
    group: u32,
    input: usize,
    dest: usize,
    first: bool,
    /// Per-stage output preference mask for tie-breaking (bit `s` flips the
    /// exploration order of the two switch outputs at stage `s`).
    order_flip: u64,
}

/// One hop of a routed path: at `stage` the signal occupied input link
/// `in_link` and left through switch output `out_link`. A merge-terminated
/// hop has `out_link == MERGED`.
#[derive(Debug, Clone, Copy)]
struct Hop {
    stage: usize,
    in_link: usize,
    out_link: usize,
}

const MERGED: usize = usize::MAX;

/// An input link no signal occupies.
const FREE: u32 = u32::MAX;

/// Search nodes the router explores, over all its restarts, before it gives
/// up on a request with [`RouteError::Unroutable`].
const ROUTE_BUDGET: u64 = 2_000_000;

pub(crate) struct Router<'a> {
    topology: &'a Topology,
    reach: &'a [Vec<u64>],
    /// `occ[s * width + j]` = group (signal index) occupying input link `j`
    /// of stage `s`, or [`FREE`].
    occ: Vec<u32>,
    /// Hops of all fully-routed signals (rolled back on backtrack).
    hops: Vec<Hop>,
    budget_this_restart: u64,
    explored: u64,
}

impl<'a> Router<'a> {
    /// A router over `topology`'s precomputed reachability masks.
    ///
    /// # Errors
    /// Returns [`RouteError::WidthUnsupported`] for a network wider than
    /// [`MAX_ROUTED_WIDTH`].
    pub(crate) fn new(topology: &'a Topology) -> Result<Self, RouteError> {
        let reach = topology
            .reachability()
            .ok_or(RouteError::WidthUnsupported {
                width: topology.width(),
                max: MAX_ROUTED_WIDTH,
            })?;
        Ok(Router {
            reach,
            occ: vec![FREE; topology.width() * topology.stages()],
            hops: Vec::new(),
            topology,
            budget_this_restart: ROUTE_BUDGET,
            explored: 0,
        })
    }

    /// The [`Router::occ`] index of input link `link` of `stage`.
    #[inline]
    fn at(&self, stage: usize, link: usize) -> usize {
        stage * self.topology.width() + link
    }

    /// Attempts to find a full network configuration for the request,
    /// retrying with different randomized tie-breaking before giving up.
    /// A request that fails [`ReductionRequest::validate`] is refused before
    /// any search.
    pub(crate) fn route(
        &mut self,
        request: &ReductionRequest,
    ) -> Result<Vec<Vec<EggConfig>>, RouteError> {
        let width = self.topology.width();
        if request.width() != width {
            return Err(RouteError::WidthMismatch {
                network: width,
                request: request.width(),
            });
        }
        request.validate()?;

        // `(group, input port)` of every live port, by ascending group id and
        // then port (the sort is stable), and `groups[i]`: group `i`'s id and
        // run of `members`. The first member of each group carries the
        // reduced value all the way to the output port.
        let mut members: Vec<(GroupId, usize)> = request
            .input_groups
            .iter()
            .enumerate()
            .filter_map(|(port, g)| g.map(|group| (group, port)))
            .collect();
        members.sort_by_key(|&(group, _)| group);
        let mut groups: Vec<(GroupId, std::ops::Range<usize>)> = Vec::new();
        for (at, &(group, _)) in members.iter().enumerate() {
            match groups.last_mut() {
                Some((id, run)) if *id == group => run.end = at + 1,
                _ => groups.push((group, at..at + 1)),
            }
        }

        // Randomized restarts: the first pass uses the natural (deterministic)
        // order; later passes shuffle the group order and per-stage output
        // preferences. Each restart gets a slice of the node budget so a
        // doomed ordering is abandoned quickly.
        let per_restart = (ROUTE_BUDGET / 64).max(10_000);
        let mut total_explored = 0u64;
        let mut seed = 0u64;
        let (mut group_order, mut signals) = (Vec::new(), Vec::new());
        while total_explored < ROUTE_BUDGET {
            self.explored = 0;
            self.budget_this_restart = per_restart.min(ROUTE_BUDGET - total_explored);
            // The first pass draws nothing, so it keys no generator.
            let mut rng = (seed > 0).then(|| ChaCha8Rng::seed_from_u64(seed));

            group_order.clear();
            group_order.extend(0..groups.len() as u32);
            if let Some(rng) = rng.as_mut() {
                group_order.shuffle(rng);
            }
            // Largest groups first (most constrained); stable sort keeps the
            // shuffled order within equal sizes.
            group_order.sort_by_key(|&g| std::cmp::Reverse(groups[g as usize].1.len()));

            signals.clear();
            let ordered = group_order.iter().flat_map(|&group| {
                let (id, run) = &groups[group as usize];
                let dest = request.group_destinations[id];
                members[run.clone()]
                    .iter()
                    .enumerate()
                    .map(move |(mi, &(_, input))| Signal {
                        group,
                        input,
                        dest,
                        first: mi == 0,
                        order_flip: 0,
                    })
            });
            signals.extend(ordered);
            if let Some(rng) = rng.as_mut() {
                for signal in &mut signals {
                    signal.order_flip = rng.next_u64();
                }
            }

            self.occ.fill(FREE);
            self.hops.clear();
            let found = self.pack(&signals, 0);
            total_explored += self.explored;
            if found {
                return Ok(self.reconstruct_config());
            }
            seed += 1;
        }
        Err(RouteError::Unroutable {
            explored: total_explored,
        })
    }

    /// Routes `signals[idx..]`: finds a path for signal `idx`, then recurses;
    /// exhausting signal `idx`'s paths backtracks into signal `idx - 1`.
    fn pack(&mut self, signals: &[Signal], idx: usize) -> bool {
        if idx == signals.len() {
            return true;
        }
        let input = signals[idx].input;
        let at = self.at(0, input);
        self.occ[at] = signals[idx].group;
        let hops_before = self.hops.len();
        if self.walk(signals, idx, 0, input) {
            return true;
        }
        self.hops.truncate(hops_before);
        self.occ[at] = FREE;
        false
    }

    /// Depth-first walk of signal `idx` standing on input link `link` of
    /// `stage`. On reaching the signal's terminal (its output port for the
    /// first group member, a merge for the rest) the walk continues with the
    /// next signal, so failures deeper in the packing order backtrack through
    /// this signal's remaining path choices.
    fn walk(&mut self, signals: &[Signal], idx: usize, stage: usize, link: usize) -> bool {
        self.explored += 1;
        if self.explored > self.budget_this_restart {
            return false;
        }
        let signal = signals[idx];
        let stages = self.topology.stages();
        if stage == stages {
            // Only the first member descends to the final level, and only onto
            // its exact destination port (checked before descending).
            return self.pack(signals, idx + 1);
        }

        // Merge-first: if the other input of this switch already carries this
        // signal's group, add into it — the sum continues on the existing
        // path, no further links are needed.
        if !signal.first && self.occ[self.at(stage, link ^ 1)] == signal.group {
            self.hops.push(Hop {
                stage,
                in_link: link,
                out_link: MERGED,
            });
            if self.pack(signals, idx + 1) {
                return true;
            }
            self.hops.pop();
            return false;
        }

        let sw = link / 2;
        let flip = ((signal.order_flip >> stage) & 1) as usize;
        for k in 0..2usize {
            let out = 2 * sw + (k ^ flip);
            let next = self.topology.next_port(stage, out);
            let at = self.at(stage + 1, next);
            let viable = if stage + 1 == stages {
                signal.first && next == signal.dest
            } else {
                self.reach[stage + 1][next] & (1u64 << signal.dest) != 0 && self.occ[at] == FREE
            };
            if !viable {
                continue;
            }
            if stage + 1 < stages {
                self.occ[at] = signal.group;
            }
            self.hops.push(Hop {
                stage,
                in_link: link,
                out_link: out,
            });
            if self.walk(signals, idx, stage + 1, next) {
                return true;
            }
            self.hops.pop();
            if stage + 1 < stages {
                self.occ[at] = FREE;
            }
        }
        false
    }

    /// Turns the packed hops into per-stage switch configurations.
    fn reconstruct_config(&self) -> Vec<Vec<EggConfig>> {
        let width = self.topology.width();
        let mut config = vec![vec![EggConfig::Pass; width / 2]; self.topology.stages()];
        // First place all pass-through hops, then resolve merges against them.
        for hop in self.hops.iter().filter(|h| h.out_link != MERGED) {
            let sw = hop.in_link / 2;
            if hop.in_link == hop.out_link {
                config[hop.stage][sw] = EggConfig::Pass;
            } else {
                config[hop.stage][sw] = EggConfig::Swap;
            }
        }
        for hop in self.hops.iter().filter(|h| h.out_link == MERGED) {
            let sw = hop.in_link / 2;
            // The partner path crosses this switch; the sum must continue on
            // the partner's output side.
            let partner_out = self
                .hops
                .iter()
                .find(|h| {
                    h.stage == hop.stage && h.in_link == (hop.in_link ^ 1) && h.out_link != MERGED
                })
                .map(|h| h.out_link)
                .expect("merge hop always has a pass-through partner on the other input");
            config[hop.stage][sw] = if partner_out == 2 * sw {
                EggConfig::AddLeft
            } else {
                EggConfig::AddRight
            };
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_validate() {
        assert!(ReductionRequest::from_groups(4, &[(vec![0, 1], 0), (vec![1, 2], 1)]).is_err());
        assert!(ReductionRequest::from_groups(4, &[(vec![0], 5)]).is_err());
        assert!(ReductionRequest::from_groups(4, &[(vec![9], 0)]).is_err());
        assert!(ReductionRequest::from_groups(4, &[(vec![0], 1), (vec![1], 1)]).is_err());
        assert!(ReductionRequest::from_groups(4, &[(vec![], 1)]).is_err());
        let ok = ReductionRequest::from_groups(4, &[(vec![0, 1], 3), (vec![2, 3], 0)]).unwrap();
        assert_eq!(ok.num_groups(), 2);
    }

    #[test]
    fn permutation_request() {
        let r = ReductionRequest::permutation(&[3, 2, 1, 0]).unwrap();
        assert_eq!(r.num_groups(), 4);
        assert_eq!(r.group_destinations[&0], 3);
    }
}
