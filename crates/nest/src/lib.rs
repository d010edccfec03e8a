//! # feather-nest
//!
//! NEST — FEATHER's **N**eural **E**ngine with **S**patial forwarding and
//! **T**emporal reduction (§III-A of the paper).
//!
//! NEST is a 2-D array of `AH × AW` processing elements. It executes in two
//! interleaved phases:
//!
//! * **Phase 1 — local temporal reduction**: every PE multiplies streamed
//!   input activations against its locally-held (stationary) weights and
//!   accumulates the partial sum in a local register.
//! * **Phase 2 — interleaved spatial forwarding**: PE *rows* take turns
//!   placing their locally-reduced results on the per-column output buses and
//!   into the BIRRD reduction network — one row per cycle in steady state,
//!   while the other rows keep computing. This time-multiplexing is what lets
//!   a single `AW`-input BIRRD serve the whole 2-D array.
//!
//! The crate provides the timing model the compiler charges
//! ([`timing::NestTiming`]), the Fig. 9 phase schedule
//! ([`schedule::walkthrough`]) and a functional PE array ([`NestArray`]) that
//! the accounted test oracle and the benchmark's probes drive; replay moves
//! values through its own datapath (`feather::core::replay_fire`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array;
pub mod schedule;
pub mod timing;

pub use array::NestArray;
pub use timing::{NestTiming, TileTiming};
