//! # feather-birrd
//!
//! The **B**utterfly **I**nterconnect for **R**eduction and **R**eordering in
//! **D**ataflows (BIRRD) — the reconfigurable multi-stage reduction network at
//! the heart of FEATHER (§III-B of the paper).
//!
//! BIRRD sits between the NEST PE array and the output buffers. Every cycle it
//! receives the locally-reduced partial sums of one PE row (one value per
//! column) and, while reducing groups of them into final sums, *reorders* the
//! results to arbitrary output-buffer banks. Because the reordering happens
//! inside the reduction pass, switching the on-chip data layout for the next
//! layer costs no extra latency — the paper's *Reorder-in-Reduction (RIR)*.
//!
//! This crate provides:
//!
//! * [`topology`] — the inter-stage wiring of Algorithm 1 (two back-to-back
//!   butterflies with bit-reversal connections);
//! * [`switch`] — the 2×2 "Egg" switch with its four configurations
//!   (Pass / Swap / Add-Left / Add-Right);
//! * [`route`] — a router that, given a *reduction-reorder request* (which
//!   inputs form which reduction groups and which output port each group's
//!   result must reach), produces a per-stage switch configuration;
//! * [`network`] — the functional network: apply a configuration to concrete
//!   values and obtain the output-port values, plus latency/energy accounting;
//! * [`compiled`] — routed configurations lowered to flat gather-sum programs
//!   ([`CompiledRoute`]) for allocation-free steady-state evaluation,
//!   bit-identical to [`Birrd::evaluate`].
//!
//! # Example: 4:2 reduction with reordering (Fig. 9 / Fig. 11 style)
//!
//! ```
//! use feather_birrd::{Birrd, ReductionRequest};
//!
//! let birrd = Birrd::new(4).unwrap();
//! // Inputs 0,1 form group A -> output port 3; inputs 2,3 form group B -> port 0.
//! let request = ReductionRequest::from_groups(4, &[(vec![0, 1], 3), (vec![2, 3], 0)]).unwrap();
//! let config = birrd.route(&request).unwrap();
//! let outputs = birrd.evaluate(&config, &[Some(1), Some(2), Some(10), Some(20)]).unwrap();
//! assert_eq!(outputs[3], Some(3));   // 1 + 2 delivered to port 3
//! assert_eq!(outputs[0], Some(30));  // 10 + 20 delivered to port 0
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compiled;
pub mod network;
pub mod route;
pub mod switch;
pub mod topology;

pub use compiled::CompiledRoute;
pub use network::{Birrd, NetworkConfig};
pub use route::{ReductionRequest, RouteError};
pub use switch::EggConfig;
pub use topology::{Topology, MAX_ROUTED_WIDTH};
