//! # layoutloop
//!
//! A Timeloop-style analytic cost model for spatial DNN accelerators, extended
//! with the paper's two contributions (§V):
//!
//! 1. **Physical storage modeling** — on-chip buffers are `num_line ×
//!    line_size` arrays of SRAM banks with a `conflict_depth` and a limited
//!    number of ports, not ideal bandwidth. The co-search prices a buffer
//!    whose conflicts follow from how many distinct lines a cycle reads (one
//!    bank, or horizontal banks) and refuses one of several vertical banks;
//! 2. **Layout assessment** — every mapping is evaluated *under a concrete
//!    data layout*; discordant (mapping, layout) pairs are charged the
//!    `max(NL/NP, 1)` bank-conflict slowdown.
//!
//! On top of the evaluator sits a mapper ([`mapper`]) that searches the
//! dataflow space under an architecture's dataflow policy, and a
//! co-search driver ([`cosearch`]) that explores (dataflow, layout) pairs and
//! picks the EDP-optimal combination per layer — the flow used to produce
//! Fig. 13 of the paper.
//!
//! Every entry point takes a layer as a
//! [`ConvLayer`](feather_arch::workload::ConvLayer), the vocabulary the
//! functional simulator runs too. A GEMM arrives as a 1×1 convolution: a flat
//! network's GEMMs as [`GemmLayer::as_conv`](feather_arch::workload::GemmLayer::as_conv)
//! (streaming `B`), a graph's GEMM nodes as their
//! [`execution_conv`](feather_arch::graph::Node::execution_conv) (streaming
//! `A`).
//!
//! # Example
//!
//! ```
//! use feather_arch::workload::ConvLayer;
//! use layoutloop::arch::ArchSpec;
//! use layoutloop::cosearch::co_search;
//!
//! let layer = ConvLayer::new(1, 64, 64, 14, 14, 3, 3).with_padding(1);
//! let arch = ArchSpec::feather_like(16, 16);
//! let best = co_search(&arch, &layer, 0).unwrap();
//! assert!(best.evaluation.utilization > 0.9);
//! assert!(best.evaluation.conflict_slowdown <= 1.0 + 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod arch;
pub mod cache;
pub mod cosearch;
pub mod evaluate;
pub mod graphplan;
pub mod mapper;

pub use arch::{ArchSpec, ReorderCapability};
pub use cache::CoSearchCache;
pub use cosearch::{co_search, plan_network, CoSearchResult, CoSearchTable, NetworkPlan};
pub use evaluate::{evaluate, Evaluation};
pub use graphplan::{plan_graph, GraphPlan};
pub use mapper::{search_dataflows, MapperConfig};
