//! # feather
//!
//! End-to-end functional simulator of the FEATHER accelerator (ISCA 2024):
//! the NEST PE array, the BIRRD reorder-reduction network, the ping/pong
//! Stationary Buffer (StaB), the Streaming Buffer (StrB) and the quantization
//! module, orchestrated by a per-layer controller that implements
//! **Reorder-in-Reduction (RIR)** — output activations are written back to the
//! StaB already in the layout the *next* layer's dataflow wants, at zero extra
//! latency.
//!
//! The simulator is *functional*: its results are real INT8/INT32 values,
//! checked against the golden convolution/GEMM kernels of
//! [`feather_arch::tensor`]. A cycle-accounting layer
//! ([`feather_nest::timing`]) and the buffer access statistics provide the
//! latency/energy numbers used by the examples and benchmarks. Nothing that
//! NEST, BIRRD or the StaB count depends on data, so every entry point runs
//! the way FEATHER's controller does: a record pass counts the schedule once
//! and lowers it into a flat [`Program`], whose cost is known exactly without
//! running it, and every run replays that program as pure data movement.
//! That cost is one [`LayerSummary`] per layer — the only record of what a
//! compiled layer costs — grouped by segment into the [`GraphReport`] every
//! run returns, the only place that totals them.
//!
//! Full model *graphs* — residual branches and joins included — go through
//! [`graph_session::GraphSession`], which plans the tensor DAG as pipelined
//! segments (shortcut tensors parked in an on-chip scratch region, quantized
//! residual adds at the joins). Inside a segment, layers pipeline
//! back-to-back through the ping/pong StaB ([`session`]), which is where RIR
//! pays off: intermediate activations are reduced directly into the next
//! layer's layout and never leave the chip. A chain is a graph of one segment
//! ([`GraphSession::chain`], [`GraphSession::weight_stationary_chain`]) and a
//! single layer ([`Feather::execute_conv`] / [`Feather::execute_gemm`]) is a
//! chain of one, so everything compiles and replays through the same
//! [`GraphSession`]; each compile routes every distinct BIRRD configuration
//! of its program once. The accounted loop that moves values through a
//! simulated NEST array and BIRRD bus while counting is the tests' oracle,
//! not shipped code.

//! # Example
//!
//! ```
//! use feather::{Feather, FeatherConfig, LayerMapping};
//! use feather_arch::workload::ConvLayer;
//! use feather_arch::tensor::Tensor4;
//!
//! let layer = ConvLayer::new(1, 8, 8, 6, 6, 3, 3).with_padding(1).with_name("demo");
//! let iacts = Tensor4::random([1, 8, 6, 6], 1);
//! let weights = Tensor4::random([8, 8, 3, 3], 2);
//!
//! let mut acc = Feather::new(FeatherConfig::new(4, 4));
//! let mapping = LayerMapping::weight_stationary(&layer, &acc.config(), "HWC_C4", "MPQ_Q4")?;
//! let run = acc.execute_conv(&layer, &mapping, &iacts, &weights).unwrap();
//!
//! // The functional result matches the golden convolution.
//! let golden = feather_arch::tensor::conv2d_reference(&layer, &iacts, &weights).unwrap();
//! assert_eq!(run.oacts, golden);
//! assert!(run.report.utilization > 0.0);
//! # Ok::<(), feather_arch::ArchError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accelerator;
pub mod config;
mod core;
pub mod graph_session;
pub mod mapping;
pub mod profile;
pub mod program;
pub mod report;
pub mod session;

pub use accelerator::Feather;
pub use config::FeatherConfig;
pub use graph_session::GraphSession;
pub use mapping::LayerMapping;
pub use profile::{OpFamily, ProfileRow, ReplayProfile};
pub use program::{Program, ProgramSession, ReplayScratch};
pub use report::{
    GraphReport, GraphRun, JoinSummary, LayerRun, LayerSummary, RunReport, SegmentSummary,
};
