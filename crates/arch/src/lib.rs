//! # feather-arch
//!
//! Foundation types for the FEATHER accelerator reproduction (ISCA 2024,
//! arXiv:2405.13170): tensor dimensions, convolution/GEMM workloads, dataflow
//! mappings (the parallelism and shape of the paper's "TOPS"), on-chip data
//! layouts in the paper's `CHW_W4H2C2` notation, a DNN model zoo (ResNet-50,
//! MobileNet-V3, BERT), energy constants and reference (golden) kernels.
//!
//! Every other crate in the workspace builds on these types:
//!
//! * [`workload`] — [`ConvLayer`], [`GemmLayer`]
//!   and the [`Workload`] enum with derived quantities
//!   (output dims, MAC counts, tensor footprints).
//! * [`dataflow`] — [`Dataflow`]: the parallelism and shape of the paper's
//!   TOPS space (spatial factors over the PE rows and columns, and the
//!   virtual PE-array shape). Tiling and ordering are the fixed canonical
//!   remainder nest ([`Dataflow::temporal`]) the cost model's access
//!   sampler walks.
//! * [`fabric`] — [`FeatherConfig`](fabric::FeatherConfig), the array, and
//!   [`LayerMapping`](fabric::LayerMapping), what its controller runs a
//!   layer with: the one FEATHER description the planner and the
//!   functional simulator share.
//! * [`layout`] — [`Layout`]: inter-line dimension order plus
//!   intra-line `(dim, size)` interleaving, with parsing/printing of the
//!   paper's textual notation and coordinate → (line, offset) mapping.
//! * [`models`] — layer-by-layer definitions of the evaluation workloads.
//! * [`graph`] — the tensor-DAG IR ([`Graph`]) with explicit
//!   producer→consumer edges, residual joins, and the real ResNet-50 topology
//!   ([`graph::resnet50_graph`]).
//! * [`fingerprint`] — the FNV-1a hash behind plan and program fingerprints.
//! * [`energy`] — per-action energy constants used by the cost models.
//! * [`tensor`] — dense INT8/INT32 tensors and reference conv/GEMM kernels.
//!
//! # Example
//!
//! ```
//! use feather_arch::workload::ConvLayer;
//! use feather_arch::layout::Layout;
//!
//! // ResNet-50 layer 1: 3 input channels, 224x224, 7x7 kernel, stride 2.
//! let layer = ConvLayer::new(1, 64, 3, 224, 224, 7, 7).with_stride(2).with_padding(3);
//! assert_eq!(layer.output_height(), 112);
//!
//! // The channel-last layout from Fig. 3 of the paper.
//! let layout: Layout = "HWC_W2C3".parse().unwrap();
//! assert_eq!(layout.to_string(), "HWC_W2C3");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataflow;
pub mod dims;
pub mod energy;
pub mod error;
pub mod fabric;
pub mod fingerprint;
pub mod graph;
pub mod layout;
pub mod models;
pub mod tensor;
pub mod workload;

pub use dataflow::{Dataflow, ParallelDim};
pub use dims::{DataType, Dim};
pub use error::ArchError;
pub use graph::{Graph, GraphSegment, Node, NodeId, NodeOp, TensorId};
pub use layout::Layout;
pub use workload::{ConvLayer, GemmLayer, Workload};

/// Convenience result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, ArchError>;
