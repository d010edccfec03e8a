//! Tensor-DAG model IR: the graph form of a DNN that FEATHER's network-level
//! executor schedules.
//!
//! A flat layer list ([`crate::models::Network`]) cannot represent branches or
//! residual joins, so e.g. ResNet shortcut adds are silently dropped by its
//! shape-based chaining. [`Graph`] fixes that: every value is a [`TensorId`]
//! with an explicit producer, every [`Node`] names its input tensors, and
//! multi-consumer tensors model the fan-out at a shortcut branch. The builder
//! methods type-check shapes as the graph grows, so a constructed graph is a
//! valid DAG by construction (nodes can only consume tensors that already
//! exist, hence insertion order is a topological order).
//!
//! Node kinds follow how FEATHER executes models (§III-A of the paper):
//! convolutions run natively, GEMMs and average-pooling layers are lowered to
//! convolutions ([`GemmLayer::as_activation_conv`], [`Graph::avgpool_as_conv`])
//! and element-wise residual adds join two equal-shape tensors.
//!
//! [`Graph::segments`] partitions the conv-like nodes into maximal linear
//! chains (the units a ping/pong pipeline executor runs back-to-back);
//! [`resnet50_graph`] builds the real ResNet-50 topology including all 16
//! shortcut adds that the flat model drops.
//!
//! # Example
//!
//! ```
//! use feather_arch::graph::Graph;
//! use feather_arch::workload::ConvLayer;
//!
//! // A two-branch block: conv → (identity + conv) → add.
//! let mut g = Graph::new("toy", [1, 4, 8, 8]);
//! let t0 = g
//!     .conv(g.input(), ConvLayer::new(1, 4, 4, 8, 8, 3, 3).with_padding(1).with_name("a"))
//!     .unwrap();
//! let branch = g
//!     .conv(t0, ConvLayer::new(1, 4, 4, 8, 8, 1, 1).with_name("b"))
//!     .unwrap();
//! let joined = g.add(t0, branch, "join").unwrap();
//! assert_eq!(g.output(), joined);
//! assert_eq!(g.add_node_count(), 1);
//! // `t0` fans out to both the branch conv and the add.
//! assert_eq!(g.consumers(t0).len(), 2);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ArchError;
use crate::tensor::Tensor4;
use crate::workload::{ConvLayer, GemmLayer};

/// Identifier of one value (tensor) flowing through a [`Graph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TensorId(pub usize);

impl fmt::Display for TensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of one operation node in a [`Graph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The operation a [`Node`] performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeOp {
    /// A convolution executed natively.
    Conv(ConvLayer),
    /// A GEMM, executed through its activation-streaming convolution lowering
    /// ([`GemmLayer::as_activation_conv`]).
    Gemm(GemmLayer),
    /// A pooling layer lowered to a convolution (§III-A: "AvgPooling layers
    /// are transformed into convolution operations"). The executor synthesizes
    /// the all-ones depthwise window weights itself — pooling has no learned
    /// parameters and pays no weight DRAM traffic.
    PoolAsConv(ConvLayer),
    /// Element-wise residual add of two equal-shape tensors, performed on the
    /// quantized INT8 values at a join point.
    Add,
}

impl NodeOp {
    /// Short kind label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            NodeOp::Conv(_) => "conv",
            NodeOp::Gemm(_) => "gemm",
            NodeOp::PoolAsConv(_) => "pool",
            NodeOp::Add => "add",
        }
    }

    /// Returns `true` for the join (residual add) operation.
    pub fn is_add(&self) -> bool {
        matches!(self, NodeOp::Add)
    }
}

/// One operation in a [`Graph`]: an op plus its input/output tensor wiring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// This node's id (its index in [`Graph::nodes`]).
    pub id: NodeId,
    /// Human-readable name (used in reports).
    pub name: String,
    /// The operation.
    pub op: NodeOp,
    /// Input tensors: one for conv/gemm/pool, two for add.
    pub inputs: Vec<TensorId>,
    /// The tensor this node produces.
    pub output: TensorId,
}

impl Node {
    /// The convolution this node executes as, named after the node: native
    /// convs and pool lowerings as-is, GEMMs through
    /// [`GemmLayer::as_activation_conv`]. `None` for add joins, which are not
    /// array workloads.
    pub fn execution_conv(&self) -> Option<ConvLayer> {
        match &self.op {
            NodeOp::Conv(c) | NodeOp::PoolAsConv(c) => Some(c.clone()),
            NodeOp::Gemm(g) => Some(g.as_activation_conv().with_name(self.name.clone())),
            NodeOp::Add => None,
        }
    }

    /// Shape of the weight tensor the executor must be given for this node,
    /// or `None` when the node carries no learned weights (adds, and pool
    /// lowerings whose window weights the executor synthesizes).
    pub fn weight_shape(&self) -> Option<[usize; 4]> {
        match &self.op {
            NodeOp::Conv(c) => Some(if c.is_depthwise() {
                [c.c, 1, c.r, c.s]
            } else {
                [c.m, c.c, c.r, c.s]
            }),
            NodeOp::Gemm(g) => Some([g.n, g.k, 1, 1]),
            NodeOp::PoolAsConv(_) | NodeOp::Add => None,
        }
    }

    /// Returns `true` if this node executes on the PE array (everything but
    /// the add join).
    pub fn is_conv_like(&self) -> bool {
        !self.op.is_add()
    }
}

/// A maximal linear run of conv-like nodes: every node's output is consumed
/// only by the next node in the run, and consecutive execution convolutions
/// chain shape-wise ([`ConvLayer::chains_into`]). Segments are the unit a
/// ping/pong pipeline executor runs back-to-back without touching DRAM;
/// branch fan-outs and add joins always fall on segment boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSegment {
    /// Node ids in execution order.
    pub nodes: Vec<NodeId>,
    /// The tensor the first node reads.
    pub input: TensorId,
    /// The tensor the last node produces.
    pub output: TensorId,
}

/// A DNN model as a tensor DAG. See the [module docs](self) for the contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    /// Model name (e.g. `"resnet50"`).
    pub name: String,
    nodes: Vec<Node>,
    /// Shape of every tensor, indexed by [`TensorId`], in `(N, C, H, W)`
    /// activation order (a producer's `(N, M, P, Q)` output reinterpreted).
    tensors: Vec<[usize; 4]>,
    input: TensorId,
}

impl Graph {
    /// Creates an empty graph whose input tensor has the given
    /// `(N, C, H, W)` shape.
    pub fn new(name: impl Into<String>, input_shape: [usize; 4]) -> Self {
        Graph {
            name: name.into(),
            nodes: Vec::new(),
            tensors: vec![input_shape],
            input: TensorId(0),
        }
    }

    /// The graph's input tensor.
    pub fn input(&self) -> TensorId {
        self.input
    }

    /// The graph's output tensor: the last node's output (the input tensor
    /// for an empty graph).
    pub fn output(&self) -> TensorId {
        self.nodes.last().map(|n| n.output).unwrap_or(self.input)
    }

    /// Shape of a tensor in `(N, C, H, W)` order.
    pub fn tensor_shape(&self, t: TensorId) -> [usize; 4] {
        self.tensors[t.0]
    }

    /// All nodes, in insertion order — which is a topological order, because
    /// the builder only lets a node consume already-existing tensors.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes consuming a tensor, in topological order.
    pub fn consumers(&self, t: TensorId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&t))
            .map(|n| n.id)
            .collect()
    }

    /// The node producing a tensor (`None` for the graph input).
    pub fn producer(&self, t: TensorId) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.output == t).map(|n| n.id)
    }

    fn push_node(
        &mut self,
        name: String,
        op: NodeOp,
        inputs: Vec<TensorId>,
        out_shape: [usize; 4],
    ) -> TensorId {
        let output = TensorId(self.tensors.len());
        self.tensors.push(out_shape);
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name,
            op,
            inputs,
            output,
        });
        output
    }

    fn check_tensor(&self, t: TensorId) -> Result<(), ArchError> {
        if t.0 >= self.tensors.len() {
            return Err(ArchError::InvalidWorkload(format!(
                "tensor {t} does not exist in graph `{}`",
                self.name
            )));
        }
        Ok(())
    }

    /// Appends a convolution node consuming `src`.
    ///
    /// # Errors
    /// Returns an error if the layer is invalid or `src`'s shape is not the
    /// layer's `(N, C, H, W)` input shape.
    pub fn conv(&mut self, src: TensorId, layer: ConvLayer) -> Result<TensorId, ArchError> {
        self.check_tensor(src)?;
        layer.validate()?;
        let expected = [layer.n, layer.c, layer.h, layer.w];
        if self.tensor_shape(src) != expected {
            return Err(ArchError::ShapeMismatch(format!(
                "conv `{}` expects input {:?} but tensor {src} has shape {:?}",
                layer.name,
                expected,
                self.tensor_shape(src)
            )));
        }
        let out = [
            layer.n,
            layer.m,
            layer.output_height(),
            layer.output_width(),
        ];
        let name = layer.name.clone();
        Ok(self.push_node(name, NodeOp::Conv(layer), vec![src], out))
    }

    /// Appends a GEMM node consuming `src` as the streaming `A` operand of
    /// its convolution lowering: `src` must have shape `(1, K, 1, M)`.
    ///
    /// # Errors
    /// Returns an error if the GEMM is invalid or `src`'s shape does not match.
    pub fn gemm(&mut self, src: TensorId, layer: GemmLayer) -> Result<TensorId, ArchError> {
        self.check_tensor(src)?;
        layer.validate()?;
        let expected = [1, layer.k, 1, layer.m];
        if self.tensor_shape(src) != expected {
            return Err(ArchError::ShapeMismatch(format!(
                "gemm `{}` expects input {:?} (the (1, K, 1, M) lowering) but tensor {src} has shape {:?}",
                layer.name,
                expected,
                self.tensor_shape(src)
            )));
        }
        let conv = layer.as_activation_conv();
        let out = [1, conv.m, 1, conv.output_width()];
        let name = layer.name.clone();
        Ok(self.push_node(name, NodeOp::Gemm(layer), vec![src], out))
    }

    /// Appends an average-pooling node as its depthwise-convolution lowering
    /// (§III-A): a `window × window` all-ones filter per channel, whose `1/w²`
    /// scaling folds into the boundary quantization shift.
    ///
    /// # Errors
    /// Returns an error if the lowered convolution is invalid for `src`.
    pub fn avgpool_as_conv(
        &mut self,
        src: TensorId,
        window: usize,
        stride: usize,
        padding: usize,
        name: impl Into<String>,
    ) -> Result<TensorId, ArchError> {
        self.check_tensor(src)?;
        let name = name.into();
        let [n, c, h, w] = self.tensor_shape(src);
        let layer = ConvLayer::new(n, c, c, h, w, window, window)
            .with_stride(stride)
            .with_padding(padding)
            .with_name(name.clone())
            .depthwise();
        layer.validate()?;
        let out = [n, c, layer.output_height(), layer.output_width()];
        Ok(self.push_node(name, NodeOp::PoolAsConv(layer), vec![src], out))
    }

    /// Appends a residual add joining two equal-shape tensors.
    ///
    /// # Errors
    /// Returns an error if the shapes differ.
    pub fn add(
        &mut self,
        a: TensorId,
        b: TensorId,
        name: impl Into<String>,
    ) -> Result<TensorId, ArchError> {
        self.check_tensor(a)?;
        self.check_tensor(b)?;
        let (sa, sb) = (self.tensor_shape(a), self.tensor_shape(b));
        if sa != sb {
            return Err(ArchError::ShapeMismatch(format!(
                "residual add `{}` joins mismatched shapes {sa:?} and {sb:?}",
                name.into()
            )));
        }
        Ok(self.push_node(name.into(), NodeOp::Add, vec![a, b], sa))
    }

    /// Builds a linear (chain) graph from consecutive convolution layers.
    ///
    /// # Errors
    /// Returns an error if a layer is invalid or consecutive layers do not
    /// chain shape-wise.
    pub fn linear(name: impl Into<String>, layers: &[ConvLayer]) -> Result<Graph, ArchError> {
        let name = name.into();
        let first = layers.first().ok_or_else(|| {
            ArchError::InvalidWorkload(format!("linear graph `{name}` needs at least one layer"))
        })?;
        let mut g = Graph::new(name, [first.n, first.c, first.h, first.w]);
        let mut cur = g.input();
        for layer in layers {
            cur = g.conv(cur, layer.clone())?;
        }
        Ok(g)
    }

    /// Validates the whole graph: every node's op is valid, wiring shapes
    /// match (re-checked — fields are public via [`Graph::nodes`] clones),
    /// and every non-output tensor is consumed by someone.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ArchError> {
        for node in &self.nodes {
            if let Some(conv) = node.execution_conv() {
                conv.validate()?;
                let src = self.tensor_shape(node.inputs[0]);
                if src != [conv.n, conv.c, conv.h, conv.w] {
                    return Err(ArchError::ShapeMismatch(format!(
                        "node `{}` reads {:?} but executes as {conv}",
                        node.name, src
                    )));
                }
            } else {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                if self.tensor_shape(a) != self.tensor_shape(b) {
                    return Err(ArchError::ShapeMismatch(format!(
                        "add `{}` joins mismatched shapes",
                        node.name
                    )));
                }
            }
        }
        let output = self.output();
        for t in 0..self.tensors.len() {
            let t = TensorId(t);
            if t != output && self.consumers(t).is_empty() {
                return Err(ArchError::InvalidWorkload(format!(
                    "tensor {t} of graph `{}` is produced but never consumed",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// Total MAC count over all conv-like nodes (adds contribute none).
    pub fn total_macs(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| n.execution_conv())
            .map(|c| c.macs())
            .sum()
    }

    /// Number of native convolution nodes (excluding pool lowerings).
    pub fn conv_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Conv(_)))
            .count()
    }

    /// Number of residual-add join nodes.
    pub fn add_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_add()).count()
    }

    /// Number of pooling-as-convolution nodes.
    pub fn pool_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::PoolAsConv(_)))
            .count()
    }

    /// Number of GEMM nodes.
    pub fn gemm_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Gemm(_)))
            .count()
    }

    /// Random INT8 weights for every node that needs them
    /// ([`Node::weight_shape`]), keyed by node id — convenience for examples,
    /// benches and equivalence tests.
    pub fn random_weights(&self, seed: u64) -> BTreeMap<NodeId, Tensor4<i8>> {
        self.nodes
            .iter()
            .filter_map(|n| {
                n.weight_shape()
                    .map(|shape| (n.id, Tensor4::random(shape, seed + n.id.0 as u64)))
            })
            .collect()
    }

    /// Partitions the conv-like nodes into maximal linear segments (see
    /// [`GraphSegment`]), in topological order. Every conv-like node lands in
    /// exactly one segment; add joins belong to none.
    pub fn segments(&self) -> Vec<GraphSegment> {
        let mut assigned = vec![false; self.nodes.len()];
        let mut segments = Vec::new();
        for node in &self.nodes {
            if !node.is_conv_like() || assigned[node.id.0] {
                continue;
            }
            // `node` is unassigned, and we visit in topological order, so it
            // must be a segment head: had a predecessor chained into it, the
            // walk from that predecessor's head would have assigned it.
            let mut run = vec![node.id];
            assigned[node.id.0] = true;
            let mut cur = node;
            loop {
                let consumers = self.consumers(cur.output);
                let [next_id] = consumers[..] else { break };
                let next = self.node(next_id);
                if !next.is_conv_like() || assigned[next_id.0] {
                    break;
                }
                let (a, b) = (
                    cur.execution_conv().expect("conv-like"),
                    next.execution_conv().expect("conv-like"),
                );
                if !a.chains_into(&b) {
                    break;
                }
                run.push(next_id);
                assigned[next_id.0] = true;
                cur = next;
            }
            segments.push(GraphSegment {
                input: self.node(run[0]).inputs[0],
                output: self.node(*run.last().expect("non-empty run")).output,
                nodes: run,
            });
        }
        segments
    }
}

fn scaled(v: usize, div: usize) -> usize {
    (v / div).max(1)
}

/// The full ResNet-50 tensor DAG: all 53 convolutions, both pooling layers as
/// their convolution lowerings, the FC GEMM, and — unlike the flat
/// [`crate::models::resnet50`] list — all 16 residual shortcut adds with the
/// real identity/projection topology. Convolution names and `l{idx}` numbering
/// match the flat model layer for layer.
pub fn resnet50_graph() -> Graph {
    resnet50_graph_scaled(1, 1)
}

/// [`resnet50_graph`] with every channel count divided by `channel_div` and
/// the input resolution divided by `spatial_div` (both floored at 1, input
/// channels kept at 3). The topology — 53 convs, 16 adds, 2 pools, 1 GEMM —
/// is preserved exactly; spatial extents follow the convolution arithmetic of
/// the scaled input. Used to keep full-graph *functional* simulation fast;
/// `(1, 1)` is the true network.
///
/// # Panics
/// Panics if `spatial_div` does not divide 224 or is larger than 16 (the
/// spatial extents degenerate below 14×14 input).
pub fn resnet50_graph_scaled(channel_div: usize, spatial_div: usize) -> Graph {
    assert!(
        (1..=16).contains(&spatial_div) && 224 % spatial_div == 0,
        "spatial_div must divide 224 and be at most 16, got {spatial_div}"
    );
    let ch = |c: usize| scaled(c, channel_div);
    let sp = 224 / spatial_div;
    let suffix = if channel_div == 1 && spatial_div == 1 {
        String::new()
    } else {
        format!("@c/{channel_div},s/{spatial_div}")
    };
    let mut g = Graph::new(format!("resnet50{suffix}"), [1, 3, sp, sp]);
    let mut idx = 0usize;

    // conv1: 7x7/2, 64 filters on 3×sp×sp.
    let mut cur = g
        .conv(
            g.input(),
            ConvLayer::new(1, ch(64), 3, sp, sp, 7, 7)
                .with_stride(2)
                .with_padding(3)
                .with_name(format!("resnet50_l{idx:02}_conv1")),
        )
        .expect("conv1 is valid");
    idx += 1;
    // Stem pool: 3x3/2 (the paper's pooling-as-convolution lowering).
    cur = g
        .avgpool_as_conv(cur, 3, 2, 1, "resnet50_stem_pool")
        .expect("stem pool is valid");

    // Bottleneck stages: (num_blocks, mid_channels, out_channels, stage_stride).
    let stages = [
        (3usize, 64usize, 256usize, 1usize),
        (4, 128, 512, 2),
        (6, 256, 1024, 2),
        (3, 512, 2048, 2),
    ];
    let mut in_channels = ch(64);
    for (stage_i, &(blocks, mid0, out0, stage_stride)) in stages.iter().enumerate() {
        let (mid, out) = (ch(mid0), ch(out0));
        for block in 0..blocks {
            let stride = if block == 0 { stage_stride } else { 1 };
            let block_input = cur;
            let [_, _, h, w] = g.tensor_shape(block_input);
            // Main path: 1x1 reduce → 3x3 (carries the stride) → 1x1 expand.
            cur = g
                .conv(
                    block_input,
                    ConvLayer::new(1, mid, in_channels, h, w, 1, 1)
                        .with_name(format!("resnet50_l{idx:02}_s{stage_i}b{block}_1x1a")),
                )
                .expect("1x1a is valid");
            idx += 1;
            cur = g
                .conv(
                    cur,
                    ConvLayer::new(1, mid, mid, h, w, 3, 3)
                        .with_stride(stride)
                        .with_padding(1)
                        .with_name(format!("resnet50_l{idx:02}_s{stage_i}b{block}_3x3")),
                )
                .expect("3x3 is valid");
            idx += 1;
            let [_, _, ph, pw] = g.tensor_shape(cur);
            cur = g
                .conv(
                    cur,
                    ConvLayer::new(1, out, mid, ph, pw, 1, 1)
                        .with_name(format!("resnet50_l{idx:02}_s{stage_i}b{block}_1x1b")),
                )
                .expect("1x1b is valid");
            idx += 1;
            // Shortcut: projection conv on the first block of a stage,
            // identity fan-out of the block input otherwise.
            let shortcut = if block == 0 {
                let proj = g
                    .conv(
                        block_input,
                        ConvLayer::new(1, out, in_channels, h, w, 1, 1)
                            .with_stride(stride)
                            .with_name(format!("resnet50_l{idx:02}_s{stage_i}b{block}_proj")),
                    )
                    .expect("projection shortcut is valid");
                idx += 1;
                proj
            } else {
                block_input
            };
            cur = g
                .add(cur, shortcut, format!("resnet50_s{stage_i}b{block}_add"))
                .expect("residual shapes match");
            in_channels = out;
        }
    }

    // Head: global average pool (window = remaining spatial extent) then the
    // FC classifier as a GEMM.
    let [_, _, h, _] = g.tensor_shape(cur);
    cur = g
        .avgpool_as_conv(cur, h, 1, 0, "resnet50_head_pool")
        .expect("head pool is valid");
    g.gemm(
        cur,
        GemmLayer::new(1, ch(2048), ch(1000)).with_name(format!("resnet50_l{idx:02}_fc")),
    )
    .expect("fc is valid");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn resnet50_graph_has_full_topology() {
        let g = resnet50_graph();
        g.validate().unwrap();
        assert_eq!(g.conv_node_count(), 53);
        assert_eq!(g.add_node_count(), 16);
        assert_eq!(g.pool_node_count(), 2);
        assert_eq!(g.gemm_node_count(), 1);
        assert_eq!(g.len(), 53 + 16 + 2 + 1);
    }

    #[test]
    fn resnet50_graph_convs_match_flat_model() {
        // The 53 convolution nodes are layer-for-layer the flat model's
        // convolutions (same names, same shapes) — the graph only *adds* the
        // pooling lowerings and the joins the flat list cannot express.
        let g = resnet50_graph();
        let flat = models::resnet50();
        let flat_convs: BTreeMap<&str, &ConvLayer> =
            flat.layers.iter().map(|c| (c.name.as_str(), c)).collect();
        let mut matched = 0;
        for node in g.nodes() {
            if let NodeOp::Conv(c) = &node.op {
                let flat = flat_convs
                    .get(c.name.as_str())
                    .unwrap_or_else(|| panic!("flat model is missing `{}`", c.name));
                assert_eq!(*flat, c, "`{}` diverges from the flat model", c.name);
                matched += 1;
            }
        }
        assert_eq!(matched, 53);
    }

    #[test]
    fn resnet50_graph_macs_match_flat_conv_macs() {
        let g = resnet50_graph();
        let flat_macs = models::resnet50().total_macs();
        let graph_conv_macs: u64 = g
            .nodes()
            .iter()
            .filter_map(|n| match &n.op {
                NodeOp::Conv(c) => Some(c.macs()),
                NodeOp::Gemm(gemm) => Some(gemm.macs()),
                _ => None,
            })
            .sum();
        assert_eq!(graph_conv_macs, flat_macs);
        // The pools only add on top.
        assert!(g.total_macs() > flat_macs);
    }

    #[test]
    fn resnet50_graph_segments_cover_all_conv_like_nodes() {
        let g = resnet50_graph();
        let segments = g.segments();
        let covered: usize = segments.iter().map(|s| s.nodes.len()).sum();
        let conv_like = g.nodes().iter().filter(|n| n.is_conv_like()).count();
        assert_eq!(covered, conv_like);
        // conv1+pool, 16 main paths, 4 projections, avgpool+fc.
        assert_eq!(segments.len(), 1 + 16 + 4 + 1);
        // Within a segment consecutive execution convs chain.
        for seg in &segments {
            for pair in seg.nodes.windows(2) {
                let a = g.node(pair[0]).execution_conv().unwrap();
                let b = g.node(pair[1]).execution_conv().unwrap();
                assert!(a.chains_into(&b), "{} !-> {}", a, b);
            }
        }
        // The stem segment is conv1 + pool; the head segment pool + fc.
        assert_eq!(segments[0].nodes.len(), 2);
        assert_eq!(segments.last().unwrap().nodes.len(), 2);
    }

    #[test]
    fn scaled_graph_preserves_topology() {
        let g = resnet50_graph_scaled(8, 8);
        g.validate().unwrap();
        assert_eq!(g.conv_node_count(), 53);
        assert_eq!(g.add_node_count(), 16);
        assert_eq!(g.segments().len(), 22);
        assert!(g.total_macs() < resnet50_graph().total_macs() / 1000);
        // Weight map covers exactly the conv + gemm nodes.
        let weights = g.random_weights(1);
        assert_eq!(weights.len(), 53 + 1);
    }

    #[test]
    fn identity_shortcut_tensor_fans_out() {
        let g = resnet50_graph_scaled(16, 16);
        // An identity block's input feeds both the next 1x1a and the add.
        // Tensor ids cover every node output *plus* the graph input.
        let fan_outs = (0..=g.nodes().len())
            .map(TensorId)
            .filter(|&t| g.consumers(t).len() >= 2)
            .count();
        // 16 block inputs branch (12 identity fan-outs + 4 projection splits).
        assert_eq!(fan_outs, 16);
    }

    #[test]
    fn builder_rejects_shape_mismatches() {
        let mut g = Graph::new("bad", [1, 4, 8, 8]);
        // Wrong channel count.
        assert!(g
            .conv(g.input(), ConvLayer::new(1, 4, 8, 8, 8, 1, 1))
            .is_err());
        let t = g
            .conv(
                g.input(),
                ConvLayer::new(1, 8, 4, 8, 8, 1, 1).with_name("ok"),
            )
            .unwrap();
        // Add of mismatched shapes.
        assert!(g.add(t, g.input(), "bad_add").is_err());
        // Unknown tensor id.
        assert!(g.add(t, TensorId(99), "missing").is_err());
    }

    #[test]
    fn linear_graph_is_one_segment() {
        let layers = vec![
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("a"),
            ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b"),
        ];
        let g = Graph::linear("chain", &layers).unwrap();
        g.validate().unwrap();
        let segs = g.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].nodes.len(), 2);
        assert_eq!(segs[0].input, g.input());
        assert_eq!(segs[0].output, g.output());
        // Non-chaining layers are rejected.
        let broken = vec![
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3).with_padding(1),
            ConvLayer::new(1, 8, 16, 6, 6, 1, 1),
        ];
        assert!(Graph::linear("broken", &broken).is_err());
    }

    #[test]
    fn gemm_node_chains_from_pooled_activations() {
        let mut g = Graph::new("head", [1, 16, 4, 4]);
        let pooled = g.avgpool_as_conv(g.input(), 4, 1, 0, "gap").unwrap();
        assert_eq!(g.tensor_shape(pooled), [1, 16, 1, 1]);
        let out = g
            .gemm(pooled, GemmLayer::new(1, 16, 10).with_name("fc"))
            .unwrap();
        assert_eq!(g.tensor_shape(out), [1, 10, 1, 1]);
        // Pool and FC form one segment (the lowered convs chain).
        assert_eq!(g.segments().len(), 1);
    }
}
