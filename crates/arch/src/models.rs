//! DNN model zoo used by the paper's evaluation: ResNet-50 and MobileNet-V3
//! (edge workloads), BERT-base (cloud workload).
//!
//! Layer shapes follow the standard published architectures. AvgPool / FC
//! layers are included as their convolution/GEMM lowerings, matching how
//! FEATHER executes them (§III-A: "AvgPooling layers are transformed into
//! convolution operations").

use crate::graph::{resnet50_graph, NodeOp};
use crate::workload::{ConvLayer, GemmLayer, Workload};

/// A named network: an ordered list of layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    /// Model name (e.g. `"resnet50"`).
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Workload>,
}

impl Network {
    /// Creates a network from a layer list.
    pub fn new(name: impl Into<String>, layers: Vec<Workload>) -> Self {
        Network {
            name: name.into(),
            layers,
        }
    }

    /// Total MAC count of the whole network.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Workload> {
        self.layers.iter()
    }

    /// Only the convolution layers (used by the FPGA-style per-layer sweeps).
    pub fn conv_layers(&self) -> Vec<&ConvLayer> {
        self.layers
            .iter()
            .filter_map(|w| w.as_conv_layer())
            .collect()
    }
}

impl<'a> IntoIterator for &'a Network {
    type Item = &'a Workload;
    type IntoIter = std::slice::Iter<'a, Workload>;

    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

fn conv(
    name: String,
    m: usize,
    c: usize,
    hw: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Workload {
    ConvLayer::new(1, m, c, hw, hw, k, k)
        .with_stride(stride)
        .with_padding(padding)
        .with_name(name)
        .into()
}

fn depthwise(name: String, c: usize, hw: usize, k: usize, stride: usize) -> Workload {
    ConvLayer::new(1, c, c, hw, hw, k, k)
        .with_stride(stride)
        .with_padding(k / 2)
        .with_name(name)
        .depthwise()
        .into()
}

/// ResNet-50 (ImageNet, batch 1): the 53 convolution layers plus the final FC
/// lowered to a GEMM, in execution order — the `Conv` and `Gemm` nodes of
/// [`resnet50_graph`], without its two pooling lowerings and 16 residual
/// adds. Layer indices match the usual torchvision enumeration (conv1 =
/// layer 0).
pub fn resnet50() -> Network {
    let layers = resnet50_graph()
        .nodes()
        .iter()
        .filter_map(|node| match &node.op {
            NodeOp::Conv(conv) => Some(conv.clone().into()),
            NodeOp::Gemm(gemm) => Some(gemm.clone().into()),
            NodeOp::PoolAsConv(_) | NodeOp::Add => None,
        })
        .collect();
    Network::new("resnet50", layers)
}

/// MobileNet-V3-Large (ImageNet, batch 1): expansion / depthwise / projection
/// convolutions of every bottleneck block plus the head.
pub fn mobilenet_v3() -> Network {
    // (kernel, expansion, out, stride) per bneck block; input resolution and
    // channels tracked as we go. Standard MobileNetV3-Large table.
    let blocks: [(usize, usize, usize, usize); 15] = [
        (3, 16, 16, 1),
        (3, 64, 24, 2),
        (3, 72, 24, 1),
        (5, 72, 40, 2),
        (5, 120, 40, 1),
        (5, 120, 40, 1),
        (3, 240, 80, 2),
        (3, 200, 80, 1),
        (3, 184, 80, 1),
        (3, 184, 80, 1),
        (3, 480, 112, 1),
        (3, 672, 112, 1),
        (5, 672, 160, 2),
        (5, 960, 160, 1),
        (5, 960, 160, 1),
    ];

    let mut layers = Vec::new();
    let mut idx = 0usize;

    // Stem: 3x3/2, 16 filters.
    layers.push(conv(format!("mobv3_l{idx:02}_stem"), 16, 3, 224, 3, 2, 1));
    idx += 1;

    let mut channels = 16usize;
    let mut spatial = 112usize;
    for (block_i, &(k, exp, out, stride)) in blocks.iter().enumerate() {
        if exp != channels {
            layers.push(conv(
                format!("mobv3_l{idx:02}_b{block_i}_expand"),
                exp,
                channels,
                spatial,
                1,
                1,
                0,
            ));
            idx += 1;
        }
        layers.push(depthwise(
            format!("mobv3_l{idx:02}_b{block_i}_dw{k}x{k}"),
            exp,
            spatial,
            k,
            stride,
        ));
        idx += 1;
        spatial /= stride;
        layers.push(conv(
            format!("mobv3_l{idx:02}_b{block_i}_project"),
            out,
            exp,
            spatial,
            1,
            1,
            0,
        ));
        idx += 1;
        channels = out;
    }

    // Head: 1x1 to 960, then the classifier GEMMs (960→1280→1000).
    layers.push(conv(
        format!("mobv3_l{idx:02}_head_1x1"),
        960,
        channels,
        spatial,
        1,
        1,
        0,
    ));
    idx += 1;
    layers.push(
        GemmLayer::new(1, 960, 1280)
            .with_name(format!("mobv3_l{idx:02}_fc1"))
            .into(),
    );
    idx += 1;
    layers.push(
        GemmLayer::new(1, 1280, 1000)
            .with_name(format!("mobv3_l{idx:02}_fc2"))
            .into(),
    );

    Network::new("mobilenet_v3", layers)
}

/// BERT-base encoder GEMMs for one layer, replicated `num_layers` times
/// (default 12), sequence length 512, hidden 768, 12 heads, FFN 3072.
pub fn bert_base() -> Network {
    bert(12, 512, 768, 12, 3072)
}

/// Parameterized BERT encoder GEMM workload.
pub fn bert(num_layers: usize, seq_len: usize, hidden: usize, heads: usize, ffn: usize) -> Network {
    let head_dim = hidden / heads;
    let mut layers = Vec::new();
    for l in 0..num_layers {
        // Q, K, V projections.
        for name in ["q_proj", "k_proj", "v_proj"] {
            layers.push(
                GemmLayer::new(seq_len, hidden, hidden)
                    .with_name(format!("bert_l{l:02}_{name}"))
                    .into(),
            );
        }
        // Attention scores and context (per head, folded into one GEMM each
        // with the head count in the K/N dims kept explicit via names).
        for h in 0..heads {
            layers.push(
                GemmLayer::new(seq_len, head_dim, seq_len)
                    .with_name(format!("bert_l{l:02}_attn_scores_h{h:02}"))
                    .into(),
            );
            layers.push(
                GemmLayer::new(seq_len, seq_len, head_dim)
                    .with_name(format!("bert_l{l:02}_attn_context_h{h:02}"))
                    .into(),
            );
        }
        // Output projection and FFN.
        layers.push(
            GemmLayer::new(seq_len, hidden, hidden)
                .with_name(format!("bert_l{l:02}_out_proj"))
                .into(),
        );
        layers.push(
            GemmLayer::new(seq_len, hidden, ffn)
                .with_name(format!("bert_l{l:02}_ffn_up"))
                .into(),
        );
        layers.push(
            GemmLayer::new(seq_len, ffn, hidden)
                .with_name(format!("bert_l{l:02}_ffn_down"))
                .into(),
        );
    }
    Network::new("bert", layers)
}

/// The three evaluation workloads of Fig. 13: BERT, ResNet-50, MobileNet-V3.
pub fn evaluation_suite() -> Vec<Network> {
    vec![bert_base(), resnet50(), mobilenet_v3()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dim;

    #[test]
    fn resnet50_layer_count_and_validity() {
        let net = resnet50();
        // 53 convolutions + 1 FC GEMM.
        assert_eq!(net.conv_layers().len(), 53);
        assert_eq!(net.len(), 54);
        for layer in &net {
            layer.validate().unwrap();
        }
    }

    #[test]
    fn resnet50_macs_in_expected_range() {
        // ResNet-50 is ~4.1 GMACs at 224x224.
        let net = resnet50();
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!(gmacs > 3.5 && gmacs < 4.5, "got {gmacs} GMACs");
    }

    #[test]
    fn resnet50_first_and_deep_layer_shapes_match_fig4() {
        let net = resnet50();
        let l1 = net.conv_layers()[0];
        assert_eq!((l1.c, l1.h, l1.r, l1.stride, l1.padding), (3, 224, 7, 2, 3));
        // A deep layer with many channels and 7x7 spatial exists (Fig. 4 layer 47).
        assert!(net
            .conv_layers()
            .iter()
            .any(|l| l.c >= 512 && l.h == 7 && l.r == 3));
    }

    #[test]
    fn mobilenet_v3_contains_depthwise_layers() {
        let net = mobilenet_v3();
        for layer in &net {
            layer.validate().unwrap();
        }
        let dw = net
            .conv_layers()
            .iter()
            .filter(|l| l.is_depthwise())
            .count();
        assert_eq!(dw, 15);
        // MobileNet-V3-Large is ~0.22 GMACs.
        let gmacs = net.total_macs() as f64 / 1e9;
        assert!(gmacs > 0.15 && gmacs < 0.35, "got {gmacs} GMACs");
    }

    #[test]
    fn bert_base_gemm_shapes() {
        let net = bert_base();
        for layer in &net {
            layer.validate().unwrap();
        }
        // 12 layers × (3 proj + 24 attention + out + 2 ffn) = 12 × 30 = 360 GEMMs.
        assert_eq!(net.len(), 360);
        assert!(net.layers.iter().all(|l| l.as_gemm_layer().is_some()));
        // FFN GEMM has N = 3072.
        assert!(net
            .layers
            .iter()
            .any(|l| l.as_gemm_layer().unwrap().n == 3072));
    }

    #[test]
    fn spatial_sizes_shrink_monotonically_in_resnet_stages() {
        let net = resnet50();
        let convs = net.conv_layers();
        let first = convs.first().unwrap();
        let last = convs.last().unwrap();
        assert!(first.dim(Dim::H) > last.dim(Dim::H));
        assert_eq!(last.dim(Dim::H), 7);
    }

    #[test]
    fn evaluation_suite_has_three_networks() {
        let suite = evaluation_suite();
        assert_eq!(suite.len(), 3);
        let names: Vec<&str> = suite.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"bert"));
        assert!(names.contains(&"resnet50"));
        assert!(names.contains(&"mobilenet_v3"));
    }
}
