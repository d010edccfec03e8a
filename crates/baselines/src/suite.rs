//! The Fig. 13 configuration matrix: every design evaluated in Layoutloop.

use layoutloop::arch::ArchSpec;
use serde::{Deserialize, Serialize};

/// One row of the Fig. 13 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteEntry {
    /// Short label used on the figure's x-axis.
    pub label: String,
    /// The layout policy / reordering mechanism annotation (red text in Fig. 13).
    pub layout_note: String,
    /// The architecture specification.
    pub arch: ArchSpec,
}

impl SuiteEntry {
    fn new(label: &str, layout_note: &str, arch: ArchSpec) -> Self {
        SuiteEntry {
            label: label.to_string(),
            layout_note: layout_note.to_string(),
            arch,
        }
    }
}

/// The designs compared in Fig. 13 for the convolution workloads (ResNet-50,
/// MobileNet-V3). The BERT comparison uses the subset without the SIGMA
/// reordering variants, as in the paper.
pub fn fig13_suite(rows: usize, cols: usize) -> Vec<SuiteEntry> {
    vec![
        SuiteEntry::new("NVDLA-like", "HWC_C32", ArchSpec::nvdla_like(rows, cols)),
        SuiteEntry::new(
            "Eyeriss-like",
            "HWC_C32",
            ArchSpec::eyeriss_like(rows, cols),
        ),
        SuiteEntry::new(
            "SIGMA-like",
            "HWC_C32",
            ArchSpec::sigma_like_fixed_layout(rows, cols, "HWC_C32"),
        ),
        SuiteEntry::new(
            "SIGMA-like",
            "HWC_C4W8",
            ArchSpec::sigma_like_fixed_layout(rows, cols, "HWC_C4W8"),
        ),
        SuiteEntry::new(
            "SIGMA-like",
            "off-chip reorder",
            ArchSpec::sigma_like_offchip_reorder(rows, cols),
        ),
        SuiteEntry::new(
            "Medusa-like",
            "line rotation",
            ArchSpec::medusa_like(rows, cols),
        ),
        SuiteEntry::new("MTIA-like", "Transpose", ArchSpec::mtia_like(rows, cols)),
        SuiteEntry::new("TPU-like", "Trans.+Shuff.", ArchSpec::tpu_like(rows, cols)),
        SuiteEntry::new("FEATHER", "RIR", ArchSpec::feather_like(rows, cols)),
    ]
}

/// The subset of the suite used for the BERT (GEMM) columns of Fig. 13.
pub fn fig13_bert_suite(rows: usize, cols: usize) -> Vec<SuiteEntry> {
    let mut entries = vec![
        SuiteEntry::new("NVDLA-like", "MK_K32", ArchSpec::nvdla_like(rows, cols)),
        SuiteEntry::new("Eyeriss-like", "MK_K32", ArchSpec::eyeriss_like(rows, cols)),
        SuiteEntry::new(
            "SIGMA-like",
            "MK_K32",
            ArchSpec::sigma_like_fixed_layout(rows, cols, "MK_K32"),
        ),
        SuiteEntry::new("FEATHER", "RIR", ArchSpec::feather_like(rows, cols)),
    ];
    // GEMM workloads search the GEMM layout vocabulary.
    for entry in &mut entries {
        if entry.label == "FEATHER" {
            entry.arch.layouts = feather_arch::layout::Layout::gemm_candidates();
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_suite_has_nine_designs_matching_fig13() {
        let suite = fig13_suite(16, 16);
        assert_eq!(suite.len(), 9);
        assert_eq!(suite.last().unwrap().label, "FEATHER");
        // Two SIGMA fixed-layout variants with different layouts.
        let sigma_fixed: Vec<_> = suite
            .iter()
            .filter(|e| e.label == "SIGMA-like" && !e.layout_note.contains("reorder"))
            .collect();
        assert_eq!(sigma_fixed.len(), 2);
        assert_ne!(sigma_fixed[0].layout_note, sigma_fixed[1].layout_note);
    }

    #[test]
    fn bert_suite_uses_gemm_layouts() {
        let suite = fig13_bert_suite(16, 16);
        assert_eq!(suite.len(), 4);
        let feather = suite.last().unwrap();
        assert_eq!(feather.arch.layouts.len(), 3);
    }

    #[test]
    fn all_entries_have_distinct_arch_names_or_layouts() {
        let suite = fig13_suite(16, 16);
        let mut keys = std::collections::BTreeSet::new();
        for e in &suite {
            assert!(keys.insert(format!("{}|{}", e.label, e.layout_note)));
        }
    }
}
