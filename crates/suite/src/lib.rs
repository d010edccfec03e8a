//! # feather-suite
//!
//! Umbrella crate that owns the repository-level integration tests
//! (`tests/` at the workspace root) and the runnable examples
//! (`examples/` at the workspace root). It re-exports the public crates of
//! the workspace so a single `use feather_suite::*;` pulls the whole
//! reproduction into scope — handy for scratch binaries and doctests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use feather;
pub use feather_arch;
pub use feather_baselines;
pub use feather_birrd;
pub use feather_memsim;
pub use layoutloop;

/// Workspace-level sanity check used by the cross-crate smoke tests: runs a
/// tiny convolution through the functional simulator and compares it against
/// the golden reference kernel.
///
/// ```
/// assert!(feather_suite::functional_smoke());
/// ```
pub fn functional_smoke() -> bool {
    use feather::{Feather, FeatherConfig, LayerMapping};
    use feather_arch::tensor::{conv2d_reference, Tensor4};
    use feather_arch::workload::ConvLayer;

    let layer = ConvLayer::new(1, 4, 4, 4, 4, 3, 3).with_padding(1);
    let iacts = Tensor4::random([1, 4, 4, 4], 7);
    let weights = Tensor4::random([4, 4, 3, 3], 8);
    let cfg = FeatherConfig::new(4, 4);
    let Ok(mapping) = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", "MPQ_Q4") else {
        return false;
    };
    let mut acc = Feather::new(cfg);
    let run = match acc.execute_conv(&layer, &mapping, &iacts, &weights) {
        Ok(run) => run,
        Err(_) => return false,
    };
    let golden = match conv2d_reference(&layer, &iacts, &weights) {
        Ok(golden) => golden,
        Err(_) => return false,
    };
    run.oacts == golden
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        assert!(super::functional_smoke());
    }
}
