//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures. Each binary prints a plain-text table with the same
//! rows/series the paper reports; each binary's module docs name the figure
//! or table it regenerates and the shape to expect.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use feather_arch::models::Network;
use feather_arch::workload::Workload;

/// Returns `true` when the `FEATHER_FULL` environment variable asks for the
/// full (slow) sweep instead of the representative subset.
pub fn full_sweep() -> bool {
    std::env::var("FEATHER_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// A representative subset of a network's layers for quick runs: every
/// `stride`-th layer. With [`full_sweep`] enabled, returns all layers.
pub fn layer_subset(network: &Network, stride: usize) -> Vec<Workload> {
    if full_sweep() {
        network.layers.clone()
    } else {
        network
            .layers
            .iter()
            .step_by(stride.max(1))
            .cloned()
            .collect()
    }
}

/// Prints a simple aligned table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feather_arch::models::resnet50;

    #[test]
    fn layer_subset_strides() {
        let net = resnet50();
        let subset = layer_subset(&net, 10);
        assert!(subset.len() < net.len());
        assert!(!subset.is_empty());
    }
}
