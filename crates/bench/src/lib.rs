//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures. Each binary prints a plain-text table with the same
//! rows/series the paper reports; each binary's module docs name the figure
//! or table it regenerates and the shape to expect.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use feather_arch::models::Network;
use feather_arch::workload::Workload;
use layoutloop::arch::ArchSpec;
use layoutloop::cosearch::{co_search_with, CoSearchResult};
use layoutloop::mapper::MapperConfig;

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

/// Runs the per-layer co-search for a design over a list of layers, chaining
/// layouts between consecutive layers, and returns the per-layer results.
pub fn run_design(
    arch: &ArchSpec,
    layers: &[Workload],
    mapper: &MapperConfig,
    seed: u64,
) -> Vec<CoSearchResult> {
    let mut results = Vec::with_capacity(layers.len());
    let mut prev_layout = None;
    for layer in layers {
        match co_search_with(arch, layer, prev_layout.as_ref(), mapper, seed) {
            Ok(r) => {
                prev_layout = Some(r.layout.clone());
                results.push(r);
            }
            Err(e) => {
                eprintln!("warning: {} failed on {}: {e}", arch.name, layer.name());
            }
        }
    }
    results
}

/// Aggregate totals over per-layer co-search results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Total latency in cycles.
    pub cycles: u64,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Total MACs.
    pub macs: u64,
    /// MAC-weighted average utilization.
    pub utilization: f64,
    /// Total bank-conflict stall cycles.
    pub stall_cycles: u64,
    /// Total exposed reorder cycles.
    pub reorder_cycles: u64,
}

impl Totals {
    /// Energy per MAC in pJ.
    pub fn pj_per_mac(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.energy_pj / self.macs as f64
        }
    }
}

/// Sums per-layer results into totals.
pub fn totals(layers: &[Workload], results: &[CoSearchResult]) -> Totals {
    let macs: u64 = layers.iter().take(results.len()).map(|l| l.macs()).sum();
    let cycles = results.iter().map(|r| r.evaluation.cycles).sum();
    let energy_pj = results.iter().map(|r| r.evaluation.energy.total_pj()).sum();
    let stall_cycles = results.iter().map(|r| r.evaluation.stall_cycles).sum();
    let reorder_cycles = results.iter().map(|r| r.evaluation.reorder_cycles).sum();
    let utilization = results
        .iter()
        .zip(layers.iter())
        .map(|(r, l)| r.evaluation.utilization * l.macs() as f64)
        .sum::<f64>()
        / macs.max(1) as f64;
    Totals {
        cycles,
        energy_pj,
        macs,
        utilization,
        stall_cycles,
        reorder_cycles,
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

    #[test]
    fn totals_aggregate() {
        let net = resnet50();
        let layers: Vec<Workload> = net.layers.iter().take(2).cloned().collect();
        let arch = ArchSpec::feather_like(16, 16);
        let results = run_design(&arch, &layers, &MapperConfig::fast(), 0);
        assert_eq!(results.len(), 2);
        let t = totals(&layers, &results);
        assert!(t.cycles > 0);
        assert!(t.pj_per_mac() > 0.0);
        assert!(t.utilization > 0.0 && t.utilization <= 1.0);
    }
}
