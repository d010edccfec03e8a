//! FEATHER area/power scaling across array shapes (Table V).

use serde::{Deserialize, Serialize};

use crate::networks::{ReductionNetworkKind, ReductionNetworkModel};

/// Area and power of one FEATHER configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaPower {
    /// PE rows (AH).
    pub rows: usize,
    /// PE columns (AW).
    pub cols: usize,
    /// Total area in µm² (TSMC 28 nm, post-PnR calibrated).
    pub area_um2: f64,
    /// Total power in mW at 1 GHz.
    pub power_mw: f64,
    /// Clock frequency in GHz (the paper closes timing at 1 GHz at all scales).
    pub frequency_ghz: f64,
    /// Area of the BIRRD instance alone, in µm².
    pub birrd_area_um2: f64,
}

impl AreaPower {
    /// BIRRD's share of the total area.
    pub fn birrd_fraction(&self) -> f64 {
        self.birrd_area_um2 / self.area_um2
    }
}

// Per-PE costs calibrated against the 16×16 entry of Table V
// (475 897 µm², 323 mW): PE datapath + local ping/pong registers + its share
// of StaB/controller.
const PE_AREA_UM2: f64 = 1_660.0;
const PE_POWER_MW: f64 = 1.19;
const CONTROLLER_AREA_UM2: f64 = 12_000.0;
const CONTROLLER_POWER_MW: f64 = 3.0;
// Beyond 256 PEs wiring, clock tree and buffer banking grow super-linearly;
// exponent fitted to the 32×32 / 64×64 / 64×128 rows of Table V.
const WIRING_EXPONENT: f64 = 0.36;
const POWER_EXPONENT: f64 = 0.33;

/// Analytic area/power for an `rows × cols` FEATHER (Table V).
pub fn feather_area_power(rows: usize, cols: usize) -> AreaPower {
    let pes = (rows * cols) as f64;
    let birrd = ReductionNetworkModel::new(ReductionNetworkKind::Birrd, cols.max(2));
    let scale = (pes / 256.0).max(1.0);
    let area_um2 =
        pes * PE_AREA_UM2 * scale.powf(WIRING_EXPONENT) + birrd.area_um2 + CONTROLLER_AREA_UM2;
    let power_mw =
        pes * PE_POWER_MW * scale.powf(POWER_EXPONENT) + birrd.power_mw + CONTROLLER_POWER_MW;
    AreaPower {
        rows,
        cols,
        area_um2,
        power_mw,
        frequency_ghz: 1.0,
        birrd_area_um2: birrd.area_um2,
    }
}

/// The shapes listed in Table V of the paper, with the paper's measured
/// post-PnR numbers; the `tab05_area_power_scaling` bin prints the model
/// next to them.
pub fn table_v_shapes() -> Vec<(usize, usize, f64, f64)> {
    vec![
        (64, 128, 36_920_519.69, 26_400.00),
        (64, 64, 18_389_176.19, 13_200.00),
        (32, 32, 2_727_906.70, 961.70),
        (16, 32, 965_665.10, 655.55),
        (16, 16, 475_897.19, 323.48),
        (8, 8, 97_976.46, 65.25),
        (4, 4, 24_693.98, 16.28),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_16x16_within_tolerance() {
        let m = feather_area_power(16, 16);
        let err = (m.area_um2 - 475_897.0).abs() / 475_897.0;
        assert!(err < 0.10, "16x16 area off by {:.1}%", err * 100.0);
        let perr = (m.power_mw - 323.48).abs() / 323.48;
        assert!(perr < 0.15, "16x16 power off by {:.1}%", perr * 100.0);
    }

    #[test]
    fn scaling_shape_tracks_table_v() {
        // Within 2.5× of every Table V entry and strictly monotone in PE count —
        // the model is analytic, the paper's numbers are post-PnR, so only the
        // trend is claimed.
        let mut prev_area = 0.0;
        let mut rows_sorted = table_v_shapes();
        rows_sorted.sort_by_key(|&(r, c, _, _)| r * c);
        for (r, c, paper_area, paper_power) in rows_sorted {
            let m = feather_area_power(r, c);
            assert!(m.area_um2 > prev_area);
            prev_area = m.area_um2;
            let ratio = m.area_um2 / paper_area;
            assert!(
                (0.4..2.5).contains(&ratio),
                "{r}x{c}: modeled {:.0} vs paper {paper_area:.0} ({ratio:.2}x)",
                m.area_um2
            );
            let pratio = m.power_mw / paper_power;
            assert!(
                (0.2..3.0).contains(&pratio),
                "{r}x{c}: modeled {:.1} mW vs paper {paper_power:.1} ({pratio:.2}x)",
                m.power_mw
            );
        }
    }

    #[test]
    fn birrd_stays_a_small_fraction() {
        for (r, c) in [(8, 8), (16, 16), (32, 32)] {
            let m = feather_area_power(r, c);
            assert!(m.birrd_fraction() < 0.12, "{r}x{c}: {}", m.birrd_fraction());
        }
    }

    #[test]
    fn frequency_is_one_ghz_at_all_scales() {
        for (r, c, _, _) in table_v_shapes() {
            assert_eq!(feather_area_power(r, c).frequency_ghz, 1.0);
        }
    }
}
