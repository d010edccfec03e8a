//! Static configuration of a FEATHER instance.

use feather_arch::ArchError;
use serde::{Deserialize, Serialize};

/// Hardware parameters of one FEATHER instance (Fig. 7 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatherConfig {
    /// Number of PE rows (`AH`).
    pub rows: usize,
    /// Number of PE columns (`AW`) — also the BIRRD width and the number of
    /// StaB banks. Must be a power of two of at least 2
    /// ([`FeatherConfig::validate`]).
    pub cols: usize,
}

impl FeatherConfig {
    /// Creates a `rows`×`cols` configuration. A layer's StaB halves are
    /// sized to its tensors, so the array shape is the whole configuration.
    ///
    /// # Panics
    /// Panics if `cols` is not a power of two of at least 2 (BIRRD
    /// requirement) or `rows` is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        let config = FeatherConfig { rows, cols };
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        config
    }

    /// Checks the array shape: both dimensions non-zero and a power-of-two
    /// width of at least 2 (BIRRD requirement: a one-column fabric has no
    /// switch, and every compile on it would fail). Sessions check it before
    /// planning, since the fields are public.
    ///
    /// # Errors
    /// [`ArchError::InvalidDataflow`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ArchError> {
        let (rows, cols) = (self.rows, self.cols);
        if rows == 0 || cols == 0 {
            return Err(ArchError::InvalidDataflow(format!(
                "array dimensions must be non-zero, got {rows}x{cols}"
            )));
        }
        if !cols.is_power_of_two() || cols < 2 {
            return Err(ArchError::InvalidDataflow(format!(
                "AW (columns / BIRRD width) must be a power of two >= 2, got {cols}"
            )));
        }
        Ok(())
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// The 16×16 configuration used for most of the paper's evaluation.
    pub fn paper_16x16() -> Self {
        FeatherConfig::new(16, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config() {
        let c = FeatherConfig::paper_16x16();
        assert_eq!(c.num_pes(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_cols_rejected() {
        FeatherConfig::new(4, 6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        FeatherConfig::new(0, 4);
    }

    #[test]
    fn validate_names_each_bad_shape() {
        assert_eq!(FeatherConfig::new(4, 8).validate(), Ok(()));
        for (rows, cols, what) in [
            (0, 8, "non-zero"),
            (4, 0, "non-zero"),
            (4, 12, "power of two"),
            (4, 1, "power of two >= 2"),
        ] {
            let err = FeatherConfig { rows, cols }.validate().unwrap_err();
            assert!(matches!(err, ArchError::InvalidDataflow(_)), "{err}");
            assert!(err.to_string().contains(what), "{rows}x{cols}: {err}");
        }
    }
}
