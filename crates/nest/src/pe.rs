//! One FEATHER processing element.

use serde::{Deserialize, Serialize};

/// A FEATHER PE: ping/pong local weight registers, an INT32 accumulator for
/// local temporal reduction, and activity counters for the energy model.
///
/// The ping/pong weight registers let the next tile's weights stream in while
/// the current tile is still being computed, hiding the weight-load latency
/// (§III-A, Fig. 9 takeaway).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProcessingElement {
    weights_active: Vec<i8>,
    weights_shadow: Vec<i8>,
    accumulator: i32,
    /// Number of multiply-accumulates performed.
    pub mac_count: u64,
    /// Number of weight-register writes.
    pub weight_loads: u64,
}

impl ProcessingElement {
    /// Creates an idle PE with empty weight registers.
    pub fn new() -> Self {
        ProcessingElement::default()
    }

    /// Loads a weight vector into the *shadow* (pong) register set.
    pub fn load_weights(&mut self, weights: &[i8]) {
        // Overwrite in place: after the first tile the register keeps its
        // capacity, so reloading allocates nothing.
        self.weights_shadow.clear();
        self.weights_shadow.extend_from_slice(weights);
        self.weight_loads += weights.len() as u64;
    }

    /// Swaps the ping/pong weight registers (new tile becomes active).
    pub fn swap_weights(&mut self) {
        std::mem::swap(&mut self.weights_active, &mut self.weights_shadow);
    }

    /// The currently active weights.
    pub fn active_weights(&self) -> &[i8] {
        &self.weights_active
    }

    /// Multiplies an input activation with active weight `index` and adds it
    /// to the local accumulator (one Phase-1 step).
    ///
    /// # Panics
    /// Panics if `index` is out of range of the active weights.
    pub fn mac(&mut self, iact: i8, index: usize) {
        let w = self.weights_active[index];
        self.accumulator += iact as i32 * w as i32;
        self.mac_count += 1;
    }

    /// Adds a raw value to the accumulator (used when a partial sum re-enters
    /// the PE, e.g. output-buffer spills).
    pub fn accumulate(&mut self, value: i32) {
        self.accumulator += value;
    }

    /// Current accumulator value without clearing it.
    pub fn peek(&self) -> i32 {
        self.accumulator
    }

    /// Returns the locally-reduced result and clears the accumulator (the
    /// Phase-2 hand-off onto the column bus).
    pub fn fire(&mut self) -> i32 {
        std::mem::take(&mut self.accumulator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_accumulates_locally() {
        let mut pe = ProcessingElement::new();
        pe.load_weights(&[2, -3]);
        pe.swap_weights();
        pe.mac(5, 0);
        pe.mac(4, 1);
        assert_eq!(pe.peek(), 10 - 12);
        assert_eq!(pe.mac_count, 2);
    }

    #[test]
    fn fire_clears_accumulator() {
        let mut pe = ProcessingElement::new();
        pe.load_weights(&[1]);
        pe.swap_weights();
        pe.mac(7, 0);
        assert_eq!(pe.fire(), 7);
        assert_eq!(pe.peek(), 0);
    }

    #[test]
    fn ping_pong_hides_next_tile_weights() {
        let mut pe = ProcessingElement::new();
        pe.load_weights(&[1]);
        pe.swap_weights();
        // Next tile's weights load while the current tile computes.
        pe.load_weights(&[10]);
        pe.mac(3, 0);
        assert_eq!(pe.peek(), 3);
        pe.swap_weights();
        pe.mac(3, 0);
        assert_eq!(pe.peek(), 3 + 30);
        assert_eq!(pe.weight_loads, 2);
    }

    #[test]
    fn accumulate_adds_external_partial_sum() {
        let mut pe = ProcessingElement::new();
        pe.accumulate(100);
        pe.accumulate(-40);
        assert_eq!(pe.fire(), 60);
    }

    #[test]
    #[should_panic]
    fn mac_with_missing_weight_panics() {
        let mut pe = ProcessingElement::new();
        pe.mac(1, 0);
    }
}
