//! Seeded arrival schedules for the open-loop serving workloads.

/// SplitMix64: the harness's only random source, so a `--seed` fixes every
/// generated input without depending on a crate the repository may change.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One scheduled request: when it is due (seconds from the window's start)
/// and which of the distinct images it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub image: usize,
}

/// A Poisson process of `rate` arrivals per second over `seconds`,
/// conditioned on its count: exactly `round(rate × seconds)` arrivals at
/// independent uniform times, so every seed offers the same load and only
/// the spacing differs. Each carries a uniformly chosen image.
pub fn poisson(seed: u64, rate: f64, seconds: f64, images: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let count = (rate * seconds).round() as usize;
    let mut arrivals: Vec<Arrival> = (0..count)
        .map(|_| Arrival {
            due_s: rng.next_unit() * seconds,
            image: rng.below(images),
        })
        .collect();
    arrivals.sort_by(|a, b| a.due_s.partial_cmp(&b.due_s).expect("due times are finite"));
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = poisson(7, 300.0, 2.0, 8);
        assert_eq!(a, poisson(7, 300.0, 2.0, 8));
        assert_ne!(a, poisson(8, 300.0, 2.0, 8));
    }

    #[test]
    fn schedule_is_ordered_bounded_and_exactly_its_rate() {
        let a = poisson(1, 500.0, 4.0, 8);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a
            .iter()
            .all(|x| x.due_s > 0.0 && x.due_s < 4.0 && x.image < 8));
        assert_eq!(a.len(), 2000);
        assert!((0..8).all(|i| a.iter().any(|x| x.image == i)));
        // Exponential gaps: about 1/e of them exceed the mean gap of 2 ms.
        let long = a
            .windows(2)
            .filter(|w| w[1].due_s - w[0].due_s > 0.002)
            .count();
        assert!((600..870).contains(&long), "{long}");
    }
}
