//! Property test: the compiled gather-sum program of a routed configuration
//! ([`CompiledRoute::run_batched`]) is bit-identical, lane by lane, to the
//! golden stage-by-stage [`Birrd::evaluate`] — over random routed
//! reduction-reorder requests, random widths, 1, 3 and 8 lanes of random
//! values, and random presence patterns shared by the lanes.

use feather_birrd::{Birrd, CompiledRoute, NetworkConfig, ReductionRequest};
use proptest::prelude::*;

/// Deterministic LCG so the generated groups depend only on the proptest
/// inputs (reproducible failures without shrinking support).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
}

/// Builds a random reduction-reorder request: live input ports partitioned
/// into contiguous-by-shuffle groups, each group sent to a distinct random
/// output port.
fn random_request(width: usize, live: usize, max_groups: usize, rng: &mut Lcg) -> ReductionRequest {
    let mut ports: Vec<usize> = (0..width).collect();
    for i in (1..ports.len()).rev() {
        ports.swap(i, rng.below(i + 1));
    }
    ports.truncate(live.max(1));

    let num_groups = rng.below(max_groups.min(ports.len())) + 1;
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
    for (i, port) in ports.iter().enumerate() {
        // Every group gets at least one member, the rest scatter randomly.
        let g = if i < num_groups {
            i
        } else {
            rng.below(num_groups)
        };
        members[g].push(*port);
    }

    let mut dests: Vec<usize> = (0..width).collect();
    for i in (1..dests.len()).rev() {
        dests.swap(i, rng.below(i + 1));
    }
    let groups: Vec<(Vec<usize>, usize)> = members.into_iter().zip(dests).collect();
    ReductionRequest::from_groups(width, &groups).expect("generated request is well-formed")
}

/// Runs `compiled` over `lanes` lanes of `values` (port-major stripes) whose
/// presence is `present`, and checks every lane against `evaluate` of that
/// lane's inputs. The output scratch starts dirty — as a reused one would
/// be — so every slot must be written.
fn check_lanes(
    birrd: &Birrd,
    config: &NetworkConfig,
    compiled: &CompiledRoute,
    values: &[i64],
    present: &[bool],
    lanes: usize,
) -> Result<(), TestCaseError> {
    let width = present.len();
    let (mut outputs, mut out_present) = (vec![i64::MIN; width * lanes], vec![true; width]);
    compiled
        .run_batched(values, present, lanes, &mut outputs, &mut out_present)
        .unwrap();
    for lane in 0..lanes {
        let inputs: Vec<Option<i64>> = (0..width)
            .map(|p| present[p].then(|| values[p * lanes + lane]))
            .collect();
        let golden = birrd.evaluate(config, &inputs).unwrap();
        for (port, want) in golden.iter().enumerate() {
            prop_assert_eq!(out_present[port], want.is_some(), "port {}", port);
            prop_assert_eq!(
                outputs[port * lanes + lane],
                want.unwrap_or(0),
                "port {} lane {}",
                port,
                lane
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_run_equals_evaluate(
        width_pick in 0usize..3,
        live_frac in 1usize..5,
        max_groups in 1usize..6,
        seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        holes in 0usize..3,
    ) {
        let width = [4usize, 8, 16][width_pick];
        let live = (width * live_frac).div_ceil(4).min(width);
        let mut rng = Lcg(seed | 1);
        let request = random_request(width, live, max_groups, &mut rng);

        let birrd = Birrd::new(width).unwrap();
        let config = birrd.route(&request).expect("random request routes");
        let compiled = CompiledRoute::compile(birrd.topology(), &config).unwrap();
        prop_assert_eq!(compiled.adder_activations(), config.adder_activations());

        // Random presence, including holes on live ports (`holes` > 0 knocks
        // a fraction of them out) and stray values on dead ports — the
        // equivalence must hold for *any* input vector, not only the
        // request's own live set. Absent ports still carry values in their
        // stripes, which must never be read.
        let mut irng = Lcg(input_seed.wrapping_mul(2) | 1);
        let present: Vec<bool> = (0..width).map(|_| holes == 0 || irng.below(4) != 0).collect();
        for lanes in [1usize, 3, 8] {
            let values: Vec<i64> = (0..width * lanes).map(|_| irng.below(2001) as i64 - 1000).collect();
            check_lanes(&birrd, &config, &compiled, &values, &present, lanes)?;
        }
    }
}
