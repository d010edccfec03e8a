//! Property-based tests on the core invariants of the reproduction:
//!
//! * layouts never collide: distinct coordinates map to distinct physical
//!   locations, and parsing round-trips;
//! * BIRRD reduce-reorder is value-preserving for arbitrary contiguous group
//!   partitions and destinations (the RIR invariant);
//! * the bank-conflict slowdown is monotone in the number of lines touched;
//! * the FEATHER functional simulator matches the golden convolution for
//!   random small layer shapes.

use std::collections::BTreeMap;

use feather::{Feather, FeatherConfig, LayerMapping};
use feather_arch::layout::Layout;
use feather_arch::tensor::{conv2d_reference, Tensor4};
use feather_arch::workload::ConvLayer;
use feather_arch::Dim;
use feather_birrd::{Birrd, ReductionRequest};
use feather_memsim::{Banking, BufferSpec, ConflictModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_locations_are_injective(
        c_size in 1usize..9,
        h_size in 1usize..9,
        w_size in 1usize..9,
        intra_c in 1usize..5,
        intra_w in 1usize..5,
    ) {
        let layout = Layout::new([Dim::H, Dim::W, Dim::C], [(Dim::W, intra_w), (Dim::C, intra_c)]);
        let dims: BTreeMap<Dim, usize> =
            [(Dim::C, c_size), (Dim::H, h_size), (Dim::W, w_size)].into_iter().collect();
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..c_size {
            for h in 0..h_size {
                for w in 0..w_size {
                    let coord: BTreeMap<Dim, usize> =
                        [(Dim::C, c), (Dim::H, h), (Dim::W, w)].into_iter().collect();
                    let loc = layout.location(&coord, &dims);
                    prop_assert!(loc.offset < layout.line_size());
                    prop_assert!(loc.line < layout.total_lines(&dims));
                    prop_assert!(seen.insert((loc.line, loc.offset)), "collision at C{c} H{h} W{w}");
                }
            }
        }
    }

    #[test]
    fn layout_string_roundtrip(inter in "[CHW]{1,3}", c in 1usize..33, w in 1usize..33) {
        // Construct a printable layout string and check parse → print identity
        // when the dims are unique.
        let mut unique: Vec<char> = Vec::new();
        for ch in inter.chars() {
            if !unique.contains(&ch) {
                unique.push(ch);
            }
        }
        let inter: String = unique.iter().collect();
        let s = format!("{inter}_W{w}C{c}");
        if let Ok(layout) = s.parse::<Layout>() {
            prop_assert_eq!(layout.to_string(), s);
        }
    }

    #[test]
    fn birrd_reduce_reorder_preserves_sums(
        width_log in 2u32..5,
        values in proptest::collection::vec(-1000i64..1000, 32),
        group_sizes in proptest::collection::vec(1usize..5, 1..8),
        seed in 0u64..1000,
    ) {
        let width = 1usize << width_log;
        let birrd = Birrd::new(width).unwrap();
        // Build contiguous groups covering a prefix of the inputs.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut next = 0usize;
        for &g in &group_sizes {
            if next >= width { break; }
            let end = (next + g).min(width);
            groups.push((next..end).collect());
            next = end;
        }
        // Assign distinct pseudo-random destinations.
        let mut dests: Vec<usize> = (0..width).collect();
        let mut s = seed;
        for i in (1..dests.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            dests.swap(i, (s as usize) % (i + 1));
        }
        let request_groups: Vec<(Vec<usize>, usize)> = groups
            .iter()
            .enumerate()
            .map(|(i, members)| (members.clone(), dests[i]))
            .collect();
        let request = ReductionRequest::from_groups(width, &request_groups).unwrap();
        // Ports that belong to no reduction group carry nothing — the NEST
        // controller masks unmapped columns off the bus (see
        // `feather::accelerator`), so the property mirrors that.
        let inputs: Vec<Option<i64>> = (0..width)
            .map(|i| {
                if request_groups.iter().any(|(m, _)| m.contains(&i)) {
                    Some(values[i % values.len()])
                } else {
                    None
                }
            })
            .collect();
        let config = birrd.route(&request).unwrap();
        let outputs = birrd.evaluate(&config, &inputs).unwrap();
        for (members, dest) in &request_groups {
            let expect: i64 = members.iter().map(|&m| inputs[m].unwrap()).sum();
            prop_assert_eq!(outputs[*dest], Some(expect));
        }
        // Total value conservation: the sum of all outputs equals the sum of
        // all grouped inputs (nothing duplicated, nothing lost).
        let grouped_sum: i64 = request_groups
            .iter()
            .flat_map(|(m, _)| m.iter())
            .map(|&i| inputs[i].unwrap())
            .sum();
        let out_sum: i64 = outputs.iter().flatten().sum();
        prop_assert_eq!(grouped_sum, out_sum);
    }

    #[test]
    fn conflict_slowdown_is_monotone(lines in proptest::collection::btree_set(0usize..64, 1..16)) {
        let model = ConflictModel::new(
            BufferSpec::new(64, 8, 1, Banking::VerticalBlocked).with_ports(2, 2),
        );
        let lines: Vec<usize> = lines.into_iter().collect();
        let mut prev = 0.0f64;
        for k in 1..=lines.len() {
            let slowdown = model.read_slowdown(lines[..k].iter().copied());
            prop_assert!(slowdown + 1e-12 >= prev, "slowdown decreased when adding a line");
            prop_assert!(slowdown >= 1.0);
            prev = slowdown;
        }
    }

    #[test]
    fn feather_matches_reference_on_random_small_layers(
        m in 1usize..7,
        c in 1usize..7,
        hw in 3usize..7,
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        let k = k.min(hw);
        let layer = ConvLayer::new(1, m, c, hw, hw, k, k).with_padding(k / 2);
        prop_assume!(layer.validate().is_ok());
        let iacts = Tensor4::random([1, c, hw, hw], seed);
        let weights = Tensor4::random([m, c, k, k], seed + 1);
        let cfg = FeatherConfig::new(4, 4);
        let mapping = LayerMapping::weight_stationary(&layer, &cfg, "HWC_C4", "MPQ_Q4").unwrap();
        let mut acc = Feather::new(cfg);
        let run = acc.execute_conv(&layer, &mapping, &iacts, &weights).unwrap();
        let golden = conv2d_reference(&layer, &iacts, &weights).unwrap();
        prop_assert_eq!(run.oacts, golden);
        prop_assert!(run.report.stall_cycles == 0 || run.report.cycles > run.report.stall_cycles);
    }
}
