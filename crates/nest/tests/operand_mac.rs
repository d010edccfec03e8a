//! Property test: both MAC entry points of [`NestArray`] —
//! [`NestArray::mac_operand`] with a caller-supplied weight and
//! [`NestArray::mac_stripe`] reading the PE's register — drain the plain
//! Σ iAct·w of every PE and lane at every lane count, and count into one
//! `total_macs`.

use feather_nest::NestArray;
use proptest::prelude::*;

/// Weights held per PE register.
const DEPTH: usize = 4;
/// MAC steps per case (at most).
const STEPS: usize = 40;
/// Lanes at most.
const LANES: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn operand_mac_equals_register_mac(
        rows in 1usize..4,
        cols in 1usize..6,
        lanes in 1usize..=LANES,
        weights in collection::vec(-128i32..128, 3 * 5 * DEPTH),
        // One flat `(row, col, weight index)` pick per step, decoded below.
        steps in collection::vec(0usize..3 * 5 * DEPTH, 0..STEPS),
        iact_pool in collection::vec(-128i32..128, STEPS * LANES),
    ) {
        let weight = |row: usize, col: usize, idx: usize| weights[(row * 5 + col) * DEPTH + idx] as i8;

        // `operand` never sees a weight register, `register` holds every
        // PE's weights, and `mixed` alternates the two entry points.
        let mut operand = NestArray::with_lanes(rows, cols, lanes);
        let mut register = NestArray::with_lanes(rows, cols, lanes);
        let mut mixed = NestArray::with_lanes(rows, cols, lanes);
        for row in 0..rows {
            for col in 0..cols {
                let regs: Vec<i8> = (0..DEPTH).map(|idx| weight(row, col, idx)).collect();
                register.load_weights(row, col, &regs);
                mixed.load_weights(row, col, &regs);
            }
        }
        register.swap_all_weights();
        mixed.swap_all_weights();

        // The reference: Σ iAct·w per PE and lane, in plain i32.
        let mut reference = vec![0i32; rows * cols * lanes];
        for (step, pick) in steps.iter().enumerate() {
            let (row, col, idx) = (pick / (5 * DEPTH) % rows, pick / DEPTH % 5 % cols, pick % DEPTH);
            let iacts: Vec<i8> = iact_pool[step * LANES..][..lanes].iter().map(|&v| v as i8).collect();
            let w = weight(row, col, idx);
            for (lane, &iact) in iacts.iter().enumerate() {
                reference[(row * cols + col) * lanes + lane] += iact as i32 * w as i32;
            }
            operand.mac_operand(row, col, &iacts, w);
            register.mac_stripe(row, col, &iacts, idx);
            if step % 2 == 0 {
                mixed.mac_operand(row, col, &iacts, w);
            } else {
                mixed.mac_stripe(row, col, &iacts, idx);
            }
        }

        for array in [&operand, &register, &mixed] {
            prop_assert_eq!(array.total_macs(), steps.len() as u64);
        }
        let mapped = vec![true; cols];
        let mut bus = vec![0i32; cols * lanes];
        for array in [&mut operand, &mut register, &mut mixed] {
            for row in 0..rows {
                array.fire_row_stripe(row, &mapped, &mut bus);
                prop_assert_eq!(&bus[..], &reference[row * cols * lanes..][..cols * lanes]);
                // Drained.
                array.fire_row_stripe(row, &mapped, &mut bus);
                prop_assert!(bus.iter().all(|&v| v == 0));
            }
            prop_assert_eq!(array.fires(), 2 * rows as u64);
        }
    }
}
