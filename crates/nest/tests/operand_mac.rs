//! Property test: the explicit-operand MAC ([`NestArray::mac_operand`]) is
//! bit-identical to the register MACs it replaces on the executor's hot path
//! — [`NestArray::mac_stripe`] at every lane count and the scalar
//! [`NestArray::mac`] lane by lane — on accumulators (read through row
//! fires) and `total_macs`.

use feather_nest::NestArray;
use proptest::prelude::*;

const LANE_COUNTS: [usize; 3] = [1, 3, 8];
/// Weights held per PE register.
const DEPTH: usize = 4;
/// MAC steps per case (at most).
const STEPS: usize = 40;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn operand_mac_equals_register_mac(
        rows in 1usize..4,
        cols in 1usize..6,
        lane_pick in 0usize..3,
        weights in collection::vec(-128i32..128, 3 * 5 * DEPTH),
        // One flat `(row, col, weight index)` pick per step, decoded below.
        steps in collection::vec(0usize..3 * 5 * DEPTH, 0..STEPS),
        iact_pool in collection::vec(-128i32..128, STEPS * 8),
    ) {
        let lanes = LANE_COUNTS[lane_pick];
        let weight = |row: usize, col: usize, idx: usize| weights[(row * 5 + col) * DEPTH + idx] as i8;

        // `operand` never sees a weight register; the other arrays hold every
        // PE's weights the way the executor used to stage them.
        let mut operand = NestArray::with_lanes(rows, cols, lanes);
        let mut striped = NestArray::with_lanes(rows, cols, lanes);
        let mut solos: Vec<NestArray> = (0..lanes).map(|_| NestArray::new(rows, cols)).collect();
        for row in 0..rows {
            for col in 0..cols {
                let regs: Vec<i8> = (0..DEPTH).map(|idx| weight(row, col, idx)).collect();
                striped.load_weights(row, col, &regs);
                for solo in &mut solos {
                    solo.load_weights(row, col, &regs);
                }
            }
        }
        striped.swap_all_weights();
        solos.iter_mut().for_each(NestArray::swap_all_weights);

        for (step, pick) in steps.iter().enumerate() {
            let (row, col, idx) = (pick / (5 * DEPTH) % rows, pick / DEPTH % 5 % cols, pick % DEPTH);
            let iacts: Vec<i8> = iact_pool[step * 8..][..lanes].iter().map(|&v| v as i8).collect();
            operand.mac_operand(row, col, &iacts, weight(row, col, idx));
            striped.mac_stripe(row, col, &iacts, idx);
            for (solo, &iact) in solos.iter_mut().zip(&iacts) {
                solo.mac(row, col, iact, idx);
            }
        }

        prop_assert_eq!(operand.total_macs(), striped.total_macs());
        prop_assert_eq!(operand.total_macs(), solos[0].total_macs());
        let mapped = vec![true; cols];
        let mut bus = vec![0i32; cols * lanes];
        let mut striped_bus = vec![0i32; cols * lanes];
        for row in 0..rows {
            operand.fire_row_stripe(row, &mapped, &mut bus);
            striped.fire_row_stripe(row, &mapped, &mut striped_bus);
            prop_assert_eq!(&bus, &striped_bus);
            for (lane, solo) in solos.iter_mut().enumerate() {
                let fire = solo.fire_row(row, &mapped);
                for col in 0..cols {
                    prop_assert_eq!(Some(bus[col * lanes + lane]), fire.values[col]);
                }
            }
            // Drained.
            operand.fire_row_stripe(row, &mapped, &mut bus);
            prop_assert!(bus.iter().all(|&v| v == 0));
        }
    }
}
