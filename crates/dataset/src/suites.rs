//! Synthetic stand-ins for the four benchmark suites of Table I.
//!
//! The paper extracts 10,824 sub-circuits from ITC'99, IWLS'05, EPFL and
//! OpenCores. The original files are not redistributable, so each suite is
//! emulated with a seeded mix of generator calls whose sizes and depths are
//! tuned to land inside the ranges reported in Table I:
//!
//! | suite | #sub-circuits | nodes | levels |
//! |---|---|---|---|
//! | EPFL | 828 | 52–341 | 4–17 |
//! | ITC99 | 7,560 | 36–1,947 | 3–23 |
//! | IWLS | 1,281 | 41–2,268 | 5–24 |
//! | OpenCores | 1,155 | 51–3,214 | 4–18 |

use crate::generators;
use deepgate_netlist::Netlist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The four benchmark suites the training circuits are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// EPFL combinational benchmark suite (arithmetic-dominated).
    Epfl,
    /// ITC'99 (control-dominated next-state logic).
    Itc99,
    /// IWLS 2005 (mixed control and datapath).
    Iwls,
    /// OpenCores designs (datapath blocks: ALUs, decoders, bus logic).
    Opencores,
}

impl SuiteKind {
    /// All suites, in the order of Table I.
    pub const ALL: [SuiteKind; 4] = [
        SuiteKind::Epfl,
        SuiteKind::Itc99,
        SuiteKind::Iwls,
        SuiteKind::Opencores,
    ];

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SuiteKind::Epfl => "EPFL",
            SuiteKind::Itc99 => "ITC99",
            SuiteKind::Iwls => "IWLS",
            SuiteKind::Opencores => "Opencores",
        }
    }

    /// Number of sub-circuits the paper extracts from this suite (Table I);
    /// used to scale `--full` dataset generation proportionally.
    pub fn paper_subcircuit_count(self) -> usize {
        match self {
            SuiteKind::Epfl => 828,
            SuiteKind::Itc99 => 7_560,
            SuiteKind::Iwls => 1_281,
            SuiteKind::Opencores => 1_155,
        }
    }

    /// Generates the `index`-th design of this suite, deterministically in
    /// `(self, index, seed)`. `size_scale` in `(0, 1]` shrinks the designs
    /// for quick runs; 1.0 targets the paper's size ranges.
    pub fn generate_design(self, index: usize, seed: u64, size_scale: f64) -> Netlist {
        let mut rng = SmallRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9));
        let scale = size_scale.clamp(0.05, 1.0);
        let scaled = |base: usize, spread: usize, rng: &mut SmallRng| -> usize {
            let raw = base + rng.gen_range(0..=spread);
            ((raw as f64 * scale).round() as usize).max(2)
        };
        match self {
            SuiteKind::Epfl => match index % 5 {
                0 => generators::ripple_carry_adder(scaled(16, 32, &mut rng)),
                1 => generators::array_multiplier(scaled(5, 4, &mut rng)),
                2 => generators::comparator(scaled(16, 24, &mut rng)),
                3 => generators::parity_tree(scaled(32, 64, &mut rng)),
                _ => generators::squarer(scaled(5, 3, &mut rng)),
            },
            SuiteKind::Itc99 => match index % 4 {
                0 => generators::counter_next_state(scaled(12, 24, &mut rng)),
                1 => generators::priority_arbiter(scaled(16, 32, &mut rng)),
                2 => generators::random_logic(
                    scaled(10, 10, &mut rng),
                    scaled(120, 600, &mut rng),
                    rng.gen(),
                ),
                _ => generators::decoder(scaled(4, 2, &mut rng).min(7)),
            },
            SuiteKind::Iwls => match index % 4 {
                0 => generators::alu(scaled(8, 16, &mut rng)),
                1 => generators::masked_arbiter(scaled(10, 14, &mut rng)),
                2 => generators::random_logic(
                    scaled(12, 12, &mut rng),
                    scaled(200, 800, &mut rng),
                    rng.gen(),
                ),
                _ => generators::ripple_carry_adder(scaled(24, 40, &mut rng)),
            },
            SuiteKind::Opencores => match index % 4 {
                0 => generators::processor_datapath(((2.0 * scale).round() as usize).max(1)),
                1 => generators::alu(scaled(12, 20, &mut rng)),
                2 => generators::decoder(scaled(4, 3, &mut rng).min(8)),
                _ => generators::array_multiplier(scaled(6, 6, &mut rng)),
            },
        }
    }
}

impl fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_aig::Aig;

    #[test]
    fn suite_labels_and_counts_match_table_one() {
        assert_eq!(SuiteKind::Epfl.label(), "EPFL");
        assert_eq!(SuiteKind::Itc99.paper_subcircuit_count(), 7_560);
        let total: usize = SuiteKind::ALL
            .iter()
            .map(|s| s.paper_subcircuit_count())
            .sum();
        assert_eq!(total, 10_824);
    }

    #[test]
    fn designs_are_deterministic_and_valid() {
        for suite in SuiteKind::ALL {
            for index in 0..6 {
                let a = suite.generate_design(index, 11, 0.3);
                let b = suite.generate_design(index, 11, 0.3);
                assert!(a.validate().is_ok(), "{suite} design {index}");
                assert_eq!(
                    deepgate_netlist::bench::write(&a),
                    deepgate_netlist::bench::write(&b),
                    "{suite} design {index} not deterministic"
                );
                // Every design maps cleanly to an AIG.
                let aig = Aig::from_netlist(&a).unwrap();
                assert!(aig.validate().is_ok());
                assert!(aig.num_ands() > 0, "{suite} design {index} has no logic");
            }
        }
    }

    #[test]
    fn size_scale_changes_design_size() {
        let small = SuiteKind::Epfl.generate_design(0, 3, 0.1);
        let large = SuiteKind::Epfl.generate_design(0, 3, 1.0);
        assert!(large.num_gates() > small.num_gates());
    }
}
