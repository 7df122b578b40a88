//! The five large evaluation designs of Table III.
//!
//! These circuits are two orders of magnitude larger than the training
//! sub-circuits and are used to demonstrate DeepGate's generalisation
//! capability. The paper's designs (Arbiter, Squarer, Multiplier from the
//! EPFL suite plus an 80386 and a Viper processor) are emulated with the
//! generators of [`crate::generators`]; [`LargeDesign::generate`]'s `scale`
//! runs reduced versions quickly, while a scale of 1.0 targets node counts
//! comparable to Table III.

use crate::generators;
use deepgate_netlist::Netlist;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five large designs used in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LargeDesign {
    /// A bus arbiter with repeated priority logic and heavy reconvergence
    /// (paper: 23.7k nodes, 173 levels).
    Arbiter,
    /// A combinational squarer (paper: 36.0k nodes, 373 levels).
    Squarer,
    /// A combinational multiplier (paper: 47.3k nodes, 521 levels).
    Multiplier,
    /// An 80386-like processor datapath slice (paper: 13.2k nodes, 122
    /// levels).
    Processor80386,
    /// A Viper-like processor datapath slice (paper: 40.5k nodes, 133
    /// levels).
    ViperProcessor,
}

impl LargeDesign {
    /// All designs, in the order of Table III.
    pub const ALL: [LargeDesign; 5] = [
        LargeDesign::Arbiter,
        LargeDesign::Squarer,
        LargeDesign::Multiplier,
        LargeDesign::Processor80386,
        LargeDesign::ViperProcessor,
    ];

    /// Display name matching Table III.
    pub fn label(self) -> &'static str {
        match self {
            LargeDesign::Arbiter => "Arbiter",
            LargeDesign::Squarer => "Squarer",
            LargeDesign::Multiplier => "Multiplier",
            LargeDesign::Processor80386 => "80386 Processor",
            LargeDesign::ViperProcessor => "Viper Processor",
        }
    }

    /// Prediction error of the DeepSet baseline reported in Table III.
    pub fn paper_deepset_error(self) -> f64 {
        match self {
            LargeDesign::Arbiter => 0.0277,
            LargeDesign::Squarer => 0.0495,
            LargeDesign::Multiplier => 0.0220,
            LargeDesign::Processor80386 => 0.0534,
            LargeDesign::ViperProcessor => 0.0520,
        }
    }

    /// Prediction error of DeepGate reported in Table III.
    pub fn paper_deepgate_error(self) -> f64 {
        match self {
            LargeDesign::Arbiter => 0.0073,
            LargeDesign::Squarer => 0.0346,
            LargeDesign::Multiplier => 0.0159,
            LargeDesign::Processor80386 => 0.0387,
            LargeDesign::ViperProcessor => 0.0389,
        }
    }

    /// Generates the design at a given scale. `scale = 1.0` targets node
    /// counts comparable to Table III; smaller values shrink the design
    /// proportionally (the structure is preserved, only widths change).
    pub fn generate(self, scale: f64) -> Netlist {
        let scale = scale.clamp(0.02, 1.5);
        let sized = |paper_width: usize| ((paper_width as f64 * scale).ceil() as usize).max(2);
        let mut netlist = match self {
            // A priority arbiter over n requests has ~n^2/2 gates; 220
            // requests lands near 24k nodes.
            LargeDesign::Arbiter => generators::masked_arbiter(sized(150)),
            // An n-bit squarer has ~11 n^2 gates; n = 57 lands near 36k.
            LargeDesign::Squarer => generators::squarer(sized(57)),
            // An n-bit multiplier has ~11 n^2 gates; n = 65 lands near 47k.
            LargeDesign::Multiplier => generators::array_multiplier(sized(65)),
            // Processor datapaths grow roughly quadratically in `scale`.
            LargeDesign::Processor80386 => generators::processor_datapath(sized(9)),
            LargeDesign::ViperProcessor => generators::processor_datapath(sized(16)),
        };
        netlist.set_name(self.label().replace(' ', "_").to_lowercase());
        netlist
    }
}

impl fmt::Display for LargeDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_aig::Aig;

    #[test]
    fn labels_and_paper_numbers() {
        assert_eq!(LargeDesign::ALL.len(), 5);
        assert_eq!(LargeDesign::Arbiter.label(), "Arbiter");
        for design in LargeDesign::ALL {
            assert!(design.paper_deepgate_error() < design.paper_deepset_error());
        }
    }

    #[test]
    fn reduced_scale_designs_build_and_map_to_aig() {
        for design in LargeDesign::ALL {
            let netlist = design.generate(0.08);
            assert!(netlist.validate().is_ok(), "{design}");
            let aig = Aig::from_netlist(&netlist).unwrap();
            assert!(
                aig.num_ands() > 50,
                "{design} too small: {}",
                aig.num_ands()
            );
        }
    }

    #[test]
    fn scale_controls_size_monotonically() {
        let small = LargeDesign::Multiplier.generate(0.05);
        let medium = LargeDesign::Multiplier.generate(0.12);
        assert!(medium.num_gates() > small.num_gates());
    }
}
