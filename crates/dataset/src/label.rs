//! The one labelling step: a netlist (or the netlist an AIG expands to) is
//! simulated and encoded as a labelled circuit graph. `deepgate::Engine`
//! runs every circuit it prepares through [`labelled_circuit_from_netlist`].

use deepgate_aig::Aig;
use deepgate_gnn::{CircuitGraph, FeatureEncoding};
use deepgate_netlist::Netlist;
use deepgate_sim::{SignalProbability, SimError};

/// Builds a labelled circuit graph from an AIG: the AIG is expanded into an
/// explicit PI/AND/NOT netlist, simulated, and encoded with
/// [`FeatureEncoding::AigGates`].
///
/// # Errors
///
/// Returns a [`SimError`] if simulation fails.
pub fn labelled_circuit_from_aig(
    aig: &Aig,
    num_patterns: usize,
    seed: u64,
) -> Result<CircuitGraph, SimError> {
    let netlist = aig.to_netlist();
    labelled_circuit_from_netlist(&netlist, FeatureEncoding::AigGates, num_patterns, seed)
}

/// Builds a labelled circuit graph from a gate-level netlist by simulating
/// `num_patterns` random patterns.
///
/// # Errors
///
/// Returns a [`SimError`] if simulation fails.
pub fn labelled_circuit_from_netlist(
    netlist: &Netlist,
    encoding: FeatureEncoding,
    num_patterns: usize,
    seed: u64,
) -> Result<CircuitGraph, SimError> {
    let probs = SignalProbability::simulate(netlist, num_patterns, seed)?;
    let labels: Vec<f32> = probs.values().iter().map(|&v| v as f32).collect();
    Ok(CircuitGraph::from_netlist(netlist, encoding, Some(labels)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuiteKind;
    use deepgate_aig::opt;

    #[test]
    fn optimisation_never_grows_a_suite_design() {
        for suite in SuiteKind::ALL {
            for index in 0..4 {
                let netlist = suite.generate_design(index, 0, 0.1);
                let aig = Aig::from_netlist(&netlist).unwrap();
                let optimized = opt::optimize(&aig, 2);
                assert!(
                    optimized.num_ands() <= aig.num_ands(),
                    "{suite:?} design {index}: {} ANDs after optimisation, {} before",
                    optimized.num_ands(),
                    aig.num_ands()
                );
            }
        }
    }

    #[test]
    fn helper_builders_label_every_node() {
        let netlist = crate::generators::ripple_carry_adder(4);
        let graph =
            labelled_circuit_from_netlist(&netlist, FeatureEncoding::AllGates, 512, 3).unwrap();
        assert_eq!(graph.labels.as_ref().unwrap().len(), graph.num_nodes);
        let aig = Aig::from_netlist(&netlist).unwrap();
        let graph2 = labelled_circuit_from_aig(&aig, 512, 3).unwrap();
        assert_eq!(graph2.labels.as_ref().unwrap().len(), graph2.num_nodes);
    }
}
