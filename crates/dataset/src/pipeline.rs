//! The end-to-end dataset pipeline: generate designs, transform to AIG,
//! optimise, label with logic-simulated signal probabilities and split into
//! training and test circuit graphs.

use crate::suites::SuiteKind;
use deepgate_aig::{opt, Aig};
use deepgate_gnn::{CircuitGraph, FeatureEncoding};
use deepgate_netlist::Netlist;
use deepgate_sim::{SignalProbability, SimError};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of dataset generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Benchmark suites to draw designs from.
    pub suites: Vec<SuiteKind>,
    /// Number of designs generated per suite.
    pub designs_per_suite: usize,
    /// Number of random simulation patterns per circuit for labelling.
    pub num_patterns: usize,
    /// Whether circuits are transformed to AIG form and optimised (the
    /// DeepGate flow) or kept with their original gate types (the Table IV
    /// ablation).
    pub transform_to_aig: bool,
    /// Fraction of circuits that go into the training split (the paper uses
    /// a 90/10 split).
    pub train_fraction: f64,
    /// Scale factor in `(0, 1]` applied to design sizes; 1.0 targets the
    /// paper's size ranges.
    pub size_scale: f64,
    /// Seed controlling design generation, labelling and the split.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            suites: SuiteKind::ALL.to_vec(),
            designs_per_suite: 24,
            num_patterns: 8_192,
            transform_to_aig: true,
            train_fraction: 0.9,
            size_scale: 0.25,
            seed: 0,
        }
    }
}

impl DatasetConfig {
    /// The feature encoding the generated circuit graphs use.
    pub fn encoding(&self) -> FeatureEncoding {
        if self.transform_to_aig {
            FeatureEncoding::AigGates
        } else {
            FeatureEncoding::AllGates
        }
    }
}

/// Per-suite statistics (the rows of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuiteStats {
    /// The suite.
    pub suite: SuiteKind,
    /// Number of sub-circuits generated from this suite.
    pub num_subcircuits: usize,
    /// Smallest node count.
    pub min_nodes: usize,
    /// Largest node count.
    pub max_nodes: usize,
    /// Smallest logic depth.
    pub min_level: usize,
    /// Largest logic depth.
    pub max_level: usize,
}

/// A labelled dataset of circuit graphs split into train and test sets.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Training circuits.
    pub train: Vec<CircuitGraph>,
    /// Held-out test circuits.
    pub test: Vec<CircuitGraph>,
    /// Per-suite statistics over all generated circuits.
    pub suite_stats: Vec<SuiteStats>,
}

impl Dataset {
    /// Generates a labelled dataset.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if labelling fails (e.g. a zero pattern count).
    pub fn generate(config: &DatasetConfig) -> Result<Dataset, SimError> {
        let mut all: Vec<(SuiteKind, CircuitGraph)> = Vec::new();
        let mut suite_stats = Vec::new();
        for &suite in &config.suites {
            let designs: Vec<Netlist> = (0..config.designs_per_suite)
                .map(|index| suite.generate_design(index, config.seed, config.size_scale))
                .collect();
            let graphs: Result<Vec<CircuitGraph>, SimError> = designs
                .par_iter()
                .enumerate()
                .map(|(index, netlist)| {
                    let label_seed = config.seed ^ ((index as u64 + 1) << 20);
                    if config.transform_to_aig {
                        let aig = Aig::from_netlist(netlist)
                            .map_err(|e| SimError::InvalidCircuit(e.to_string()))?;
                        let aig = opt::optimize(&aig, 2);
                        labelled_circuit_from_aig(&aig, config.num_patterns, label_seed)
                    } else {
                        labelled_circuit_from_netlist(
                            netlist,
                            FeatureEncoding::AllGates,
                            config.num_patterns,
                            label_seed,
                        )
                    }
                })
                .collect();
            let graphs = graphs?;
            let stats = SuiteStats {
                suite,
                num_subcircuits: graphs.len(),
                min_nodes: graphs.iter().map(|g| g.num_nodes).min().unwrap_or(0),
                max_nodes: graphs.iter().map(|g| g.num_nodes).max().unwrap_or(0),
                min_level: graphs.iter().map(|g| g.max_level).min().unwrap_or(0),
                max_level: graphs.iter().map(|g| g.max_level).max().unwrap_or(0),
            };
            suite_stats.push(stats);
            all.extend(graphs.into_iter().map(|g| (suite, g)));
        }

        // Deterministic shuffled train/test split.
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0xD5));
        all.shuffle(&mut rng);
        let train_count = ((all.len() as f64) * config.train_fraction).round() as usize;
        let train_count = train_count.min(all.len());
        let mut train = Vec::with_capacity(train_count);
        let mut test = Vec::with_capacity(all.len() - train_count);
        for (i, (_, graph)) in all.into_iter().enumerate() {
            if i < train_count {
                train.push(graph);
            } else {
                test.push(graph);
            }
        }
        Ok(Dataset {
            train,
            test,
            suite_stats,
        })
    }

    /// Total number of circuits (train + test).
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Returns `true` if the dataset holds no circuits.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }
}

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
    let probs = SignalProbability::simulate_netlist(netlist, num_patterns, seed)?;
    let labels: Vec<f32> = probs.values().iter().map(|&v| v as f32).collect();
    Ok(CircuitGraph::from_netlist(netlist, encoding, Some(labels)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> DatasetConfig {
        DatasetConfig {
            designs_per_suite: 4,
            num_patterns: 512,
            size_scale: 0.1,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn generate_produces_labelled_split() {
        let dataset = Dataset::generate(&quick_config()).unwrap();
        assert_eq!(dataset.len(), 16);
        assert!(!dataset.is_empty());
        assert_eq!(dataset.suite_stats.len(), 4);
        assert!(dataset.train.len() > dataset.test.len());
        for graph in dataset.train.iter().chain(&dataset.test) {
            assert!(graph.labels.is_some());
            assert_eq!(graph.encoding, FeatureEncoding::AigGates);
            let labels = graph.labels.as_ref().unwrap();
            assert!(labels.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        for stats in &dataset.suite_stats {
            assert!(stats.min_nodes <= stats.max_nodes);
            assert!(stats.max_level >= stats.min_level);
            assert_eq!(stats.num_subcircuits, 4);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&quick_config()).unwrap();
        let b = Dataset::generate(&quick_config()).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.train[0].labels, b.train[0].labels);
        assert_eq!(a.train[0].num_nodes, b.train[0].num_nodes);
    }

    #[test]
    fn untransformed_dataset_uses_full_gate_alphabet() {
        let config = DatasetConfig {
            transform_to_aig: false,
            designs_per_suite: 2,
            num_patterns: 256,
            size_scale: 0.1,
            suites: vec![SuiteKind::Epfl, SuiteKind::Iwls],
            ..DatasetConfig::default()
        };
        assert_eq!(config.encoding(), FeatureEncoding::AllGates);
        let dataset = Dataset::generate(&config).unwrap();
        assert_eq!(dataset.len(), 4);
        for graph in dataset.train.iter().chain(&dataset.test) {
            assert_eq!(graph.encoding, FeatureEncoding::AllGates);
        }
    }

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
