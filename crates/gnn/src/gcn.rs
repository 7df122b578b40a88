//! The GCN baseline: undirected message passing without topological order.
//!
//! The paper's weakest baseline treats the circuit as an undirected graph and
//! stacks `num_layers` rounds of neighbour aggregation; it has no notion of
//! the logic computation order, which is exactly why it trails the DAG-aware
//! models in Table II.

use crate::{check_encoding, Aggregator, AggregatorKind, CircuitGraph, GnnError, ProbabilityModel};
use deepgate_nn::{Activation, Graph, Linear, Mlp, ParamStore, Var};

/// Configuration of the [`Gcn`] baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcnConfig {
    /// Node feature dimensionality (matches the circuit graph encoding).
    pub feature_dim: usize,
    /// Hidden state dimensionality (the paper uses 64).
    pub hidden_dim: usize,
    /// Number of message-passing layers.
    pub num_layers: usize,
    /// Aggregation function.
    pub aggregator: AggregatorKind,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            feature_dim: 3,
            hidden_dim: 64,
            num_layers: 3,
            aggregator: AggregatorKind::ConvSum,
            seed: 0,
        }
    }
}

/// The undirected GCN baseline model.
#[derive(Debug, Clone)]
pub struct Gcn {
    config: GcnConfig,
    embed: Linear,
    aggregators: Vec<Aggregator>,
    combiners: Vec<Linear>,
    regressor: Mlp,
}

impl Gcn {
    /// Registers a GCN's parameters in `store`.
    pub fn new(store: &mut ParamStore, config: GcnConfig) -> Self {
        let embed = Linear::new(
            store,
            "gcn.embed",
            config.feature_dim,
            config.hidden_dim,
            config.seed,
        );
        let mut aggregators = Vec::new();
        let mut combiners = Vec::new();
        for layer in 0..config.num_layers {
            aggregators.push(Aggregator::new(
                store,
                &format!("gcn.layer{layer}.agg"),
                config.aggregator,
                config.hidden_dim,
                0,
                config.seed.wrapping_add(10 + layer as u64),
            ));
            combiners.push(Linear::new(
                store,
                &format!("gcn.layer{layer}.combine"),
                2 * config.hidden_dim,
                config.hidden_dim,
                config.seed.wrapping_add(100 + layer as u64),
            ));
        }
        let regressor = Mlp::new(
            store,
            "gcn.regressor",
            &[config.hidden_dim, config.hidden_dim, 1],
            Activation::Relu,
            true,
            config.seed.wrapping_add(1000),
        );
        Gcn {
            config,
            embed,
            aggregators,
            combiners,
            regressor,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> GcnConfig {
        self.config
    }

    /// Every edge in both directions: the source of each, and its target as
    /// the aggregator's segment id.
    fn undirected_edges(circuit: &CircuitGraph) -> (Vec<usize>, Vec<u32>) {
        let mut src = Vec::with_capacity(circuit.edges.len() * 2);
        let mut dst = Vec::with_capacity(circuit.edges.len() * 2);
        for &(u, v) in &circuit.edges {
            src.push(u);
            dst.push(v as u32);
            src.push(v);
            dst.push(u as u32);
        }
        (src, dst)
    }
}

impl ProbabilityModel for Gcn {
    fn try_forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError> {
        check_encoding(circuit, self.config.feature_dim)?;
        let (edge_src, edge_dst) = Self::undirected_edges(circuit);
        let features = g.input(circuit.features.clone());
        let mut h = self.embed.forward(g, store, features);
        for layer in 0..self.config.num_layers {
            let src_states = g.gather_rows(h, &edge_src);
            let msg = self.aggregators[layer].aggregate(g, store, src_states, h, &edge_dst, None);
            let concat = g.concat_cols(h, msg);
            let combined = self.combiners[layer].forward(g, store, concat);
            h = g.relu(combined);
        }
        Ok(self.regressor.forward(g, store, h))
    }

    fn name(&self) -> String {
        format!("GCN ({})", self.config.aggregator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureEncoding;
    use deepgate_netlist::{GateKind, Netlist};

    fn graph() -> CircuitGraph {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = n.add_gate(GateKind::And, &[g2, c]).unwrap();
        n.mark_output(g3, "y");
        CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None)
    }

    #[test]
    fn forward_produces_probabilities_for_every_node() {
        let circuit = graph();
        for kind in AggregatorKind::ALL {
            let mut store = ParamStore::new();
            let model = Gcn::new(
                &mut store,
                GcnConfig {
                    aggregator: kind,
                    hidden_dim: 16,
                    num_layers: 2,
                    ..GcnConfig::default()
                },
            );
            let pred = model.try_predict(&store, &circuit).unwrap();
            assert_eq!(pred.len(), circuit.num_nodes);
            assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)), "{kind}");
            assert!(model.name().contains("GCN"));
        }
    }
}
