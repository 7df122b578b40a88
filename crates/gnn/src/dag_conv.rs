//! The DAG-ConvGNN baseline: layered propagation in topological order
//! (Eq. 3 of the paper) with per-layer parameters and a single forward pass.

use crate::csr::InferencePlan;
use crate::state::{Combine, NodeStates};
use crate::{check_encoding, Aggregator, AggregatorKind, CircuitGraph, GnnError, ProbabilityModel};
use deepgate_nn::{Graph, GruCell, Linear, Mlp, ParamStore, Var};

/// Configuration of the [`DagConvGnn`] baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConvConfig {
    /// Node feature dimensionality.
    pub feature_dim: usize,
    /// Hidden state dimensionality.
    pub hidden_dim: usize,
    /// Number of stacked layers (each with its own parameters).
    pub num_layers: usize,
    /// Aggregation function.
    pub aggregator: AggregatorKind,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl Default for DagConvConfig {
    fn default() -> Self {
        DagConvConfig {
            feature_dim: 3,
            hidden_dim: 64,
            num_layers: 3,
            aggregator: AggregatorKind::ConvSum,
            seed: 0,
        }
    }
}

/// The DAG-ConvGNN baseline model.
///
/// Within a layer the nodes are processed level by level so a node aggregates
/// the *current-layer* states of its predecessors (Eq. 3); the GRU combine
/// mixes that message with the node's previous-layer state. Unlike
/// [`crate::DagRecGnn`] each layer has its own parameters and there is no
/// reversed propagation.
#[derive(Debug, Clone)]
pub struct DagConvGnn {
    config: DagConvConfig,
    embed: Linear,
    aggregators: Vec<Aggregator>,
    combiners: Vec<GruCell>,
    regressor: Mlp,
}

impl DagConvGnn {
    /// Registers the model's parameters in `store`.
    pub fn new(store: &mut ParamStore, config: DagConvConfig) -> Self {
        let embed = Linear::new(
            store,
            "dagconv.embed",
            config.feature_dim,
            config.hidden_dim,
            config.seed,
        );
        let mut aggregators = Vec::new();
        let mut combiners = Vec::new();
        for layer in 0..config.num_layers {
            aggregators.push(Aggregator::new(
                store,
                &format!("dagconv.layer{layer}.agg"),
                config.aggregator,
                config.hidden_dim,
                0,
                config.seed.wrapping_add(10 + layer as u64),
            ));
            combiners.push(GruCell::new(
                store,
                &format!("dagconv.layer{layer}.gru"),
                config.hidden_dim,
                config.hidden_dim,
                config.seed.wrapping_add(100 + layer as u64),
            ));
        }
        let regressor = Mlp::new(
            store,
            "dagconv.regressor",
            &[config.hidden_dim, config.hidden_dim, 1],
            true,
            config.seed.wrapping_add(1000),
        );
        DagConvGnn {
            config,
            embed,
            aggregators,
            combiners,
            regressor,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> DagConvConfig {
        self.config
    }

    /// The tape forward with each GRU update recorded by `combine`.
    pub(crate) fn forward_with(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
        combine: Combine,
    ) -> Result<Var, GnnError> {
        check_encoding(circuit, self.config.feature_dim)?;
        // No skip edges and no edge attributes: the forward half of the
        // schedule alone.
        let plan = InferencePlan::compile(circuit, 0);
        let features = g.input(plan.feature_rows(0..circuit.num_nodes));
        let embedded = self.embed.forward(g, store, features);
        let mut states = NodeStates::new(g, embedded);
        let segs: Vec<Vec<u32>> = (plan.forward.levels())
            .map(|lvl| lvl.edge_rows().collect())
            .collect();
        for layer in 0..self.config.num_layers {
            // Levels run in ascending order and each node is the target of
            // one level, so a level's targets still hold the previous
            // layer's states when it reads them.
            for (lvl, seg) in plan.forward.levels().zip(&segs) {
                let targets = lvl.start..lvl.end;
                let src_states = states.read(g, lvl.sources().iter().map(|&src| src as usize));
                let h_targets_prev = states.read(g, targets.clone());
                let msg = self.aggregators[layer].aggregate(
                    g,
                    store,
                    src_states,
                    h_targets_prev,
                    seg,
                    None,
                );
                let updated = combine(&self.combiners[layer], g, store, msg, None, h_targets_prev);
                states.write(targets, updated);
            }
        }
        let h = states.read_all(g, &plan.perm);
        Ok(self.regressor.forward(g, store, h))
    }
}

impl ProbabilityModel for DagConvGnn {
    fn try_forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError> {
        self.forward_with(g, store, circuit, GruCell::forward)
    }

    fn name(&self) -> String {
        format!("DAG-ConvGNN ({})", self.config.aggregator)
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
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = n.add_gate(GateKind::And, &[g1, g2]).unwrap();
        n.mark_output(g3, "y");
        CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None)
    }

    #[test]
    fn forward_produces_probabilities_for_every_node() {
        let circuit = graph();
        for kind in AggregatorKind::ALL {
            let mut store = ParamStore::new();
            let model = DagConvGnn::new(
                &mut store,
                DagConvConfig {
                    aggregator: kind,
                    hidden_dim: 16,
                    num_layers: 2,
                    ..DagConvConfig::default()
                },
            );
            let pred = model.try_predict(&store, &circuit).unwrap();
            assert_eq!(pred.len(), circuit.num_nodes);
            assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)), "{kind}");
            assert!(model.name().contains("DAG-ConvGNN"));
        }
    }

    #[test]
    fn deeper_models_have_more_parameters() {
        let mut store2 = ParamStore::new();
        let _ = DagConvGnn::new(
            &mut store2,
            DagConvConfig {
                num_layers: 2,
                hidden_dim: 8,
                ..DagConvConfig::default()
            },
        );
        let mut store4 = ParamStore::new();
        let _ = DagConvGnn::new(
            &mut store4,
            DagConvConfig {
                num_layers: 4,
                hidden_dim: 8,
                ..DagConvConfig::default()
            },
        );
        assert!(store4.num_weights() > store2.num_weights());
    }
}
