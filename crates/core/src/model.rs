//! The DeepGate model: configuration, construction, inference and
//! checkpointing.

use deepgate_gnn::{
    AggregatorKind, CircuitGraph, DagRecConfig, DagRecGnn, GnnError, ProbabilityModel,
};
use deepgate_nn::{Graph, NnError, ParamStore, Tensor, Var};
use std::collections::HashMap;

/// Hyper-parameters of the [`DeepGate`] model.
///
/// The defaults follow the paper: hidden dimension 64, `T = 10` recurrence
/// iterations, attention aggregation, reversed propagation, fixed gate-type
/// input, skip connections with `L = 8` positional-encoding frequencies and a
/// per-gate-type regressor head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepGateConfig {
    /// Hidden-state dimensionality `d`.
    pub hidden_dim: usize,
    /// Number of recurrence iterations `T`.
    pub num_iterations: usize,
    /// Whether the reconvergence skip connections are used (the "w/ SC"
    /// configuration of Table II).
    pub use_skip_connections: bool,
    /// Number of frequency pairs `L` in the positional encoding (Eq. 7).
    pub skip_encoding_frequencies: usize,
    /// Whether reversed propagation layers are used.
    pub reverse_layer: bool,
    /// Node-feature dimensionality (3 for AIG circuits, 12 when training on
    /// untransformed netlists for the Table IV ablation).
    pub feature_dim: usize,
    /// Hidden width of the regressor MLP.
    pub regressor_hidden: usize,
    /// Whether a separate regressor head is used per gate type.
    pub per_type_regressor: bool,
    /// Seed for weight initialisation.
    pub seed: u64,
}

serde::fields!(Serialize, Deserialize for DeepGateConfig {
    hidden_dim,
    num_iterations,
    use_skip_connections,
    skip_encoding_frequencies,
    reverse_layer,
    feature_dim,
    regressor_hidden,
    per_type_regressor,
    seed,
});

impl Default for DeepGateConfig {
    fn default() -> Self {
        DeepGateConfig {
            hidden_dim: 64,
            num_iterations: 10,
            use_skip_connections: true,
            skip_encoding_frequencies: 8,
            reverse_layer: true,
            feature_dim: 3,
            regressor_hidden: 32,
            per_type_regressor: true,
            seed: 0,
        }
    }
}

impl DeepGateConfig {
    /// The equivalent [`DagRecConfig`] used to instantiate the underlying
    /// recurrent DAG-GNN.
    pub fn to_dag_rec_config(self) -> DagRecConfig {
        DagRecConfig {
            feature_dim: self.feature_dim,
            hidden_dim: self.hidden_dim,
            num_iterations: self.num_iterations,
            aggregator: AggregatorKind::Attention,
            reverse_layer: self.reverse_layer,
            fix_gate_input: true,
            use_skip_connections: self.use_skip_connections,
            skip_encoding_frequencies: self.skip_encoding_frequencies,
            regressor_hidden: self.regressor_hidden,
            per_type_regressor: self.per_type_regressor,
            seed: self.seed,
        }
    }
}

/// Checkpoint format: configuration plus every weight tensor by name.
#[derive(Debug)]
struct Checkpoint {
    config: DeepGateConfig,
    weights: HashMap<String, Tensor>,
}

serde::fields!(Serialize, Deserialize for Checkpoint { config, weights });

/// The DeepGate model together with its trainable parameters.
///
/// The struct owns a [`ParamStore`]; training goes through
/// [`crate::Trainer`], which borrows the store mutably while treating the
/// model through the [`ProbabilityModel`] interface shared with the
/// baselines.
#[derive(Debug, Clone)]
pub struct DeepGate {
    config: DeepGateConfig,
    store: ParamStore,
    model: DagRecGnn,
}

impl DeepGate {
    /// Creates a DeepGate model with freshly initialised weights.
    pub fn new(config: DeepGateConfig) -> Self {
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, config.to_dag_rec_config());
        DeepGate {
            config,
            store,
            model,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> DeepGateConfig {
        self.config
    }

    /// The underlying recurrent DAG-GNN (useful for composing with the
    /// generic [`crate::Trainer`]).
    pub fn model(&self) -> &DagRecGnn {
        &self.model
    }

    /// The parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store (used by the trainer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Number of trainable scalar weights.
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    /// Serialises the configuration and weights to a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serde`] if serialisation fails.
    pub fn to_checkpoint(&self) -> Result<String, NnError> {
        let checkpoint = Checkpoint {
            config: self.config,
            weights: self.store.to_map(),
        };
        serde_json::to_string(&checkpoint).map_err(|e| NnError::Serde(e.to_string()))
    }

    /// Restores a model from a checkpoint produced by
    /// [`DeepGate::to_checkpoint`]. The configuration is held to the weights
    /// the checkpoint carries before the model is built, so a hostile
    /// configuration cannot allocate more than the file holds.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serde`] for malformed checkpoints and
    /// [`NnError::MissingParameter`] / [`NnError::ShapeMismatch`] when the
    /// weights do not match the stored configuration.
    pub fn from_checkpoint(json: &str) -> Result<Self, NnError> {
        let checkpoint: Checkpoint =
            serde_json::from_str(json).map_err(|e| NnError::Serde(e.to_string()))?;
        let implied = checkpoint.config.to_dag_rec_config().num_weights();
        let carried = checkpoint.weights.values().map(Tensor::len).sum();
        if implied > carried {
            return Err(NnError::ShapeMismatch {
                name: "weights".to_string(),
                expected: vec![implied],
                got: vec![carried],
            });
        }
        let mut model = DeepGate::new(checkpoint.config);
        model.store.load_map(checkpoint.weights)?;
        Ok(model)
    }
}

impl ProbabilityModel for DeepGate {
    fn try_forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError> {
        self.model.try_forward(g, store, circuit)
    }

    fn try_predict(
        &self,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Vec<f32>, GnnError> {
        self.model.try_predict(store, circuit)
    }

    fn name(&self) -> String {
        self.model.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_gnn::FeatureEncoding;
    use deepgate_netlist::{GateKind, Netlist};

    fn circuit() -> CircuitGraph {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = n.add_gate(GateKind::And, &[g1, c]).unwrap();
        let g4 = n.add_gate(GateKind::And, &[g2, g3]).unwrap();
        n.mark_output(g4, "y");
        CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None)
    }

    fn small_config() -> DeepGateConfig {
        DeepGateConfig {
            hidden_dim: 12,
            num_iterations: 2,
            regressor_hidden: 8,
            ..DeepGateConfig::default()
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn prediction_and_embedding_shapes() {
        let c = circuit();
        let model = DeepGate::new(small_config());
        let pred = model.try_predict(model.store(), &c).unwrap();
        assert_eq!(pred.len(), c.num_nodes);
        assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let dag = model.model();
        let emb = dag.embed_planned(model.store(), &dag.plan(&c), 2).unwrap();
        assert_eq!(emb.shape(), [c.num_nodes, 12]);
        assert!(model.num_weights() > 0);
        assert!(ProbabilityModel::name(&model).contains("DeepGate"));
    }

    #[test]
    fn checkpoint_roundtrip_preserves_predictions() {
        let c = circuit();
        let model = DeepGate::new(small_config());
        let json = model.to_checkpoint().unwrap();
        let restored = DeepGate::from_checkpoint(&json).unwrap();
        assert_eq!(restored.config(), model.config());
        assert_eq!(restored.to_checkpoint().unwrap(), json);
        let a = model.try_predict(model.store(), &c).unwrap();
        let b = restored.try_predict(restored.store(), &c).unwrap();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn from_checkpoint_rejects_garbage() {
        assert!(DeepGate::from_checkpoint("not json").is_err());
        assert!(DeepGate::from_checkpoint("{}").is_err());
    }

    #[test]
    fn evaluate_averages_over_circuits() {
        let mut c1 = circuit();
        let mut c2 = circuit();
        let n = c1.num_nodes;
        c1.set_labels(vec![0.5; n]);
        c2.set_labels(vec![0.5; n]);
        let model = DeepGate::new(small_config());
        let err = crate::average_prediction_error(&model, model.store(), &[c1, c2]).unwrap();
        assert!((0.0..=0.5).contains(&err));
    }

    #[test]
    fn plan_based_prediction_matches_direct_prediction() {
        let c = circuit();
        let model = DeepGate::new(small_config());
        let (dag, store) = (model.model(), model.store());
        let mut planned = Vec::new();
        dag.predict_planned(store, &dag.plan(&c), 2, &mut planned, None)
            .unwrap();
        assert_eq!(bits(&planned), bits(&model.try_predict(store, &c).unwrap()));
        let mut g = Graph::new();
        let taped = model.try_forward(&mut g, store, &c).unwrap();
        assert_eq!(bits(&planned), bits(g.value(taped).as_slice()));
    }

    #[test]
    fn config_maps_to_dag_rec_config() {
        let config = small_config();
        let dag = config.to_dag_rec_config();
        assert_eq!(dag.hidden_dim, 12);
        assert_eq!(dag.aggregator, AggregatorKind::Attention);
        assert!(dag.fix_gate_input);
        assert!(dag.use_skip_connections);
    }

    #[test]
    fn iteration_count_changes_prediction() {
        let c = circuit();
        let model = DeepGate::new(small_config());
        let (dag, store) = (model.model(), model.store());
        let plan = dag.plan(&c);
        let (mut p1, mut p5) = (Vec::new(), Vec::new());
        dag.predict_planned(store, &plan, 1, &mut p1, None).unwrap();
        dag.predict_planned(store, &plan, 5, &mut p5, None).unwrap();
        assert!(p1.iter().zip(&p5).any(|(a, b)| (a - b).abs() > 1e-7));
    }
}
