//! The DeepGate model: configuration, construction, inference and
//! checkpointing.

use deepgate_gnn::{
    evaluate_prediction_error, AggregatorKind, CircuitGraph, DagRecConfig, DagRecGnn, GnnError,
    InferencePlan, ProbabilityModel,
};
use deepgate_nn::{Graph, NnError, ParamStore, Tensor, Var};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the [`DeepGate`] model.
///
/// The defaults follow the paper: hidden dimension 64, `T = 10` recurrence
/// iterations, attention aggregation, reversed propagation, fixed gate-type
/// input, skip connections with `L = 8` positional-encoding frequencies and a
/// per-gate-type regressor head.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Checkpoint format: configuration plus serialised weights.
#[derive(Debug, Serialize, Deserialize)]
struct Checkpoint {
    config: DeepGateConfig,
    weights: serde_json::Value,
}

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

    /// Predicts the signal probability of every node of a circuit.
    pub fn predict(&self, circuit: &CircuitGraph) -> Vec<f32> {
        self.model.predict(&self.store, circuit)
    }

    /// Fallible prediction: validates the circuit's feature encoding against
    /// the model configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::EncodingMismatch`] for incompatible circuits.
    pub fn try_predict(&self, circuit: &CircuitGraph) -> Result<Vec<f32>, GnnError> {
        self.model.try_predict(&self.store, circuit)
    }

    /// Precomputes the reusable inference state of a circuit (see
    /// [`InferencePlan`]).
    pub fn plan(&self, circuit: &CircuitGraph) -> InferencePlan {
        self.model.plan(circuit)
    }

    /// Predicts with an explicit recurrence iteration count (the paper's
    /// Section IV-D2 sweeps `T` from 1 to 50 at inference time).
    pub fn predict_with_iterations(&self, circuit: &CircuitGraph, iterations: usize) -> Vec<f32> {
        self.model
            .predict_with_iterations(&self.store, circuit, iterations)
    }

    /// Returns the final node embeddings `h_v^T` — the learned neural
    /// representations of the logic gates.
    pub fn embeddings(&self, circuit: &CircuitGraph) -> Tensor {
        self.model
            .embed_with_iterations(&self.store, circuit, self.config.num_iterations)
    }

    /// Fallible [`DeepGate::embeddings`]: validates the circuit's feature
    /// encoding against the model configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::EncodingMismatch`] for incompatible circuits.
    pub fn try_embeddings(&self, circuit: &CircuitGraph) -> Result<Tensor, GnnError> {
        self.model
            .try_embed_with_iterations(&self.store, circuit, self.config.num_iterations)
    }

    /// Average prediction error (Eq. 8) of the model over a set of labelled
    /// circuits.
    ///
    /// # Errors
    ///
    /// Returns a [`GnnError`] if any circuit has no labels attached or is
    /// incompatible with the model.
    pub fn evaluate(&self, circuits: &[CircuitGraph]) -> Result<f64, GnnError> {
        if circuits.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0f64;
        for circuit in circuits {
            total += evaluate_prediction_error(&self.try_predict(circuit)?, circuit)?;
        }
        Ok(total / circuits.len() as f64)
    }

    /// Serialises the configuration and weights to a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serde`] if serialisation fails.
    pub fn to_checkpoint(&self) -> Result<String, NnError> {
        let weights: serde_json::Value = serde_json::from_str(&self.store.to_json()?)
            .map_err(|e| NnError::Serde(e.to_string()))?;
        let checkpoint = Checkpoint {
            config: self.config,
            weights,
        };
        serde_json::to_string(&checkpoint).map_err(|e| NnError::Serde(e.to_string()))
    }

    /// Restores a model from a checkpoint produced by
    /// [`DeepGate::to_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serde`] for malformed checkpoints and
    /// [`NnError::MissingParameter`] / [`NnError::ShapeMismatch`] when the
    /// weights do not match the stored configuration.
    pub fn from_checkpoint(json: &str) -> Result<Self, NnError> {
        let checkpoint: Checkpoint =
            serde_json::from_str(json).map_err(|e| NnError::Serde(e.to_string()))?;
        let mut model = DeepGate::new(checkpoint.config);
        let weights_json = serde_json::to_string(&checkpoint.weights)
            .map_err(|e| NnError::Serde(e.to_string()))?;
        model.store.load_json(&weights_json)?;
        Ok(model)
    }
}

impl ProbabilityModel for DeepGate {
    fn forward(&self, g: &mut Graph, store: &ParamStore, circuit: &CircuitGraph) -> Var {
        self.model.forward(g, store, circuit)
    }

    fn try_forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError> {
        self.model.try_forward(g, store, circuit)
    }

    fn predict(&self, store: &ParamStore, circuit: &CircuitGraph) -> Vec<f32> {
        self.model.predict(store, circuit)
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

    #[test]
    fn prediction_and_embedding_shapes() {
        let c = circuit();
        let model = DeepGate::new(small_config());
        let pred = model.predict(&c);
        assert_eq!(pred.len(), c.num_nodes);
        assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let emb = model.embeddings(&c);
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
        let a = model.predict(&c);
        let b = restored.predict(&c);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
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
        let err = model.evaluate(&[c1, c2]).unwrap();
        assert!((0.0..=0.5).contains(&err));
        assert_eq!(model.evaluate(&[]).unwrap(), 0.0);
    }

    #[test]
    fn evaluate_rejects_unlabelled_circuits() {
        let model = DeepGate::new(small_config());
        let err = model.evaluate(&[circuit()]).unwrap_err();
        assert!(matches!(err, GnnError::UnlabelledCircuit { .. }));
    }

    #[test]
    fn plan_based_prediction_matches_direct_prediction() {
        let c = circuit();
        let model = DeepGate::new(small_config());
        let (dag, store) = (model.model(), model.store());
        let plan = model.plan(&c);
        let iterations = model.config().num_iterations;
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let mut planned = Vec::new();
        dag.predict_planned(store, &plan, iterations, &mut planned, None)
            .unwrap();
        assert_eq!(bits(&planned), bits(&model.predict(&c)));

        let embedded = dag.embed_planned(store, &plan, iterations).unwrap();
        let embeddings = model.embeddings(&c);
        assert_eq!(embedded.shape(), embeddings.shape());
        assert_eq!(bits(embedded.as_slice()), bits(embeddings.as_slice()));
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
        let p1 = model.predict_with_iterations(&c, 1);
        let p5 = model.predict_with_iterations(&c, 5);
        assert!(p1.iter().zip(&p5).any(|(a, b)| (a - b).abs() > 1e-7));
    }
}
