//! The common interface all probability-prediction models implement.

use crate::{CircuitGraph, GnnError};
use deepgate_nn::{Graph, ParamStore, Tensor, Var};

/// A model that predicts the signal probability of every node of a circuit.
///
/// The trainer in `deepgate-core` and the benchmark harness treat every model
/// — GCN, DAG-ConvGNN, DAG-RecGNN and DeepGate itself — through this trait,
/// which keeps the comparison of Table II honest: they share the same data
/// pipeline, the same loss and the same evaluation metric.
///
/// Both operations are fallible: a circuit whose feature encoding does not
/// match the model is a [`GnnError::EncodingMismatch`] from
/// [`check_encoding`], never a panic.
pub trait ProbabilityModel {
    /// Builds the forward pass on the autodiff tape and returns the
    /// `[num_nodes, 1]` prediction variable (values in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::EncodingMismatch`] for an incompatible circuit,
    /// before anything is recorded.
    fn try_forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError>;

    /// Gradient-free prediction of every node's probability. The default
    /// runs [`ProbabilityModel::try_forward`] on a scratch tape; `DagRecGnn`
    /// overrides it with its tape-free kernel, which is bit-identical.
    ///
    /// # Errors
    ///
    /// Same contract as [`ProbabilityModel::try_forward`].
    fn try_predict(
        &self,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Vec<f32>, GnnError> {
        let mut g = Graph::new();
        let pred = self.try_forward(&mut g, store, circuit)?;
        Ok(g.value(pred).as_slice().to_vec())
    }

    /// A short, human-readable model name (used in experiment tables).
    fn name(&self) -> String;
}

/// The one compatibility check between a circuit and a model: the circuit's
/// feature encoding must have the model's `feature_dim` columns.
///
/// # Errors
///
/// Returns [`GnnError::EncodingMismatch`] when it does not.
pub fn check_encoding(circuit: &CircuitGraph, feature_dim: usize) -> Result<(), GnnError> {
    let got = circuit.encoding.dimension();
    if got != feature_dim {
        return Err(GnnError::EncodingMismatch {
            expected: feature_dim,
            got,
        });
    }
    Ok(())
}

/// Average prediction error (Eq. 8 of the paper): the mean absolute
/// difference between predictions and labels.
///
/// The error is computed over logic-gate nodes only (primary inputs have a
/// trivially known probability of 0.5 and would dilute the metric).
///
/// # Errors
///
/// Returns [`GnnError::UnlabelledCircuit`] if the circuit has no labels and
/// [`GnnError::LengthMismatch`] if the prediction length does not match.
pub fn evaluate_prediction_error(
    predictions: &[f32],
    circuit: &CircuitGraph,
) -> Result<f64, GnnError> {
    let labels = circuit
        .labels
        .as_ref()
        .ok_or_else(|| GnnError::UnlabelledCircuit {
            name: circuit.name.clone(),
        })?;
    if predictions.len() != labels.len() {
        return Err(GnnError::LengthMismatch {
            name: circuit.name.clone(),
            expected: labels.len(),
            got: predictions.len(),
        });
    }
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for i in 0..labels.len() {
        if circuit.gate_mask[i] {
            sum += (predictions[i] as f64 - labels[i] as f64).abs();
            count += 1;
        }
    }
    Ok(if count == 0 { 0.0 } else { sum / count as f64 })
}

/// Computes the L1 training loss over gate nodes on the tape: predictions and
/// labels are masked so primary inputs do not contribute gradient.
///
/// # Errors
///
/// Returns [`GnnError::UnlabelledCircuit`] if the circuit has no labels.
pub fn masked_l1_loss(
    g: &mut Graph,
    predictions: Var,
    circuit: &CircuitGraph,
) -> Result<Var, GnnError> {
    if circuit.labels.is_none() {
        return Err(GnnError::UnlabelledCircuit {
            name: circuit.name.clone(),
        });
    }
    let labels = circuit.label_tensor();
    let mask: Vec<f32> = circuit
        .gate_mask
        .iter()
        .map(|&m| if m { 1.0 } else { 0.0 })
        .collect();
    let num_gates = circuit.num_gates().max(1) as f32;
    let mask_t = g.input(Tensor::column(&mask));
    let masked_pred = g.mul(predictions, mask_t);
    let masked_labels = Tensor::column(
        &labels
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&l, &m)| l * m)
            .collect::<Vec<f32>>(),
    );
    // Mean over all nodes rescaled to a mean over gate nodes.
    let raw = g.l1_loss(masked_pred, &masked_labels);
    Ok(g.scale(raw, circuit.num_nodes as f32 / num_gates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AggregatorKind, DagConvConfig, DagConvGnn, DagRecConfig, DagRecGnn, FeatureEncoding, Gcn,
        GcnConfig,
    };
    use deepgate_netlist::{GateKind, Netlist};

    fn labelled_graph() -> CircuitGraph {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g1, "y");
        let mut graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        graph.set_labels(vec![0.5, 0.5, 0.25]);
        graph
    }

    #[test]
    fn prediction_error_only_counts_gates() {
        let graph = labelled_graph();
        // Inputs are wrong by 0.5 but must not count; the gate is wrong by 0.05.
        let err = evaluate_prediction_error(&[0.0, 1.0, 0.30], &graph).unwrap();
        assert!((err - 0.05).abs() < 1e-6);
        // Perfect prediction gives zero error.
        assert_eq!(
            evaluate_prediction_error(&[0.5, 0.5, 0.25], &graph).unwrap(),
            0.0
        );
    }

    #[test]
    fn masked_loss_ignores_input_nodes() {
        let graph = labelled_graph();
        let mut g = Graph::new();
        // Predictions that are perfect on the gate but wrong on the inputs.
        let pred = g.input(Tensor::column(&[0.9, 0.1, 0.25]));
        let loss = masked_l1_loss(&mut g, pred, &graph).unwrap();
        assert!(g.value(loss).get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn prediction_error_reports_length_mismatch() {
        let graph = labelled_graph();
        let err = evaluate_prediction_error(&[0.1], &graph).unwrap_err();
        assert!(matches!(
            err,
            GnnError::LengthMismatch {
                expected: 3,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn unlabelled_circuit_is_an_error_not_a_panic() {
        let mut n = Netlist::new("bare");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g1, "y");
        let graph = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        assert!(matches!(
            evaluate_prediction_error(&[0.5, 0.5, 0.25], &graph),
            Err(GnnError::UnlabelledCircuit { .. })
        ));
        let mut g = Graph::new();
        let pred = g.input(Tensor::column(&[0.5, 0.5, 0.25]));
        assert!(matches!(
            masked_l1_loss(&mut g, pred, &graph),
            Err(GnnError::UnlabelledCircuit { .. })
        ));
    }

    #[test]
    fn mismatched_feature_encoding_is_rejected() {
        // A 12-feature untransformed netlist against 3-feature models.
        let mut n = Netlist::new("raw");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        n.mark_output(g1, "y");
        let circuit = CircuitGraph::from_netlist(&n, FeatureEncoding::AllGates, None);
        let mut store = ParamStore::new();
        let deepgate = DagRecConfig {
            hidden_dim: 8,
            aggregator: AggregatorKind::Attention,
            fix_gate_input: true,
            use_skip_connections: true,
            per_type_regressor: true,
            ..DagRecConfig::default()
        };
        let models: [Box<dyn ProbabilityModel>; 4] = [
            Box::new(Gcn::new(
                &mut store,
                GcnConfig {
                    hidden_dim: 8,
                    ..GcnConfig::default()
                },
            )),
            Box::new(DagConvGnn::new(
                &mut store,
                DagConvConfig {
                    hidden_dim: 8,
                    ..DagConvConfig::default()
                },
            )),
            Box::new(DagRecGnn::new(
                &mut store,
                DagRecConfig {
                    hidden_dim: 8,
                    ..DagRecConfig::default()
                },
            )),
            Box::new(DagRecGnn::new(&mut store, deepgate)),
        ];
        let mismatch = GnnError::EncodingMismatch {
            expected: 3,
            got: 12,
        };
        for model in &models {
            let mut g = Graph::new();
            let forward = model.try_forward(&mut g, &store, &circuit);
            assert_eq!(forward.unwrap_err(), mismatch, "{}", model.name());
            assert_eq!(g.len(), 0, "{}: nothing recorded", model.name());
            let predict = model.try_predict(&store, &circuit);
            assert_eq!(predict.unwrap_err(), mismatch, "{}", model.name());
        }
    }
}
