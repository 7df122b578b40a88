//! Training loop shared by DeepGate and the baseline models.
//!
//! The recipe follows the paper: the Adam optimiser minimising an L1 loss
//! between predicted and simulated signal probabilities, iterating over the
//! training circuits one circuit graph at a time (topological batching makes
//! a whole circuit one "batch").

use deepgate_gnn::{
    evaluate_prediction_error, masked_l1_loss, CircuitGraph, GnnError, ProbabilityModel,
};
use deepgate_nn::{Adam, Graph, ParamStore};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the training loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of passes over the training set (the paper trains for 60).
    pub epochs: usize,
    /// Adam learning rate (the paper uses 1e-4; the reduced-scale quick
    /// configurations in this repository default to 1e-3 so they converge in
    /// minutes on a CPU).
    pub learning_rate: f32,
    /// Global gradient-norm clip applied before every optimiser step.
    pub grad_clip: f32,
    /// Seed controlling the epoch shuffling of training circuits.
    pub shuffle_seed: u64,
    /// Evaluate on the validation set every `eval_every` epochs (0 disables
    /// intermediate evaluation; the final epoch is always evaluated).
    pub eval_every: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 60,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            shuffle_seed: 0,
            eval_every: 10,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Average prediction error on the validation set, when evaluated this
    /// epoch.
    pub valid_error: Option<f64>,
}

/// The loss / error trajectory of a training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Per-epoch statistics in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainingHistory {
    /// The best (lowest) validation error observed, if any epoch was
    /// evaluated.
    pub fn best_valid_error(&self) -> Option<f64> {
        self.epochs
            .iter()
            .filter_map(|e| e.valid_error)
            .fold(None, |best, e| Some(best.map_or(e, |b: f64| b.min(e))))
    }

    /// The final training loss.
    pub fn final_train_loss(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.train_loss)
    }
}

/// Trains any [`ProbabilityModel`] with the Adam + L1 recipe of the paper.
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    optimizer: Adam,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer {
            optimizer: Adam::with_defaults(config.learning_rate),
            config,
        }
    }

    /// The trainer configuration.
    pub fn config(&self) -> TrainerConfig {
        self.config
    }

    /// Runs the training loop.
    ///
    /// `train` and `valid` must be labelled circuit graphs. Returns the
    /// per-epoch history; the model parameters in `store` are updated in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::UnlabelledCircuit`] if any circuit has no labels
    /// attached (checked up front, before any optimiser step runs) and
    /// [`GnnError::EncodingMismatch`] if a circuit's feature encoding does
    /// not match the model.
    pub fn train<M: ProbabilityModel + ?Sized>(
        &mut self,
        model: &M,
        store: &mut ParamStore,
        train: &[CircuitGraph],
        valid: &[CircuitGraph],
    ) -> Result<TrainingHistory, GnnError> {
        for circuit in train.iter().chain(valid) {
            if circuit.labels.is_none() {
                return Err(GnnError::UnlabelledCircuit {
                    name: circuit.name.clone(),
                });
            }
        }
        let mut history = TrainingHistory::default();
        let mut rng = SmallRng::seed_from_u64(self.config.shuffle_seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for &idx in &order {
                let circuit = &train[idx];
                let mut g = Graph::new();
                let pred = model.try_forward(&mut g, store, circuit)?;
                let loss = masked_l1_loss(&mut g, pred, circuit)?;
                epoch_loss += g.value(loss).get(0, 0) as f64;
                g.backward(loss, store);
                store.clip_grad_norm(self.config.grad_clip);
                self.optimizer.step(store);
                store.zero_grad();
            }
            let train_loss = if train.is_empty() {
                0.0
            } else {
                epoch_loss / train.len() as f64
            };
            let is_last = epoch + 1 == self.config.epochs;
            let evaluate_now = is_last
                || (self.config.eval_every > 0 && (epoch + 1) % self.config.eval_every == 0);
            let valid_error = if evaluate_now && !valid.is_empty() {
                Some(average_prediction_error(model, store, valid)?)
            } else {
                None
            };
            history.epochs.push(EpochStats {
                epoch,
                train_loss,
                valid_error,
            });
        }
        Ok(history)
    }
}

/// Average prediction error (Eq. 8) of a model over a set of labelled
/// circuits, averaged per circuit.
///
/// # Errors
///
/// Returns a [`GnnError`] if any circuit has no labels attached or is
/// incompatible with the model.
pub fn average_prediction_error<M: ProbabilityModel + ?Sized>(
    model: &M,
    store: &ParamStore,
    circuits: &[CircuitGraph],
) -> Result<f64, GnnError> {
    if circuits.is_empty() {
        return Ok(0.0);
    }
    let mut total = 0.0f64;
    for circuit in circuits {
        total += evaluate_prediction_error(&model.try_predict(store, circuit)?, circuit)?;
    }
    Ok(total / circuits.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_gnn::{AggregatorKind, DagRecConfig, DagRecGnn, FeatureEncoding};
    use deepgate_netlist::{GateKind, Netlist, NetlistBuilder};
    use deepgate_sim::SignalProbability;

    /// Builds a handful of small labelled circuits.
    fn labelled_circuits() -> Vec<CircuitGraph> {
        let mut circuits = Vec::new();
        // A few structurally different small circuits.
        for variant in 0..4u32 {
            let mut b = NetlistBuilder::new(format!("c{variant}"));
            let xs = b.input_word("x", 4);
            let g = match variant {
                0 => b.reduce(GateKind::And, &xs),
                1 => b.reduce(GateKind::Or, &xs),
                2 => b.reduce(GateKind::Xor, &xs),
                _ => {
                    let a = b.and2(xs[0], xs[1]);
                    let o = b.or2(xs[2], xs[3]);
                    b.xor2(a, o)
                }
            };
            b.output("y", g);
            let netlist = b.finish();
            let aig = deepgate_aig::Aig::from_netlist(&netlist).unwrap();
            let expanded = aig.to_netlist();
            let probs = SignalProbability::simulate(&expanded, 4096, 7).unwrap();
            let labels: Vec<f32> = probs.values().iter().map(|&v| v as f32).collect();
            circuits.push(CircuitGraph::from_netlist(
                &expanded,
                FeatureEncoding::AigGates,
                Some(labels),
            ));
        }
        circuits
    }

    #[test]
    fn training_reduces_loss_and_error() {
        let circuits = labelled_circuits();
        let (train, valid) = circuits.split_at(3);
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(
            &mut store,
            DagRecConfig {
                hidden_dim: 16,
                num_iterations: 3,
                aggregator: AggregatorKind::Attention,
                fix_gate_input: true,
                use_skip_connections: true,
                regressor_hidden: 8,
                ..DagRecConfig::default()
            },
        );
        let error_before = average_prediction_error(&model, &store, valid).unwrap();
        let mut trainer = Trainer::new(TrainerConfig {
            epochs: 30,
            learning_rate: 5e-3,
            eval_every: 0,
            ..TrainerConfig::default()
        });
        let history = trainer.train(&model, &mut store, train, valid).unwrap();
        assert_eq!(history.epochs.len(), 30);
        let first_loss = history.epochs.first().unwrap().train_loss;
        let last_loss = history.final_train_loss().unwrap();
        assert!(
            last_loss < first_loss,
            "loss did not decrease: {first_loss} -> {last_loss}"
        );
        // The last epoch is always evaluated.
        let error_after = history.best_valid_error().unwrap();
        assert!(
            error_after < error_before,
            "validation error did not improve: {error_before} -> {error_after}"
        );
    }

    #[test]
    fn history_helpers() {
        let history = TrainingHistory {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 0.4,
                    valid_error: None,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.3,
                    valid_error: Some(0.2),
                },
                EpochStats {
                    epoch: 2,
                    train_loss: 0.25,
                    valid_error: Some(0.22),
                },
            ],
        };
        assert_eq!(history.best_valid_error(), Some(0.2));
        assert_eq!(history.final_train_loss(), Some(0.25));
        assert_eq!(TrainingHistory::default().best_valid_error(), None);
    }

    #[test]
    fn empty_training_set_is_handled() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g, "y");
        let mut circuit = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        circuit.set_labels(vec![0.5, 0.5, 0.25]);
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(
            &mut store,
            DagRecConfig {
                hidden_dim: 8,
                num_iterations: 1,
                regressor_hidden: 4,
                ..DagRecConfig::default()
            },
        );
        let mut trainer = Trainer::new(TrainerConfig {
            epochs: 2,
            ..TrainerConfig::default()
        });
        let history = trainer.train(&model, &mut store, &[], &[circuit]).unwrap();
        assert_eq!(history.epochs.len(), 2);
        assert_eq!(history.epochs[0].train_loss, 0.0);
        assert_eq!(average_prediction_error(&model, &store, &[]).unwrap(), 0.0);
    }

    #[test]
    fn unlabelled_circuit_fails_before_any_step() {
        let mut n = Netlist::new("bare");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g, "y");
        let circuit = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(
            &mut store,
            DagRecConfig {
                hidden_dim: 8,
                num_iterations: 1,
                regressor_hidden: 4,
                ..DagRecConfig::default()
            },
        );
        let mut trainer = Trainer::new(TrainerConfig::default());
        let err = trainer
            .train(&model, &mut store, std::slice::from_ref(&circuit), &[])
            .unwrap_err();
        assert!(matches!(
            err,
            deepgate_gnn::GnnError::UnlabelledCircuit { .. }
        ));
        let err = average_prediction_error(&model, &store, &[circuit]).unwrap_err();
        assert!(matches!(
            err,
            deepgate_gnn::GnnError::UnlabelledCircuit { .. }
        ));
    }
}
