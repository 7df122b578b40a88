//! The DeepGate model, trainer and evaluation metrics — the primary
//! contribution of *DeepGate: Learning Neural Representations of Logic
//! Gates* (DAC 2022).
//!
//! DeepGate learns a `d`-dimensional vector for every gate of an AIG-form
//! circuit by regressing logic-simulated signal probabilities. Its GNN
//! combines four ingredients on top of the recurrent DAG-GNN machinery of
//! [`deepgate_gnn`]:
//!
//! 1. **Additive attention aggregation** (Eq. 5) that learns to weigh
//!    controlling fan-ins more than non-controlling ones.
//! 2. **GRU state updates with fixed gate-type input** (Eq. 6) so the gate
//!    information does not vanish over recurrence iterations.
//! 3. **Reversed propagation layers** that model logic implication from
//!    outputs back towards inputs.
//! 4. **Skip connections for reconvergence structures** whose edge attribute
//!    is a sinusoidal positional encoding of the stem-to-node level distance
//!    (Eq. 7).
//!
//! [`DeepGate`] bundles the model with its parameter store; [`Trainer`]
//! optimises any [`ProbabilityModel`](deepgate_gnn::ProbabilityModel) (the
//! baselines of Table II included) with the Adam + L1 recipe of the paper.
//!
//! # Example
//!
//! ```rust
//! use deepgate_core::{DeepGate, DeepGateConfig};
//! use deepgate_gnn::{CircuitGraph, FeatureEncoding, ProbabilityModel};
//! use deepgate_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut netlist = Netlist::new("toy");
//! let a = netlist.add_input("a");
//! let b = netlist.add_input("b");
//! let g = netlist.add_gate(GateKind::And, &[a, b])?;
//! netlist.mark_output(g, "y");
//! let circuit = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AigGates, None);
//!
//! let deepgate = DeepGate::new(DeepGateConfig { hidden_dim: 16, ..DeepGateConfig::default() });
//! let probabilities = deepgate.try_predict(deepgate.store(), &circuit)?;
//! assert_eq!(probabilities.len(), circuit.num_nodes);
//!
//! // The embeddings h_v^T: the recurrence over the circuit's plan at T.
//! let (dag, store) = (deepgate.model(), deepgate.store());
//! let embeddings = dag.embed_planned(store, &dag.plan(&circuit), deepgate.config().num_iterations)?;
//! assert_eq!(embeddings.shape(), [circuit.num_nodes, 16]);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod trainer;

pub use model::{DeepGate, DeepGateConfig};
pub use trainer::{average_prediction_error, EpochStats, Trainer, TrainerConfig, TrainingHistory};
