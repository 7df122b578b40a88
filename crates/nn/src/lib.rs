//! Minimal deep-learning substrate for the DeepGate reproduction.
//!
//! The original DeepGate implementation is built on PyTorch; the Rust
//! ecosystem has no equivalent training stack, so this crate provides the
//! small subset needed by DAG-GNN models, written from scratch:
//!
//! - [`Tensor`] — a dense row-major 2-D float tensor with the usual
//!   element-wise and matrix operations plus Xavier/normal initialisers.
//! - [`Graph`] / [`Var`] — a dynamic reverse-mode autodiff tape. Each
//!   forward pass builds a fresh graph; [`Graph::backward`] accumulates
//!   parameter gradients into a [`ParamStore`]. A parameter is recorded
//!   once per tape, however often a model uses it. A [`Graph::input`] is a
//!   constant and gets no gradient; a [`Graph::variable`] keeps its own.
//! - Dense ops (`matmul`, `add`, `add_row`, `sub`, `mul`, `scale`,
//!   `add_scalar`, `concat_cols`), activations (`sigmoid`, `tanh`, `relu`),
//!   reductions (`sum_all`, `mean_all`) and losses (`l1_loss`, `mse_loss`).
//! - Graph ops tailored to message passing on circuit DAGs:
//!   [`Graph::gather_from`] (read rows out of several variables at once, so
//!   a node's state can stay in the variable that computed it),
//!   [`Graph::gather_rows`] and [`Graph::scatter_add_rows`].
//! - Two fused ops, one tape entry each: the GRU update
//!   ([`GruCell::forward`], whose input may end in constant columns) and
//!   [`Graph::attention`] (softmax-weighted aggregation over each node's
//!   predecessor set, the core of DeepGate's attention). Their forward is
//!   [`dense`], their backward hand-written: it forms no gradient for a
//!   constant input, and always one for the op's own weights.
//! - [`dense`] — the model's dense row code: the flat layer view, the
//!   fixed-width matvec banks, the GRU update and the attention walk. The
//!   tape's fused ops and the CSR inference kernel in `deepgate-gnn` both
//!   run it, so their forward values agree bit for bit by construction.
//! - [`math`] — `exp`, `sigmoid` and `tanh` as branch-free IEEE arithmetic,
//!   the only transcendentals in the model: the tape's activations and the
//!   row code above call them, and a scalar call and a lane of a
//!   vectorised loop give the same bits.
//! - [`Linear`], [`Mlp`], [`GruCell`] — the layers used by the paper's
//!   models (d = 64 hidden states, GRU state updates, MLP regressor).
//! - The [`Adam`] optimiser, L1/MSE losses.
//! - Parameter stores as name → tensor maps, the weights of a model
//!   checkpoint.
//!
//! # Example
//!
//! ```rust
//! use deepgate_nn::{Graph, Linear, ParamStore, Tensor, Adam};
//!
//! // Fit y = 2x with a single linear layer.
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, "fit", 1, 1, 42);
//! let mut adam = Adam::with_defaults(0.1);
//! for _ in 0..500 {
//!     let mut g = Graph::new();
//!     let x = g.input(Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
//!     let target = Tensor::from_rows(&[&[2.0], &[4.0], &[6.0]]);
//!     let pred = layer.forward(&mut g, &store, x);
//!     let loss = g.mse_loss(pred, &target);
//!     g.backward(loss, &mut store);
//!     adam.step(&mut store);
//!     store.zero_grad();
//! }
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[5.0]]));
//! let pred = layer.forward(&mut g, &store, x);
//! assert!((g.value(pred).get(0, 0) - 10.0).abs() < 0.5);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
mod error;
mod fused;
mod graph;
mod layers;
pub mod math;
mod optim;
#[cfg(test)]
mod oracle;
mod params;
mod tensor;

pub use error::NnError;
pub use graph::{Graph, Var};
pub use layers::{GruCell, Linear, Mlp};
pub use optim::Adam;
pub use params::{ParamId, ParamStore};
pub use tensor::Tensor;
