//! The four aggregation functions compared in the paper: Conv. Sum,
//! Attention, DeepSet and GatedSum.
//!
//! An aggregator turns the hidden states of a node's predecessors into a
//! single message vector per node. All four operate on flattened edge lists:
//! `source_states[e]` is the hidden state of the source of edge `e` and
//! `edge_seg[e]` names the target node (as an index into the current level's
//! target list), so the reduction is a scatter-add over segments. Attention
//! is one fused tape op ([`Graph::attention`]) whose forward is the CSR
//! kernel's; the three Table II baselines are recorded from generic ops.

use deepgate_nn::{Activation, Graph, Linear, Mlp, ParamStore, Var};
use std::fmt;

/// The aggregation designs evaluated in Table II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregatorKind {
    /// Convolutional sum: a shared linear projection of each predecessor
    /// state followed by a sum (Selsam et al.).
    ConvSum,
    /// Additive attention with the target's previous state as query and the
    /// predecessor states as keys (Eq. 5 of the paper).
    Attention,
    /// DeepSet: `ρ(Σ φ(h_u))` with small MLPs for φ and ρ (Amizadeh et al.).
    DeepSet,
    /// Gated sum: a learned sigmoid gate modulates each predecessor state
    /// before summation (Zhang et al., D-VAE).
    GatedSum,
}

impl AggregatorKind {
    /// All aggregator kinds in the order used by the paper's tables.
    pub const ALL: [AggregatorKind; 4] = [
        AggregatorKind::ConvSum,
        AggregatorKind::Attention,
        AggregatorKind::DeepSet,
        AggregatorKind::GatedSum,
    ];

    /// Human-readable name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            AggregatorKind::ConvSum => "Conv. Sum",
            AggregatorKind::Attention => "Attention",
            AggregatorKind::DeepSet => "DeepSet",
            AggregatorKind::GatedSum => "GatedSum",
        }
    }
}

impl fmt::Display for AggregatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-kind parameter bundles, exposed crate-internally so the CSR
/// kernel (`crate::csr`) can match on them and read each layer's weights in
/// place out of the store.
#[derive(Debug, Clone)]
pub(crate) enum AggregatorParams {
    ConvSum {
        project: Linear,
    },
    Attention {
        query: Linear,
        key: Linear,
        edge_attr: Option<Linear>,
    },
    DeepSet {
        phi: Mlp,
        rho: Linear,
    },
    GatedSum {
        gate: Linear,
        value: Linear,
    },
}

/// A parameterised aggregation function over predecessor hidden states.
#[derive(Debug, Clone)]
pub struct Aggregator {
    kind: AggregatorKind,
    hidden_dim: usize,
    edge_attr_dim: usize,
    params: AggregatorParams,
}

impl Aggregator {
    /// Registers an aggregator's parameters in `store`.
    ///
    /// `edge_attr_dim` is the dimensionality of optional edge attributes
    /// (the positional encodings of skip connections); pass 0 when edge
    /// attributes are never supplied. Only the attention aggregator uses
    /// them.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        kind: AggregatorKind,
        hidden_dim: usize,
        edge_attr_dim: usize,
        seed: u64,
    ) -> Self {
        let params = match kind {
            AggregatorKind::ConvSum => AggregatorParams::ConvSum {
                project: Linear::new(
                    store,
                    &format!("{name}.project"),
                    hidden_dim,
                    hidden_dim,
                    seed,
                ),
            },
            AggregatorKind::Attention => AggregatorParams::Attention {
                query: Linear::new(store, &format!("{name}.query"), hidden_dim, 1, seed),
                key: Linear::new(
                    store,
                    &format!("{name}.key"),
                    hidden_dim,
                    1,
                    seed.wrapping_add(1),
                ),
                edge_attr: if edge_attr_dim > 0 {
                    Some(Linear::new(
                        store,
                        &format!("{name}.edge_attr"),
                        edge_attr_dim,
                        1,
                        seed.wrapping_add(2),
                    ))
                } else {
                    None
                },
            },
            AggregatorKind::DeepSet => AggregatorParams::DeepSet {
                phi: Mlp::new(
                    store,
                    &format!("{name}.phi"),
                    &[hidden_dim, hidden_dim],
                    Activation::Relu,
                    false,
                    seed,
                ),
                rho: Linear::new(
                    store,
                    &format!("{name}.rho"),
                    hidden_dim,
                    hidden_dim,
                    seed.wrapping_add(1),
                ),
            },
            AggregatorKind::GatedSum => AggregatorParams::GatedSum {
                gate: Linear::new(store, &format!("{name}.gate"), hidden_dim, hidden_dim, seed),
                value: Linear::new(
                    store,
                    &format!("{name}.value"),
                    hidden_dim,
                    hidden_dim,
                    seed.wrapping_add(1),
                ),
            },
        };
        Aggregator {
            kind,
            hidden_dim,
            edge_attr_dim,
            params,
        }
    }

    /// The aggregator kind.
    pub fn kind(&self) -> AggregatorKind {
        self.kind
    }

    /// The parameter bundle (crate-internal; read by the CSR kernel).
    pub(crate) fn params(&self) -> &AggregatorParams {
        &self.params
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Edge-attribute dimensionality expected by [`Aggregator::aggregate`]
    /// (0 when edge attributes are unused).
    pub fn edge_attr_dim(&self) -> usize {
        self.edge_attr_dim
    }

    /// Aggregates predecessor states into one message per target.
    ///
    /// * `source_states` — `[num_edges, d]` hidden states of edge sources.
    /// * `target_states` — `[num_targets, d]` previous hidden states of the
    ///   targets (only read by the attention aggregator, as its query).
    /// * `edge_seg` — segment id (target row) of every edge.
    /// * `edge_attr` — optional `[num_edges, edge_attr_dim]` edge attributes.
    ///
    /// Returns a `[num_targets, d]` message matrix.
    pub fn aggregate(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        source_states: Var,
        target_states: Var,
        edge_seg: &[u32],
        edge_attr: Option<Var>,
    ) -> Var {
        let num_targets = g.value(target_states).rows();
        match &self.params {
            AggregatorParams::ConvSum { project } => {
                let projected = project.forward(g, store, source_states);
                g.scatter_add_rows(projected, edge_seg, num_targets)
            }
            AggregatorParams::Attention {
                query,
                key,
                edge_attr: attr_proj,
            } => {
                let attr = attr_proj.as_ref().zip(edge_attr);
                g.attention(
                    store,
                    query,
                    key,
                    attr,
                    source_states,
                    target_states,
                    edge_seg,
                )
            }
            AggregatorParams::DeepSet { phi, rho } => {
                let transformed = phi.forward(g, store, source_states);
                let pooled = g.scatter_add_rows(transformed, edge_seg, num_targets);
                rho.forward(g, store, pooled)
            }
            AggregatorParams::GatedSum { gate, value } => {
                let gate_logits = gate.forward(g, store, source_states);
                let gates = g.sigmoid(gate_logits);
                let values = value.forward(g, store, source_states);
                let gated = g.mul(gates, values);
                g.scatter_add_rows(gated, edge_seg, num_targets)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepgate_nn::Tensor;

    fn setup(kind: AggregatorKind, attr_dim: usize) -> (ParamStore, Aggregator) {
        let mut store = ParamStore::new();
        let agg = Aggregator::new(&mut store, "agg", kind, 8, attr_dim, 7);
        (store, agg)
    }

    #[test]
    fn all_aggregators_produce_target_shaped_messages() {
        for kind in AggregatorKind::ALL {
            let (store, agg) = setup(kind, 0);
            assert_eq!(agg.kind(), kind);
            assert_eq!(agg.hidden_dim(), 8);
            let mut g = Graph::new();
            let src = g.input(Tensor::randn(5, 8, 1.0, 1));
            let targets = g.input(Tensor::randn(3, 8, 1.0, 2));
            let seg = vec![0u32, 0, 1, 2, 2];
            let msg = agg.aggregate(&mut g, &store, src, targets, &seg, None);
            assert_eq!(g.value(msg).shape(), [3, 8], "{kind}");
        }
    }

    #[test]
    fn attention_weights_sum_to_one_per_target() {
        let (store, agg) = setup(AggregatorKind::Attention, 0);
        // With identical source states, the attention message must equal the
        // (single) state regardless of how many predecessors a target has,
        // because the weights sum to one.
        let row: Vec<f32> = (0..8).map(|i| i as f32 / 8.0).collect();
        let mut g = Graph::new();
        let src = g.input(Tensor::from_rows(&[&row, &row, &row]));
        let target = g.input(Tensor::zeros(1, 8));
        let seg = vec![0u32, 0, 0];
        let msg = agg.aggregate(&mut g, &store, src, target, &seg, None);
        for (j, &expected) in row.iter().enumerate() {
            assert!((g.value(msg).get(0, j) - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_uses_edge_attributes_when_configured() {
        let (store, agg) = setup(AggregatorKind::Attention, 4);
        assert_eq!(agg.edge_attr_dim(), 4);
        let seg = vec![0u32, 0, 1, 1];
        let message = |attr: Tensor| -> Tensor {
            let mut g = Graph::new();
            let src = g.input(Tensor::randn(4, 8, 1.0, 5));
            let targets = g.input(Tensor::randn(2, 8, 1.0, 6));
            let attr = g.input(attr);
            let msg = agg.aggregate(&mut g, &store, src, targets, &seg, Some(attr));
            g.value(msg).clone()
        };
        let base = message(Tensor::zeros(4, 4));
        let with_attr = message(Tensor::full(4, 4, 3.0));
        // Bias applied to all edges of a segment cancels out in softmax only
        // if it is identical per edge; here it is, so results match. Make the
        // attribute differ per edge to observe a change.
        let mut varied = Tensor::zeros(4, 4);
        varied.set(0, 0, 5.0);
        let with_varied = message(varied);
        let diff_const: f32 = base
            .as_slice()
            .iter()
            .zip(with_attr.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        let diff_varied: f32 = base
            .as_slice()
            .iter()
            .zip(with_varied.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff_const < 1e-4);
        assert!(diff_varied > 1e-4);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(AggregatorKind::ConvSum.label(), "Conv. Sum");
        assert_eq!(AggregatorKind::GatedSum.to_string(), "GatedSum");
        assert_eq!(AggregatorKind::ALL.len(), 4);
    }
}
