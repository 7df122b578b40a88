//! The recurrent DAG-GNN family (DAG-RecGNN) — the machinery shared by the
//! strongest baseline of the paper and by DeepGate itself.
//!
//! One parameter set is applied for `T` iterations (Eq. 4). Every iteration
//! runs a forward propagation in topological order followed, optionally, by a
//! reversed propagation that models logic implication from outputs back to
//! inputs. The configuration flags select between the paper's variants:
//!
//! | paper model | aggregator | `reverse_layer` | `fix_gate_input` | `use_skip_connections` |
//! |---|---|---|---|---|
//! | DAG-RecGNN (Conv. Sum / DeepSet / GatedSum) | respective | yes | no | no |
//! | DeepGate w/o SC | Attention | yes | yes | no |
//! | DeepGate w/ SC | Attention | yes | yes | yes |

use crate::csr::{InferencePlan, Level};
use crate::state::{Combine, NodeStates};
use crate::{check_encoding, Aggregator, AggregatorKind, CircuitGraph, GnnError, ProbabilityModel};
use deepgate_nn::{Activation, Graph, GruCell, Linear, Mlp, ParamStore, Tensor, Var};

/// Configuration of a [`DagRecGnn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagRecConfig {
    /// Node feature dimensionality (3 for AIG circuits).
    pub feature_dim: usize,
    /// Hidden state dimensionality (the paper uses 64).
    pub hidden_dim: usize,
    /// Number of recurrence iterations `T` (the paper uses 10).
    pub num_iterations: usize,
    /// Aggregation function.
    pub aggregator: AggregatorKind,
    /// Whether a reversed propagation layer follows every forward layer.
    pub reverse_layer: bool,
    /// Whether the gate-type one-hot is concatenated to the aggregated
    /// message as GRU input on every update (DeepGate keeps it fixed to
    /// avoid the gate information vanishing over iterations).
    pub fix_gate_input: bool,
    /// Whether skip connections from reconvergence analysis are added.
    pub use_skip_connections: bool,
    /// Number of frequency pairs `L` of the positional encoding (Eq. 7).
    pub skip_encoding_frequencies: usize,
    /// Hidden width of the MLP regressor.
    pub regressor_hidden: usize,
    /// Whether a separate regressor head is used per gate type (the paper
    /// shares MLP weights only among nodes of the same type).
    pub per_type_regressor: bool,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl Default for DagRecConfig {
    fn default() -> Self {
        DagRecConfig {
            feature_dim: 3,
            hidden_dim: 64,
            num_iterations: 10,
            aggregator: AggregatorKind::DeepSet,
            reverse_layer: true,
            fix_gate_input: false,
            use_skip_connections: false,
            skip_encoding_frequencies: 8,
            regressor_hidden: 32,
            per_type_regressor: false,
            seed: 0,
        }
    }
}

impl DagRecConfig {
    /// Dimensionality of the positional-encoding edge attribute
    /// (saturating, like every size [`DagRecConfig::num_weights`] reads).
    pub fn edge_attr_dim(&self) -> usize {
        if self.use_skip_connections {
            self.skip_encoding_frequencies.saturating_mul(2)
        } else {
            0
        }
    }

    /// GRU input dimensionality (message plus, optionally, the gate one-hot).
    pub fn gru_input_dim(&self) -> usize {
        if self.fix_gate_input {
            self.hidden_dim.saturating_add(self.feature_dim)
        } else {
            self.hidden_dim
        }
    }

    /// The number of scalar weights [`DagRecGnn::new`] registers under this
    /// configuration, in closed form and saturating — so a checkpoint
    /// reader can hold a configuration to the weights the file carries
    /// before anything is allocated.
    pub fn num_weights(&self) -> usize {
        let (d, f, r) = (self.hidden_dim, self.feature_dim, self.regressor_hidden);
        // A biased `[i, o]` linear layer.
        let linear = |i: usize, o: usize| i.saturating_mul(o).saturating_add(o);
        let aggregator = |attr_dim: usize| match self.aggregator {
            AggregatorKind::ConvSum => linear(d, d),
            AggregatorKind::Attention => {
                let attr = if attr_dim > 0 { linear(attr_dim, 1) } else { 0 };
                linear(d, 1).saturating_mul(2).saturating_add(attr)
            }
            AggregatorKind::DeepSet | AggregatorKind::GatedSum => linear(d, d).saturating_mul(2),
        };
        // Three biased input-side gates, three unbiased hidden-side ones.
        let gru = linear(self.gru_input_dim(), d)
            .saturating_add(d.saturating_mul(d))
            .saturating_mul(3);
        let reverse = if self.reverse_layer {
            aggregator(0).saturating_add(gru)
        } else {
            0
        };
        let heads = if self.per_type_regressor { f } else { 1 };
        let regressor = linear(d, r).saturating_add(linear(r, 1));
        [
            linear(f, d),
            aggregator(self.edge_attr_dim()),
            gru,
            reverse,
            regressor.saturating_mul(heads),
        ]
        .into_iter()
        .fold(0, usize::saturating_add)
    }
}

/// One level of one propagation direction as [`DagRecGnn::forward_hidden`]
/// runs it: the plan's level plus what has to live on this tape, resolved
/// once per forward pass and replayed by each of the `T` iterations.
struct LevelStep<'a> {
    /// The packed target rows and their edges.
    lvl: Level<'a>,
    /// Row of every edge's target within the level.
    seg: Vec<u32>,
    /// Edge attributes: zeros for ordinary edges, γ(D) for skip edges.
    attr: Option<Var>,
    /// Gate-type one-hot rows of the targets, when they are a fixed GRU
    /// input.
    gate_input: Option<Var>,
    /// The direction's aggregator and GRU.
    agg: &'a Aggregator,
    gru: &'a GruCell,
}

/// A recurrent DAG-GNN with configurable aggregation, reversed propagation,
/// fixed gate-type input and reconvergence skip connections.
#[derive(Debug, Clone)]
pub struct DagRecGnn {
    pub(crate) config: DagRecConfig,
    pub(crate) embed: Linear,
    pub(crate) forward_agg: Aggregator,
    pub(crate) forward_gru: GruCell,
    pub(crate) reverse_agg: Option<Aggregator>,
    pub(crate) reverse_gru: Option<GruCell>,
    pub(crate) regressors: Vec<Mlp>,
}

impl DagRecGnn {
    /// Registers the model's parameters in `store`.
    pub fn new(store: &mut ParamStore, config: DagRecConfig) -> Self {
        let embed = Linear::new(
            store,
            "dagrec.embed",
            config.feature_dim,
            config.hidden_dim,
            config.seed,
        );
        let forward_agg = Aggregator::new(
            store,
            "dagrec.forward.agg",
            config.aggregator,
            config.hidden_dim,
            config.edge_attr_dim(),
            config.seed.wrapping_add(1),
        );
        let forward_gru = GruCell::new(
            store,
            "dagrec.forward.gru",
            config.gru_input_dim(),
            config.hidden_dim,
            config.seed.wrapping_add(2),
        );
        let (reverse_agg, reverse_gru) = if config.reverse_layer {
            (
                Some(Aggregator::new(
                    store,
                    "dagrec.reverse.agg",
                    config.aggregator,
                    config.hidden_dim,
                    0,
                    config.seed.wrapping_add(3),
                )),
                Some(GruCell::new(
                    store,
                    "dagrec.reverse.gru",
                    config.gru_input_dim(),
                    config.hidden_dim,
                    config.seed.wrapping_add(4),
                )),
            )
        } else {
            (None, None)
        };
        let num_heads = if config.per_type_regressor {
            config.feature_dim
        } else {
            1
        };
        let regressors = (0..num_heads)
            .map(|head| {
                Mlp::new(
                    store,
                    &format!("dagrec.regressor{head}"),
                    &[config.hidden_dim, config.regressor_hidden, 1],
                    Activation::Relu,
                    true,
                    config.seed.wrapping_add(100 + head as u64),
                )
            })
            .collect();
        DagRecGnn {
            config,
            embed,
            forward_agg,
            forward_gru,
            reverse_agg,
            reverse_gru,
            regressors,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> DagRecConfig {
        self.config
    }

    /// Puts one level's attribute rows (`attr`, forward levels only) and
    /// gate-input rows on the tape.
    fn level_step<'a>(
        &self,
        g: &mut Graph,
        plan: &InferencePlan,
        lvl: Level<'a>,
        attr: Option<Tensor>,
        agg: &'a Aggregator,
        gru: &'a GruCell,
    ) -> LevelStep<'a> {
        let attr = attr.map(|attr| g.input(attr));
        let gate_input =
            (self.config.fix_gate_input).then(|| g.input(plan.feature_rows(lvl.start..lvl.end)));
        LevelStep {
            lvl,
            seg: lvl.edge_rows().collect(),
            attr,
            gate_input,
            agg,
            gru,
        }
    }

    /// Updates the nodes of one level: aggregate the predecessors' states,
    /// combine with each target's own state in the GRU, and repoint the
    /// targets at the result — two gathers, the aggregator (one entry for
    /// attention), the gate-input concat and one GRU entry.
    fn run_level(
        g: &mut Graph,
        store: &ParamStore,
        states: &mut NodeStates,
        step: &LevelStep,
        combine: Combine,
    ) {
        let lvl = step.lvl;
        let targets = lvl.start..lvl.end;
        let src_states = states.read(g, lvl.sources().iter().map(|&src| src as usize));
        // The targets' own states are the attention query and the GRU's h.
        let h_targets = states.read(g, targets.clone());
        let msg = step
            .agg
            .aggregate(g, store, src_states, h_targets, &step.seg, step.attr);
        let gru_input = match step.gate_input {
            Some(gate_input) => g.concat_cols(msg, gate_input),
            None => msg,
        };
        let updated = combine(step.gru, g, store, gru_input, h_targets);
        states.write(targets, updated);
    }

    /// Runs the regressor head(s) on the final hidden states (tape version).
    fn regress(&self, g: &mut Graph, store: &ParamStore, circuit: &CircuitGraph, h: Var) -> Var {
        if !self.config.per_type_regressor {
            return self.regressors[0].forward(g, store, h);
        }
        let n = circuit.num_nodes;
        let mut total: Option<Var> = None;
        for (head, regressor) in self.regressors.iter().enumerate() {
            let mask: Vec<f32> = (0..n).map(|i| circuit.features.row(i)[head]).collect();
            let pred = regressor.forward(g, store, h);
            let mask_v = g.input(Tensor::column(&mask));
            let masked = g.mul(pred, mask_v);
            total = Some(match total {
                Some(t) => g.add(t, masked),
                None => masked,
            });
        }
        total.expect("at least one regressor head")
    }

    /// Records the `T`-iteration recurrence on the tape and returns the
    /// final hidden states `h_v^T` (`[num_nodes, hidden_dim]`) — everything
    /// [`ProbabilityModel::try_forward`] does short of the regressor, exposed
    /// so the kernel's embeddings can be checked against the training
    /// forward.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::EncodingMismatch`] for an incompatible circuit.
    pub fn forward_hidden(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError> {
        self.hidden_with(g, store, circuit, GruCell::forward)
    }

    /// [`DagRecGnn::forward_hidden`] with each GRU update recorded by
    /// `combine`.
    fn hidden_with(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
        combine: Combine,
    ) -> Result<Var, GnnError> {
        check_encoding(circuit, self.config.feature_dim)?;
        let plan = self.plan(circuit);
        let features = g.input(plan.feature_rows(0..circuit.num_nodes));
        let embedded = self.embed.forward(g, store, features);
        let mut states = NodeStates::new(g, embedded);
        // One iteration: forward propagation in topological order, then
        // the reversed propagation, if configured.
        let frequencies = self.config.skip_encoding_frequencies;
        let (agg, gru) = (&self.forward_agg, &self.forward_gru);
        let mut sweep: Vec<LevelStep> = (plan.forward.levels())
            .map(|lvl| {
                let attr = plan.attr_rows(lvl.edges(), frequencies);
                self.level_step(g, &plan, lvl, attr, agg, gru)
            })
            .collect();
        if let (Some(agg), Some(gru)) = (&self.reverse_agg, &self.reverse_gru) {
            let reverse = plan.reverse.levels();
            sweep.extend(reverse.map(|lvl| self.level_step(g, &plan, lvl, None, agg, gru)));
        }
        for _ in 0..self.config.num_iterations {
            for step in &sweep {
                Self::run_level(g, store, &mut states, step, combine);
            }
        }
        Ok(states.read_all(g, &plan.perm))
    }

    /// Compiles a circuit into the CSR arena layout consumed by the fused
    /// inference kernel: level-contiguous node ordering, one CSR adjacency
    /// per direction with skip edges folded in, each skip edge's level
    /// difference kept for the model to encode as γ(D) when it runs. Build
    /// once per circuit, reuse across iterations and inference calls (a
    /// serving layer — see `deepgate::InferenceSession` — reuses it across
    /// requests for repeated circuits).
    pub fn plan(&self, circuit: &CircuitGraph) -> InferencePlan {
        InferencePlan::compile(circuit, self.config.edge_attr_dim())
    }
}

impl ProbabilityModel for DagRecGnn {
    fn try_forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Var, GnnError> {
        let h = self.forward_hidden(g, store, circuit)?;
        Ok(self.regress(g, store, circuit, h))
    }

    /// The tape-free kernel ([`DagRecGnn::predict_planned`]) on a fresh plan
    /// at the configured `T` — bit-identical to the tape, without recording
    /// one, so it fits circuits far larger than the training set (Table III).
    fn try_predict(
        &self,
        store: &ParamStore,
        circuit: &CircuitGraph,
    ) -> Result<Vec<f32>, GnnError> {
        check_encoding(circuit, self.config.feature_dim)?;
        let mut out = Vec::new();
        let plan = self.plan(circuit);
        self.predict_planned(store, &plan, self.config.num_iterations, &mut out, None)?;
        Ok(out)
    }

    fn name(&self) -> String {
        let base =
            if self.config.fix_gate_input && self.config.aggregator == AggregatorKind::Attention {
                if self.config.use_skip_connections {
                    "DeepGate (Attention w/ SC)".to_string()
                } else {
                    "DeepGate (Attention w/o SC)".to_string()
                }
            } else {
                format!("DAG-RecGNN ({})", self.config.aggregator)
            };
        format!("{base} T={}", self.config.num_iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeatureEncoding, GnnMetrics};
    use deepgate_netlist::{GateKind, Netlist};

    fn reconvergent_graph() -> CircuitGraph {
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

    fn small_config(kind: AggregatorKind) -> DagRecConfig {
        DagRecConfig {
            hidden_dim: 12,
            num_iterations: 2,
            aggregator: kind,
            regressor_hidden: 8,
            ..DagRecConfig::default()
        }
    }

    #[test]
    fn forward_produces_probabilities_for_all_aggregators() {
        let circuit = reconvergent_graph();
        for kind in AggregatorKind::ALL {
            let mut store = ParamStore::new();
            let model = DagRecGnn::new(&mut store, small_config(kind));
            let mut g = Graph::new();
            let pred = model.try_forward(&mut g, &store, &circuit).unwrap();
            let values = g.value(pred);
            assert_eq!(values.shape(), [circuit.num_nodes, 1]);
            assert!(values.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn tensor_prediction_matches_tape_prediction() {
        let circuit = reconvergent_graph();
        for (fix, skip, per_type) in [
            (false, false, false),
            (true, false, false),
            (true, true, true),
        ] {
            let mut store = ParamStore::new();
            let config = DagRecConfig {
                aggregator: AggregatorKind::Attention,
                fix_gate_input: fix,
                use_skip_connections: skip,
                per_type_regressor: per_type,
                ..small_config(AggregatorKind::Attention)
            };
            let model = DagRecGnn::new(&mut store, config);
            let mut g = Graph::new();
            let tape_pred = model.try_forward(&mut g, &store, &circuit).unwrap();
            let tape_values = g.value(tape_pred).as_slice().to_vec();
            let kernel_values = model.try_predict(&store, &circuit).unwrap();
            for (a, b) in tape_values.iter().zip(&kernel_values) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "fix={fix} skip={skip}: {a} vs {b}"
                );
            }
        }
    }

    /// Analytic `masked_l1_loss` gradient against central finite differences
    /// (ε = 1e-3) on the first, middle and last entry of every parameter
    /// tensor. Losses are `f32`, so a difference quotient carries ~3e-5 of
    /// rounding noise, and a ReLU whose sign ±ε flips adds up to ~1e-3 (the
    /// largest deviation seen here is 1.1e-3, on a value of 2.2e-2); the
    /// tolerance is 2e-3 absolute + 2 % of the analytic value.
    fn assert_gradients_match_finite_differences<M: ProbabilityModel>(
        model: &M,
        store: &mut ParamStore,
        circuit: &CircuitGraph,
    ) {
        let loss_of = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let pred = model.try_forward(&mut g, store, circuit).unwrap();
            let loss = crate::masked_l1_loss(&mut g, pred, circuit).unwrap();
            g.value(loss).get(0, 0)
        };
        let mut g = Graph::new();
        let pred = model.try_forward(&mut g, store, circuit).unwrap();
        let loss = crate::masked_l1_loss(&mut g, pred, circuit).unwrap();
        g.backward(loss, store);

        let eps = 1e-3;
        let mut nonzero = 0;
        for id in store.ids().collect::<Vec<_>>() {
            let len = store.value(id).len();
            for k in [0, len / 2, len - 1] {
                let original = store.value(id).as_slice()[k];
                store.value_mut(id).as_mut_slice()[k] = original + eps;
                let plus = loss_of(store);
                store.value_mut(id).as_mut_slice()[k] = original - eps;
                let minus = loss_of(store);
                store.value_mut(id).as_mut_slice()[k] = original;
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = store.grad(id).as_slice()[k];
                assert!(
                    (numeric - analytic).abs() <= 2e-3 + 0.02 * analytic.abs(),
                    "{}[{k}]: numeric {numeric} analytic {analytic}",
                    store.name(id)
                );
                if analytic != 0.0 {
                    nonzero += 1;
                }
            }
        }
        assert!(nonzero > store.len(), "most sampled entries carry gradient");
    }

    fn labelled_reconvergent_graph() -> CircuitGraph {
        let mut circuit = reconvergent_graph();
        circuit.set_labels(vec![0.5, 0.5, 0.5, 0.25, 0.75, 0.125, 0.9]);
        circuit
    }

    #[test]
    fn deepgate_gradients_match_finite_differences() {
        let circuit = labelled_reconvergent_graph();
        assert!(!circuit.skip_edges.is_empty());
        let mut store = ParamStore::new();
        let config = DagRecConfig {
            fix_gate_input: true,
            use_skip_connections: true,
            reverse_layer: true,
            ..small_config(AggregatorKind::Attention)
        };
        let model = DagRecGnn::new(&mut store, config);
        assert_gradients_match_finite_differences(&model, &mut store, &circuit);
    }

    #[test]
    fn dag_conv_gradients_match_finite_differences() {
        let circuit = labelled_reconvergent_graph();
        let mut store = ParamStore::new();
        let config = crate::DagConvConfig {
            hidden_dim: 12,
            num_layers: 2,
            aggregator: AggregatorKind::Attention,
            ..crate::DagConvConfig::default()
        };
        let model = crate::DagConvGnn::new(&mut store, config);
        assert_gradients_match_finite_differences(&model, &mut store, &circuit);
    }

    /// `width` inputs followed by `depth - 1` levels of `width` AND gates,
    /// gate `i` reading nodes `i` and `i + 1` of the level before.
    fn chain_graph(width: usize, depth: usize) -> CircuitGraph {
        let mut n = Netlist::new("chain");
        let mut level: Vec<_> = (0..width).map(|i| n.add_input(format!("i{i}"))).collect();
        for _ in 1..depth {
            level = (0..width)
                .map(|i| {
                    n.add_gate(GateKind::And, &[level[i], level[(i + 1) % width]])
                        .unwrap()
                })
                .collect();
        }
        n.mark_output(level[0], "y");
        let mut circuit = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        circuit.set_labels(vec![0.25; circuit.num_nodes]);
        circuit
    }

    /// DeepGate's configuration at d = 8, T = 2.
    fn tape_gate_model(store: &mut ParamStore) -> DagRecGnn {
        let config = DagRecConfig {
            hidden_dim: 8,
            num_iterations: 2,
            aggregator: AggregatorKind::Attention,
            fix_gate_input: true,
            use_skip_connections: true,
            regressor_hidden: 8,
            ..DagRecConfig::default()
        };
        DagRecGnn::new(store, config)
    }

    #[test]
    fn tape_size_grows_linearly_with_depth() {
        let mut store = ParamStore::new();
        let model = tape_gate_model(&mut store);
        let elements = |depth: usize| {
            let mut g = Graph::new();
            model
                .try_forward(&mut g, &store, &chain_graph(4, depth))
                .unwrap();
            g.value_elements()
        };
        let (shallow, deep) = (elements(50), elements(100));
        println!("chain tape: depth 50 {shallow} elements, depth 100 {deep}");
        // Twice the levels is twice the tape; a per-level rebuild of the
        // `[n, d]` state reads ~4x here.
        assert!(
            deep as f64 <= 2.2 * shallow as f64,
            "depth 50: {shallow} elements, depth 100: {deep}"
        );
        // 172 057 measured; the GRU and attention as generic ops recorded
        // 465 918.
        assert!(deep <= 200_000, "depth 100: {deep} elements");
    }

    #[test]
    fn tape_size_of_a_deep_chain_fits_the_budget() {
        let circuit = chain_graph(4, 500);
        assert_eq!(circuit.num_nodes, 2000);
        let mut store = ParamStore::new();
        let model = tape_gate_model(&mut store);
        let plan = model.plan(&circuit);
        assert!(plan.num_batches() + plan.num_reverse_batches() >= 800);
        let mut g = Graph::new();
        let pred = model.try_forward(&mut g, &store, &circuit).unwrap();
        let loss = crate::masked_l1_loss(&mut g, pred, &circuit).unwrap();
        g.backward(loss, &mut store);
        assert!(store.grad_norm() > 0.0);
        // ~440 elements per level visit, T x 2 directions x 499 visits
        // (0.87 M measured); the GRU and attention as generic ops recorded
        // 2.35 M, the per-level state rebuild 103 M.
        const BUDGET: usize = 1_000_000;
        assert!(
            g.value_elements() <= BUDGET,
            "{} tape elements for 2 000 nodes over 500 levels (budget {BUDGET})",
            g.value_elements()
        );
        // Five entries per level visit — two gathers, attention, the
        // gate-input concat, GRU — plus each level's attribute and gate-type
        // rows, recorded once per pass (11 497 measured; 68 411 as generic
        // ops).
        let visits = 2 * (plan.num_batches() + plan.num_reverse_batches());
        assert!(
            g.len() <= 6 * visits,
            "{} tape entries for {visits} level visits",
            g.len()
        );
        println!(
            "deep chain: {} tape entries, {} elements",
            g.len(),
            g.value_elements()
        );
    }

    /// Labels for every node of `circuit`, deterministic and spread over
    /// (0, 1).
    fn labelled(mut circuit: CircuitGraph) -> CircuitGraph {
        let labels = (0..circuit.num_nodes).map(|i| 0.5 + 0.4 * (i as f32 * 1.7).sin());
        circuit.set_labels(labels.collect());
        circuit
    }

    /// Whole-model gradients of the fused tape against the same model with
    /// every GRU recorded from generic ops (`crate::state::oracle`, the
    /// oracle file the fused op's own unit test uses),
    /// on the kernel parity suite's shapes at d ∈ {8, 12, 64}: the loss bit
    /// for bit, and every gradient entry within 1e-5 of its tensor's largest
    /// oracle entry (at least 1e-2; 1.2e-6 is the largest deviation seen) —
    /// the two tapes sum the same products in different orders. (The
    /// attention op's own oracle needs the generic segment softmax, which
    /// only `deepgate-nn`'s tests keep; there it is checked op by op.)
    fn assert_matches_the_generic_gru_oracle(
        store: &mut ParamStore,
        what: &str,
        loss: impl Fn(&mut Graph, &ParamStore, Combine) -> Var,
    ) {
        let mut grads = Vec::new();
        let mut losses = Vec::new();
        for combine in [
            GruCell::forward as Combine,
            crate::state::oracle::generic_gru,
        ] {
            store.zero_grad();
            let mut g = Graph::new();
            let l = loss(&mut g, store, combine);
            losses.push(g.value(l).get(0, 0));
            g.backward(l, store);
            grads.push(
                store
                    .ids()
                    .map(|id| store.grad(id).clone())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(losses[0].to_bits(), losses[1].to_bits(), "{what}: loss");
        for (id, (got, want)) in store.ids().zip(grads[0].iter().zip(&grads[1])) {
            let scale = want.as_slice().iter().fold(1e-2f32, |m, v| m.max(v.abs()));
            for (k, (&a, &b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-5 * scale,
                    "{what}: {}[{k}] fused {a} oracle {b}",
                    store.name(id)
                );
            }
        }
    }

    fn parity_shapes() -> Vec<CircuitGraph> {
        let mut shapes = crate::csr::shapes::shape_suite();
        shapes.push(crate::csr::shapes::shape_funnel());
        let graph = |n: &Netlist| {
            let aig_form = crate::csr::shapes::expand(n);
            labelled(CircuitGraph::from_netlist(
                &aig_form,
                FeatureEncoding::AigGates,
                None,
            ))
        };
        shapes.iter().map(graph).collect()
    }

    #[test]
    fn deepgate_gradients_match_the_generic_gru_oracle() {
        for circuit in parity_shapes() {
            for hidden_dim in [8, 12, 64] {
                let mut store = ParamStore::new();
                let config = DagRecConfig {
                    hidden_dim,
                    fix_gate_input: true,
                    use_skip_connections: true,
                    ..small_config(AggregatorKind::Attention)
                };
                let model = DagRecGnn::new(&mut store, config);
                let what = format!("{} d={hidden_dim}", circuit.name);
                assert_matches_the_generic_gru_oracle(&mut store, &what, |g, store, combine| {
                    let h = model.hidden_with(g, store, &circuit, combine).unwrap();
                    let pred = model.regress(g, store, &circuit, h);
                    crate::masked_l1_loss(g, pred, &circuit).unwrap()
                });
            }
        }
    }

    #[test]
    fn dag_conv_gradients_match_the_generic_gru_oracle() {
        for circuit in parity_shapes() {
            for hidden_dim in [8, 12, 64] {
                for aggregator in [AggregatorKind::Attention, AggregatorKind::ConvSum] {
                    let mut store = ParamStore::new();
                    let config = crate::DagConvConfig {
                        hidden_dim,
                        num_layers: 2,
                        aggregator,
                        ..crate::DagConvConfig::default()
                    };
                    let model = crate::DagConvGnn::new(&mut store, config);
                    let what = format!("{} d={hidden_dim} {aggregator}", circuit.name);
                    assert_matches_the_generic_gru_oracle(
                        &mut store,
                        &what,
                        |g, store, combine| {
                            let pred = model.forward_with(g, store, &circuit, combine).unwrap();
                            crate::masked_l1_loss(g, pred, &circuit).unwrap()
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_weight_count_matches_the_built_model() {
        for aggregator in AggregatorKind::ALL {
            for flags in 0..16u32 {
                let config = DagRecConfig {
                    hidden_dim: 5,
                    regressor_hidden: 3,
                    skip_encoding_frequencies: 2,
                    aggregator,
                    reverse_layer: flags & 1 != 0,
                    fix_gate_input: flags & 2 != 0,
                    use_skip_connections: flags & 4 != 0,
                    per_type_regressor: flags & 8 != 0,
                    ..DagRecConfig::default()
                };
                let mut store = ParamStore::new();
                DagRecGnn::new(&mut store, config);
                assert_eq!(config.num_weights(), store.num_weights(), "{config:?}");
            }
        }
        let hostile = DagRecConfig {
            hidden_dim: usize::MAX / 3,
            feature_dim: usize::MAX,
            ..DagRecConfig::default()
        };
        assert_eq!(hostile.num_weights(), usize::MAX);
    }

    #[test]
    fn deepgate_configuration_is_named_deepgate() {
        let mut store = ParamStore::new();
        let config = DagRecConfig {
            aggregator: AggregatorKind::Attention,
            fix_gate_input: true,
            use_skip_connections: true,
            ..small_config(AggregatorKind::Attention)
        };
        let model = DagRecGnn::new(&mut store, config);
        assert!(model.name().contains("DeepGate"));
        assert!(model.name().contains("w/ SC"));
        let mut store2 = ParamStore::new();
        let baseline = DagRecGnn::new(&mut store2, small_config(AggregatorKind::DeepSet));
        assert!(baseline.name().contains("DAG-RecGNN"));
    }

    #[test]
    fn skip_connections_change_predictions_on_reconvergent_circuits() {
        let circuit = reconvergent_graph();
        assert!(!circuit.skip_edges.is_empty());
        let base_config = DagRecConfig {
            aggregator: AggregatorKind::Attention,
            fix_gate_input: true,
            use_skip_connections: false,
            ..small_config(AggregatorKind::Attention)
        };
        let skip_config = DagRecConfig {
            use_skip_connections: true,
            ..base_config
        };
        // Same seed so shared parameters initialise identically; the extra
        // skip-edge parameters must change the output on a reconvergent
        // circuit.
        let mut store_a = ParamStore::new();
        let model_a = DagRecGnn::new(&mut store_a, base_config);
        let mut store_b = ParamStore::new();
        let model_b = DagRecGnn::new(&mut store_b, skip_config);
        let pred_a = model_a.try_predict(&store_a, &circuit).unwrap();
        let pred_b = model_b.try_predict(&store_b, &circuit).unwrap();
        let diff: f32 = pred_a.iter().zip(&pred_b).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6);
    }

    #[test]
    fn more_iterations_change_the_embedding() {
        let circuit = reconvergent_graph();
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, small_config(AggregatorKind::Attention));
        let plan = model.plan(&circuit);
        let h1 = model.embed_planned(&store, &plan, 1).unwrap();
        let h4 = model.embed_planned(&store, &plan, 4).unwrap();
        assert_eq!(h1.shape(), [circuit.num_nodes, 12]);
        assert_ne!(h1, h4);
    }

    #[test]
    fn metered_prediction_matches_and_records_kernel_series() {
        let circuit = reconvergent_graph();
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, small_config(AggregatorKind::Attention));
        let plan = model.plan(&circuit);

        let mut plain = Vec::new();
        model
            .predict_planned(&store, &plan, 2, &mut plain, None)
            .unwrap();

        let registry = deepgate_telemetry::Registry::new();
        let metrics = GnnMetrics::registered(&registry);
        let mut metered = Vec::new();
        model
            .predict_planned(&store, &plan, 2, &mut metered, Some(&metrics))
            .unwrap();
        assert_eq!(plain, metered, "telemetry must not perturb the prediction");

        let snap = registry.snapshot();
        // 2 iterations × (forward + reverse) level batches.
        let levels = 2 * (plan.num_batches() + plan.num_reverse_batches()) as u64;
        assert_eq!(snap.counter("gnn_levels_total"), levels);
        // Aggregation and GRU update are timed apart, one sample each per level.
        for series in ["gnn_level_agg_ns", "gnn_level_gru_ns"] {
            assert_eq!(snap.histogram(series).expect("series").count, levels);
        }
        assert_eq!(snap.histogram("gnn_regress_ns").expect("series").count, 1);
        let nodes = snap.histogram("gnn_circuit_nodes").expect("series");
        assert_eq!(nodes.count, 1);
        assert_eq!(nodes.max, circuit.num_nodes as u64);
        // Every level pass records its packed target width.
        let widths = snap.histogram("gnn_csr_level_width").expect("series");
        assert_eq!(widths.count, levels);
        assert!(widths.max >= 1);
    }

    #[test]
    fn iteration_count_is_an_inference_knob() {
        let circuit = reconvergent_graph();
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, small_config(AggregatorKind::Attention));
        let plan = model.plan(&circuit);
        let (mut p1, mut p8) = (Vec::new(), Vec::new());
        model
            .predict_planned(&store, &plan, 1, &mut p1, None)
            .unwrap();
        model
            .predict_planned(&store, &plan, 8, &mut p8, None)
            .unwrap();
        assert_eq!(p1.len(), p8.len());
        assert!(p1.iter().zip(&p8).any(|(a, b)| (a - b).abs() > 1e-7));
    }
}
