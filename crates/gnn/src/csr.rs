//! The level schedule, and the CSR level-packed inference kernel that runs
//! it without a tape. DeepGate's propagation order — level by level forward,
//! then reversed, skip edges folded into their target's fan-in — is stated
//! once:
//!
//! * [`InferencePlan`] (**shared**) permutes the nodes into
//!   **level-contiguous order** (reverse-propagation targets first within
//!   each level, so a level is one range of packed rows in either direction)
//!   and stores each level's adjacency as **CSR**: one `offsets` and one flat
//!   `edge_src` array per level, skip edges appended to their target's row
//!   with the positional-encoding attribute rows precomputed.
//!   [`InferencePlan::compile`] is the only place a row's edge order is
//!   decided. The training tape ([`crate::DagRecGnn::forward_hidden`],
//!   [`crate::DagConvGnn`]) compiles a plan per forward pass and records each
//!   level as gathers over packed rows (`state.rs`), aggregator and GRU; only
//!   the attribute and gate-input rows it puts on the tape are its own.
//! * [`CompiledKernel`] (**kernel-specific**, the rest of this file) copies
//!   the model's weights into row-major flat arrays and, following the DLGN
//!   line (flat, cache-dense gate arrays), fuses each level's gather + GEMM +
//!   combine into one dense slice walk over a packed hidden-state arena,
//!   without touching the parameter store or allocating per level. The row
//!   code it walks with — the flat layer view, the fixed-width matvec banks,
//!   the GRU update and the attention walk — lives in
//!   [`deepgate_nn::dense`], because the tape's fused GRU and attention ops
//!   run the same functions; what stays here is the level walk, the weight
//!   copies and the aggregators the tape still records from generic ops.
//!
//! **Exactness contract:** the kernel reproduces the autodiff-tape forward
//! ([`crate::DagRecGnn::forward_hidden`] and, through the regressor,
//! [`crate::ProbabilityModel::try_forward`] — the definition training
//! optimises) *bit-exactly*, for the final hidden states and the
//! probabilities alike. For the GRU and the attention aggregator that holds
//! by construction — both sides call [`deepgate_nn::dense`]; elsewhere every
//! accumulation runs in the tape's order over the same values, and every
//! `exp`, sigmoid and `tanh` on either side is [`deepgate_nn::math`] —
//! branch-free IEEE arithmetic that gives a scalar call on the tape and a
//! lane of the kernel's vector loops the same bits.
//! `tests/csr_parity.rs` asserts `to_bits` equality across circuit shapes,
//! aggregators, model variants and hidden widths. Parity cannot see a row
//! order that changes for both executors at once: the
//! `plan_matches_the_level_definition_*` tests below hold the plan to the
//! level-by-level definition it replaced, and `tests/end_to_end.rs` pins
//! prediction bits recorded before the schedules were merged.

use crate::aggregator::AggregatorParams;
use crate::{Aggregator, CircuitGraph, GnnError, GnnMetrics};
use deepgate_aig::recon::positional_encoding;
use deepgate_nn::dense::{self, Dense};
use deepgate_nn::{math, Activation, GruCell, Linear, Mlp, ParamStore, Tensor};
use std::ops::Range;
use std::time::Instant;

/// One level of one propagation direction: a contiguous range of packed
/// target rows and the edges entering them, in CSR form.
#[derive(Debug, Clone)]
pub(crate) struct CsrLevel {
    /// First packed node index updated by this level.
    pub(crate) start: usize,
    /// One past the last packed node index updated by this level.
    pub(crate) end: usize,
    /// CSR row offsets into `edge_src` / `attr`; `offsets[i]..offsets[i+1]`
    /// are the edges of packed target `start + i`. A forward row lists the
    /// ordinary fan-ins in netlist order (duplicates kept) with the skip
    /// edge, if any, last; a reverse row lists the fan-outs in ascending
    /// consumer order (duplicates kept). Every per-target sum of either
    /// executor runs in this order — it is the exactness contract.
    pub(crate) offsets: Vec<u32>,
    /// Packed source node index of every edge.
    pub(crate) edge_src: Vec<u32>,
    /// Flat `[num_edges, attr_dim]` edge attributes (positional encodings on
    /// skip edges, zeros elsewhere); empty when the plan has no attributes.
    pub(crate) attr: Vec<f32>,
}

impl CsrLevel {
    /// The row of every edge's target within the level, in edge order — the
    /// segment ids the attention walk and the tape's scatter-add take.
    /// Derived once per forward pass or kernel run rather than stored: a
    /// cached plan would carry them for every edge.
    pub(crate) fn edge_rows(&self) -> impl Iterator<Item = u32> + '_ {
        let rows = self.offsets.windows(2).enumerate();
        rows.flat_map(|(row, w)| std::iter::repeat_n(row as u32, (w[1] - w[0]) as usize))
    }
}

/// The level schedule of a circuit, walked by the training tape and by
/// [`CompiledKernel`] alike.
///
/// Nodes are permuted into level-contiguous order so every level's update is
/// one dense range of packed rows; the permutation is undone when results
/// are read out, so callers see original node order.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    num_nodes: usize,
    feature_dim: usize,
    attr_dim: usize,
    /// Original node index → packed index.
    pub(crate) perm: Vec<u32>,
    /// `[num_nodes, feature_dim]` one-hot features in packed order.
    features: Vec<f32>,
    /// Forward levels 1, 2, … in ascending order; each target range spans
    /// its whole level.
    pub(crate) forward: Vec<CsrLevel>,
    /// Reverse levels in descending level order; each target range is the
    /// fan-out-bearing prefix of its level.
    pub(crate) reverse: Vec<CsrLevel>,
}

/// Stable counting sort of `(row, value)` pairs into CSR form over `n` rows:
/// row `r` holds its values, in the order the pairs came, at
/// `offsets[r]..offsets[r + 1]`.
fn group_by_row(
    n: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n + 1];
    for (row, _) in pairs.clone() {
        offsets[row + 1] += 1;
    }
    for row in 0..n {
        offsets[row + 1] += offsets[row];
    }
    let mut next = offsets.clone();
    let mut values = vec![0u32; offsets[n]];
    for (row, value) in pairs {
        values[next[row]] = value;
        next[row] += 1;
    }
    (offsets, values)
}

/// Cuts the packed rows `rows` out of a whole-circuit CSR, with a zeroed
/// attribute row per edge.
fn cut_level(csr: &(Vec<usize>, Vec<u32>), rows: Range<usize>, attr_dim: usize) -> CsrLevel {
    let (offsets, values) = csr;
    let edges = offsets[rows.start]..offsets[rows.end];
    let rebased = offsets[rows.start..=rows.end].iter();
    CsrLevel {
        start: rows.start,
        end: rows.end,
        offsets: rebased.map(|&o| (o - edges.start) as u32).collect(),
        attr: vec![0.0; edges.len() * attr_dim],
        edge_src: values[edges].to_vec(),
    }
}

impl InferencePlan {
    /// Compiles a circuit's levels, edges and skip edges into the schedule,
    /// in O(nodes + edges). `attr_dim` and `frequencies` come from the model
    /// configuration (0 attributes when skip connections are disabled, and
    /// then no skip edges either).
    pub(crate) fn compile(circuit: &CircuitGraph, attr_dim: usize, frequencies: usize) -> Self {
        let n = circuit.num_nodes;
        let num_edges = circuit.edges.len() + circuit.skip_edges.len();
        assert!(
            n.max(num_edges) < u32::MAX as usize,
            "circuit too large for CSR plan"
        );
        let f = circuit.encoding.dimension();

        // Packed order: by level, the reverse-propagation targets (the nodes
        // with a fan-out) first, ascending node id within either group — so
        // both directions update one contiguous range per level.
        let mut has_fanout = vec![false; n];
        for &(src, _) in &circuit.edges {
            has_fanout[src] = true;
        }
        let group = |id: usize| 2 * circuit.levels[id] + !has_fanout[id] as usize;
        let (group_start, order) = group_by_row(
            2 * (circuit.max_level + 1),
            (0..n).map(|id| (group(id), id as u32)),
        );
        let mut perm = vec![0u32; n];
        let mut features = vec![0.0f32; n * f];
        for (packed, &id) in order.iter().enumerate() {
            perm[id as usize] = packed as u32;
            features[packed * f..][..f].copy_from_slice(circuit.features.row(id as usize));
        }

        // The one place a row's edge order is decided: the edge list is
        // grouped by consumer with fan-ins in netlist order, so a stable
        // grouping by target keeps that order and puts the skip edges,
        // chained on behind, last in their rows; grouped by source it lists
        // every node's consumers in ascending order.
        let row = |node: usize| perm[node] as usize;
        let edges = circuit.edges.iter();
        let skips = circuit.skip_edges.iter().filter(|_| attr_dim > 0);
        let fanins = (edges.clone().map(|&(src, dst)| (row(dst), perm[src])))
            .chain(skips.clone().map(|e| (row(e.target), perm[e.source])));
        let fanins = group_by_row(n, fanins);
        let fanouts = group_by_row(n, edges.map(|&(src, dst)| (row(src), perm[dst])));

        let level_rows = |level: usize| group_start[2 * level]..group_start[2 * level + 2];
        let mut forward: Vec<CsrLevel> = (1..=circuit.max_level)
            .map(|level| cut_level(&fanins, level_rows(level), attr_dim))
            .collect();
        for skip in skips {
            let lvl = &mut forward[circuit.levels[skip.target] - 1];
            let last = lvl.offsets[row(skip.target) - lvl.start + 1] as usize - 1;
            lvl.attr[last * attr_dim..][..attr_dim]
                .copy_from_slice(&positional_encoding(skip.level_difference, frequencies));
        }
        // Descending: a node's fan-outs sit at strictly higher levels and
        // have been updated by the time the node is.
        let reverse_rows = |level: usize| group_start[2 * level]..group_start[2 * level + 1];
        let reverse = (0..circuit.max_level).rev();
        let reverse = reverse.map(|level| cut_level(&fanouts, reverse_rows(level), 0));

        InferencePlan {
            num_nodes: n,
            feature_dim: f,
            attr_dim,
            perm,
            features,
            forward,
            reverse: reverse.collect(),
        }
    }

    /// The one-hot feature rows of the packed nodes `rows`, for the tape.
    pub(crate) fn feature_rows(&self, rows: Range<usize>) -> Tensor {
        let f = self.feature_dim;
        let data = self.features[rows.start * f..rows.end * f].to_vec();
        Tensor::from_vec(rows.len(), f, data)
    }

    /// Number of forward level batches the plan covers.
    pub fn num_batches(&self) -> usize {
        self.forward.len()
    }

    /// Number of reverse level batches the plan covers.
    pub fn num_reverse_batches(&self) -> usize {
        self.reverse.len()
    }

    /// Number of circuit nodes the plan was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Edge-attribute dimensionality the plan was built with.
    pub fn attr_dim(&self) -> usize {
        self.attr_dim
    }

    /// Whether this plan matches a circuit and a model's attribute width —
    /// the reuse guard of the serving layer.
    pub fn matches(&self, circuit: &CircuitGraph, attr_dim: usize) -> bool {
        self.num_nodes == circuit.num_nodes
            && self.feature_dim == circuit.encoding.dimension()
            && self.forward.len() == circuit.max_level
            && self.attr_dim == attr_dim
    }
}

/// A dense affine layer's weights, copied out of the parameter store.
#[derive(Debug, Clone)]
struct LinW {
    /// Row-major `[in_dim, out_dim]` weights.
    w: Vec<f32>,
    /// `[out_dim]` bias, empty for bias-free layers.
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl LinW {
    fn from_linear(store: &ParamStore, layer: &Linear) -> Self {
        let wt: &Tensor = layer.weight_tensor(store);
        LinW {
            w: wt.as_slice().to_vec(),
            b: layer
                .bias_tensor(store)
                .map(|t| t.as_slice().to_vec())
                .unwrap_or_default(),
            in_dim: layer.in_features(),
            out_dim: layer.out_features(),
        }
    }

    fn dense(&self) -> Dense<'_> {
        Dense::new(&self.w, &self.b, self.in_dim, self.out_dim)
    }
}

/// An MLP baked into flat layers.
#[derive(Debug, Clone)]
struct MlpW {
    layers: Vec<LinW>,
    activation: Activation,
    sigmoid_output: bool,
}

impl MlpW {
    fn from_mlp(store: &ParamStore, mlp: &Mlp) -> Self {
        MlpW {
            layers: mlp
                .layers()
                .iter()
                .map(|l| LinW::from_linear(store, l))
                .collect(),
            activation: mlp.activation(),
            sigmoid_output: mlp.has_sigmoid_output(),
        }
    }
}

/// Applies `mlp` to one row, ping-ponging hidden activations through `a`/`b`.
fn mlp_apply_row(
    mlp: &MlpW,
    row: &[f32],
    out: &mut [f32],
    a: &mut Vec<f32>,
    b: &mut Vec<f32>,
    wide: &mut Vec<f32>,
) {
    let last = mlp.layers.len() - 1;
    a.clear();
    a.extend_from_slice(row);
    for (i, layer) in mlp.layers.iter().enumerate() {
        if i == last {
            layer.dense().apply(a, 1, out, wide);
        } else {
            b.clear();
            b.resize(layer.out_dim, 0.0);
            layer.dense().apply(a, 1, b, wide);
            for v in b.iter_mut() {
                *v = match mlp.activation {
                    Activation::Relu => v.max(0.0),
                    Activation::Tanh => math::tanh(*v),
                    Activation::Sigmoid => math::sigmoid(*v),
                };
            }
            std::mem::swap(a, b);
        }
    }
    if mlp.sigmoid_output {
        for v in out.iter_mut() {
            *v = math::sigmoid(*v);
        }
    }
}

/// The six GRU gate projections in flat form, in [`GruCell::gates`] order.
#[derive(Debug, Clone)]
struct GruW([LinW; 6]);

impl GruW {
    fn from_gru(store: &ParamStore, gru: &GruCell) -> Self {
        GruW(gru.gates().map(|l| LinW::from_linear(store, l)))
    }

    fn dense(&self) -> [Dense<'_>; 6] {
        self.0.each_ref().map(LinW::dense)
    }
}

/// The aggregator weights in flat form, one variant per
/// [`crate::AggregatorKind`].
#[derive(Debug, Clone)]
enum AggW {
    ConvSum {
        project: LinW,
    },
    Attention {
        query: LinW,
        key: LinW,
        edge_attr: Option<LinW>,
    },
    DeepSet {
        phi: MlpW,
        rho: LinW,
    },
    GatedSum {
        gate: LinW,
        value: LinW,
    },
}

impl AggW {
    fn from_aggregator(store: &ParamStore, agg: &Aggregator) -> Self {
        match agg.params() {
            AggregatorParams::ConvSum { project } => AggW::ConvSum {
                project: LinW::from_linear(store, project),
            },
            AggregatorParams::Attention {
                query,
                key,
                edge_attr,
            } => AggW::Attention {
                query: LinW::from_linear(store, query),
                key: LinW::from_linear(store, key),
                edge_attr: edge_attr.as_ref().map(|l| LinW::from_linear(store, l)),
            },
            AggregatorParams::DeepSet { phi, rho } => AggW::DeepSet {
                phi: MlpW::from_mlp(store, phi),
                rho: LinW::from_linear(store, rho),
            },
            AggregatorParams::GatedSum { gate, value } => AggW::GatedSum {
                gate: LinW::from_linear(store, gate),
                value: LinW::from_linear(store, value),
            },
        }
    }
}

/// Per-predict scratch arenas, reused across levels and iterations so the
/// hot loop never allocates.
#[derive(Debug, Default)]
struct Scratch {
    /// Heap accumulator for layers wider than `deepgate_nn::dense` keeps on
    /// the stack.
    wide: Vec<f32>,
    /// Per-target attention query scores, then segment maxima.
    tq: Vec<f32>,
    /// Per-target softmax sums.
    sum: Vec<f32>,
    /// Per-edge attention scores / softmax weights.
    score: Vec<f32>,
    /// Per-edge projection arenas.
    e1: Vec<f32>,
    e2: Vec<f32>,
    /// Per-target message arena.
    msg: Vec<f32>,
    /// GRU input arena (`[msg | one-hot]` when the gate input is fixed).
    gin: Vec<f32>,
    /// GRU gate arenas.
    g: [Vec<f32>; 5],
    /// MLP ping-pong rows.
    ha: Vec<f32>,
    hb: Vec<f32>,
}

impl Scratch {
    /// Sizes every arena for the widest level of `plan` once per predict,
    /// so the per-level hot path only slices (and zeroes the arenas that
    /// are accumulated into) instead of re-zeroing every buffer on every
    /// pass.
    fn reserve(&mut self, plan: &InferencePlan, d: usize, gi: usize) {
        fn grow(v: &mut Vec<f32>, len: usize) {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        }
        let levels = plan.forward.iter().chain(&plan.reverse);
        let (mut max_m, mut max_e) = (0usize, 0usize);
        for lvl in levels {
            max_m = max_m.max(lvl.end - lvl.start);
            max_e = max_e.max(lvl.edge_src.len());
        }
        grow(&mut self.tq, max_m);
        grow(&mut self.sum, max_m);
        grow(&mut self.score, max_e);
        grow(&mut self.e1, max_e * d);
        grow(&mut self.e2, max_e * d);
        grow(&mut self.msg, max_m * d);
        grow(&mut self.gin, max_m * gi);
        for g in &mut self.g {
            grow(g, max_m * d);
        }
    }
}

/// A [`crate::DagRecGnn`] compiled for the CSR arena layout: flat weight
/// copies plus the fused per-level kernels, independent of the parameter
/// store. Build one per session via `DagRecGnn::compile` (or
/// `deepgate::core::DeepGate::compile`) and reuse it across predictions.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    feature_dim: usize,
    hidden_dim: usize,
    attr_dim: usize,
    fix_gate_input: bool,
    per_type_regressor: bool,
    embed: LinW,
    forward_agg: AggW,
    forward_gru: GruW,
    reverse: Option<(AggW, GruW)>,
    heads: Vec<MlpW>,
}

impl CompiledKernel {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        store: &ParamStore,
        config: &crate::DagRecConfig,
        embed: &Linear,
        forward_agg: &Aggregator,
        forward_gru: &GruCell,
        reverse_agg: Option<&Aggregator>,
        reverse_gru: Option<&GruCell>,
        regressors: &[Mlp],
    ) -> Self {
        let reverse = match (reverse_agg, reverse_gru) {
            (Some(a), Some(g)) => Some((AggW::from_aggregator(store, a), GruW::from_gru(store, g))),
            _ => None,
        };
        CompiledKernel {
            feature_dim: config.feature_dim,
            hidden_dim: config.hidden_dim,
            attr_dim: config.edge_attr_dim(),
            fix_gate_input: config.fix_gate_input,
            per_type_regressor: config.per_type_regressor,
            embed: LinW::from_linear(store, embed),
            forward_agg: AggW::from_aggregator(store, forward_agg),
            forward_gru: GruW::from_gru(store, forward_gru),
            reverse,
            heads: regressors
                .iter()
                .map(|m| MlpW::from_mlp(store, m))
                .collect(),
        }
    }

    /// Runs the full recurrence over a packed plan, writing per-node
    /// probabilities (original node order) into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::PlanMismatch`] if the plan's feature or
    /// edge-attribute width does not match the compiled model.
    pub fn predict_into(
        &self,
        plan: &InferencePlan,
        num_iterations: usize,
        out: &mut Vec<f32>,
        metrics: Option<&GnnMetrics>,
    ) -> Result<(), GnnError> {
        let mut s = Scratch::default();
        let h = self.run_recurrence(plan, num_iterations, &mut s, metrics)?;
        let n = plan.num_nodes;

        let regress_start = metrics.map(|_| Instant::now());
        let mut pred = vec![0.0f32; n];
        self.regress(plan, &h, &mut pred, &mut s);
        if let (Some(m), Some(start)) = (metrics, regress_start) {
            m.regress_ns.record_duration(start.elapsed());
        }

        out.clear();
        out.reserve(n);
        for old in 0..n {
            out.push(pred[plan.perm[old] as usize]);
        }
        Ok(())
    }

    /// Runs the full recurrence over a packed plan and returns the final
    /// hidden states `h_v^T` as a `[num_nodes, hidden_dim]` tensor in
    /// original node order — the gate embeddings the regressor reads.
    ///
    /// # Errors
    ///
    /// Same contract as [`CompiledKernel::predict_into`].
    pub fn embeddings(
        &self,
        plan: &InferencePlan,
        num_iterations: usize,
    ) -> Result<Tensor, GnnError> {
        let h = self.run_recurrence(plan, num_iterations, &mut Scratch::default(), None)?;
        let d = self.hidden_dim;
        let mut rows = Vec::with_capacity(h.len());
        for &packed in &plan.perm {
            rows.extend_from_slice(&h[packed as usize * d..][..d]);
        }
        Ok(Tensor::from_vec(plan.num_nodes, d, rows))
    }

    /// The `T`-iteration recurrence shared by [`CompiledKernel::predict_into`]
    /// and [`CompiledKernel::embeddings`]: returns the final hidden-state
    /// arena `[num_nodes, hidden_dim]` in *packed* node order.
    fn run_recurrence(
        &self,
        plan: &InferencePlan,
        num_iterations: usize,
        s: &mut Scratch,
        metrics: Option<&GnnMetrics>,
    ) -> Result<Vec<f32>, GnnError> {
        if plan.feature_dim != self.feature_dim || plan.attr_dim != self.attr_dim {
            return Err(GnnError::PlanMismatch);
        }
        if let Some(m) = metrics {
            m.circuit_nodes.record(plan.num_nodes as u64);
        }
        let n = plan.num_nodes;
        let d = self.hidden_dim;
        let gi = if self.fix_gate_input {
            d + self.feature_dim
        } else {
            d
        };
        s.reserve(plan, d, gi);

        // Initial embedding of the packed one-hot features.
        let mut h = vec![0.0f32; n * d];
        self.embed
            .dense()
            .apply(&plan.features, n, &mut h, &mut s.wide);

        // Attention attribute biases are constant across iterations:
        // project each forward level's attribute rows once.
        let attr_bias = self.precompute_attr_bias(plan, s);
        // So are the attention walk's segment ids.
        let forward_seg = segment_ids(&plan.forward, &self.forward_agg);
        let reverse_seg = match &self.reverse {
            Some((agg, _)) => segment_ids(&plan.reverse, agg),
            None => Vec::new(),
        };

        for _ in 0..num_iterations {
            for (li, lvl) in plan.forward.iter().enumerate() {
                let bias = attr_bias.get(li).and_then(|b| b.as_deref());
                let seg = forward_seg.get(li).map_or(&[][..], Vec::as_slice);
                self.level_pass(lvl, seg, bias, plan, false, &mut h, s, metrics);
            }
            if self.reverse.is_some() {
                for (li, lvl) in plan.reverse.iter().enumerate() {
                    let seg = reverse_seg.get(li).map_or(&[][..], Vec::as_slice);
                    self.level_pass(lvl, seg, None, plan, true, &mut h, s, metrics);
                }
            }
        }
        Ok(h)
    }

    /// Projects each forward level's edge-attribute rows through the
    /// attention attribute head. Returns one bias-per-edge vector per level
    /// (`None` for levels without attributes or non-attention kernels).
    fn precompute_attr_bias(&self, plan: &InferencePlan, s: &mut Scratch) -> Vec<Option<Vec<f32>>> {
        let proj = match &self.forward_agg {
            AggW::Attention {
                edge_attr: Some(p), ..
            } if plan.attr_dim > 0 => p,
            _ => return Vec::new(),
        };
        plan.forward
            .iter()
            .map(|lvl| {
                let edges = lvl.edge_src.len();
                let mut bias = vec![0.0f32; edges];
                proj.dense().apply(&lvl.attr, edges, &mut bias, &mut s.wide);
                Some(bias)
            })
            .collect()
    }

    /// One level's fused aggregation + GRU update over the packed arena,
    /// each half timed into its own series when `metrics` is given. `seg` is
    /// the level's [`segment_ids`] (empty unless the aggregator is
    /// attention).
    #[allow(clippy::too_many_arguments)]
    fn level_pass(
        &self,
        lvl: &CsrLevel,
        seg: &[u32],
        attr_bias: Option<&[f32]>,
        plan: &InferencePlan,
        reverse: bool,
        h: &mut [f32],
        s: &mut Scratch,
        metrics: Option<&GnnMetrics>,
    ) {
        let agg_start = metrics.map(|_| Instant::now());
        let d = self.hidden_dim;
        let m = lvl.end - lvl.start;
        let edges = lvl.edge_src.len();
        let (agg, gru) = if reverse {
            let (a, g) = self.reverse.as_ref().expect("reverse layer configured");
            (a, g)
        } else {
            (&self.forward_agg, &self.forward_gru)
        };

        // Arenas are pre-sized by `Scratch::reserve`; only `msg` (and the
        // DeepSet segment sum) accumulate, so only they need zeroing here —
        // every other arena is fully overwritten before it is read.
        let msg = &mut s.msg[..m * d];
        msg.fill(0.0);
        match agg {
            AggW::ConvSum { project } => {
                let e1 = &mut s.e1[..edges * d];
                project
                    .dense()
                    .apply_gathered(h, &lvl.edge_src, e1, &mut s.wide);
                segment_sum(e1, &lvl.offsets, d, msg);
            }
            AggW::Attention { query, key, .. } => {
                let arena: &[f32] = h;
                dense::attention(
                    query.dense(),
                    key.dense(),
                    |e| &arena[lvl.edge_src[e] as usize * d..][..d],
                    &h[lvl.start * d..lvl.end * d],
                    seg,
                    attr_bias,
                    &mut s.score[..edges],
                    &mut s.tq[..m],
                    &mut s.sum[..m],
                    msg,
                    &mut s.wide,
                );
            }
            AggW::DeepSet { phi, rho } => {
                let e1 = &mut s.e1[..edges * d];
                for (r, &src) in lvl.edge_src.iter().enumerate() {
                    let row = &h[src as usize * d..(src as usize + 1) * d];
                    mlp_apply_row(
                        phi,
                        row,
                        &mut e1[r * d..(r + 1) * d],
                        &mut s.ha,
                        &mut s.hb,
                        &mut s.wide,
                    );
                }
                let e2 = &mut s.e2[..m * d];
                e2.fill(0.0);
                segment_sum(e1, &lvl.offsets, d, e2);
                rho.dense().apply(e2, m, msg, &mut s.wide);
            }
            AggW::GatedSum { gate, value } => {
                let e1 = &mut s.e1[..edges * d];
                gate.dense()
                    .apply_gathered(h, &lvl.edge_src, e1, &mut s.wide);
                let e2 = &mut s.e2[..edges * d];
                value
                    .dense()
                    .apply_gathered(h, &lvl.edge_src, e2, &mut s.wide);
                for (g, &v) in e1.iter_mut().zip(e2.iter()) {
                    *g = math::sigmoid(*g) * v;
                }
                segment_sum(e1, &lvl.offsets, d, msg);
            }
        }

        let gru_start = metrics.map(|_| Instant::now());
        // GRU input: the message, with the gate one-hot appended when the
        // gate input is fixed (DeepGate's Eq. 6).
        let f = self.feature_dim;
        let input: &[f32] = if self.fix_gate_input {
            let gi = d + f;
            let gin = &mut s.gin[..m * gi];
            for i in 0..m {
                gin[i * gi..i * gi + d].copy_from_slice(&msg[i * d..(i + 1) * d]);
                gin[i * gi + d..(i + 1) * gi]
                    .copy_from_slice(&plan.features[(lvl.start + i) * f..(lvl.start + i + 1) * f]);
            }
            gin
        } else {
            msg
        };
        let g = s.g.each_mut().map(|a| &mut a[..m * d]);
        let h_level = &mut h[lvl.start * d..lvl.end * d];
        dense::gru_step::<false>(gru.dense(), input, h_level, m, g, &mut s.wide);
        if let (Some(mt), Some(t0), Some(t1)) = (metrics, agg_start, gru_start) {
            mt.level_agg_ns.record_duration(t1 - t0);
            mt.level_gru_ns.record_duration(t1.elapsed());
            mt.levels_total.inc();
            mt.csr_level_width.record(m as u64);
        }
    }

    /// The regressor heads over the packed final embeddings. The per-type
    /// path evaluates only the head selected by each node's one-hot — the
    /// tape runs every head over every node and masks after, which adds
    /// exact zeros for the heads not selected.
    fn regress(&self, plan: &InferencePlan, h: &[f32], pred: &mut [f32], s: &mut Scratch) {
        let d = self.hidden_dim;
        let f = self.feature_dim;
        if !self.per_type_regressor {
            let head = &self.heads[0];
            for i in 0..plan.num_nodes {
                mlp_apply_row(
                    head,
                    &h[i * d..(i + 1) * d],
                    &mut pred[i..i + 1],
                    &mut s.ha,
                    &mut s.hb,
                    &mut s.wide,
                );
            }
            return;
        }
        for i in 0..plan.num_nodes {
            let mut acc = 0.0f32;
            let mut one = [0.0f32];
            for (head_idx, head) in self.heads.iter().enumerate() {
                let mask = plan.features[i * f + head_idx];
                if mask > 0.0 {
                    mlp_apply_row(
                        head,
                        &h[i * d..(i + 1) * d],
                        &mut one,
                        &mut s.ha,
                        &mut s.hb,
                        &mut s.wide,
                    );
                    acc += mask * one[0];
                }
            }
            pred[i] = acc;
        }
    }
}

/// Each level's segment ids ([`CsrLevel::edge_rows`]) when `agg` is the
/// attention walk, which takes them, and none otherwise. They are constant
/// across the `T` iterations, so a run derives them once, not per visit.
fn segment_ids(levels: &[CsrLevel], agg: &AggW) -> Vec<Vec<u32>> {
    match agg {
        AggW::Attention { .. } => levels.iter().map(|l| l.edge_rows().collect()).collect(),
        _ => Vec::new(),
    }
}

/// Adds each CSR row's edge rows into its target row, in edge order — the
/// dense form of the tape's `scatter_add_rows`.
fn segment_sum(edge_rows: &[f32], offsets: &[u32], d: usize, out: &mut [f32]) {
    for i in 0..offsets.len() - 1 {
        let (a, b) = (offsets[i] as usize, offsets[i + 1] as usize);
        let orow = &mut out[i * d..(i + 1) * d];
        for e in a..b {
            let erow = &edge_rows[e * d..(e + 1) * d];
            for (o, &v) in orow.iter_mut().zip(erow) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
#[path = "../tests/shapes/mod.rs"]
pub(crate) mod shapes;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureEncoding;
    use deepgate_netlist::{GateKind, Netlist};
    use proptest::prelude::*;

    /// The level-by-level definition of the schedule, as `CircuitGraph` used
    /// to build and carry it (O(levels × nodes); fine for a reference): the
    /// edges entering the nodes of one logic level, in original node ids.
    struct LevelBatch {
        level: usize,
        /// Target nodes updated in this batch, ascending.
        targets: Vec<usize>,
        /// Source node of every incoming edge.
        edge_src: Vec<usize>,
        /// For every edge, the position of its target inside `targets`.
        edge_seg: Vec<usize>,
    }

    fn build_forward_batches(netlist: &Netlist, levels: &[usize]) -> Vec<LevelBatch> {
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut batches = Vec::new();
        for level in 1..=max_level {
            let mut batch = LevelBatch {
                level,
                targets: Vec::new(),
                edge_src: Vec::new(),
                edge_seg: Vec::new(),
            };
            for (id, node) in netlist.iter() {
                if levels[id.index()] != level || node.fanins.is_empty() {
                    continue;
                }
                let seg = batch.targets.len();
                batch.targets.push(id.index());
                for f in &node.fanins {
                    batch.edge_src.push(f.index());
                    batch.edge_seg.push(seg);
                }
            }
            if !batch.targets.is_empty() {
                batches.push(batch);
            }
        }
        batches
    }

    fn build_reverse_batches(netlist: &Netlist, levels: &[usize]) -> Vec<LevelBatch> {
        let max_level = levels.iter().copied().max().unwrap_or(0);
        let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); netlist.len()];
        for (id, node) in netlist.iter() {
            for f in &node.fanins {
                fanouts[f.index()].push(id.index());
            }
        }
        let mut batches = Vec::new();
        for level in (0..max_level).rev() {
            let mut batch = LevelBatch {
                level,
                targets: Vec::new(),
                edge_src: Vec::new(),
                edge_seg: Vec::new(),
            };
            for (id, _) in netlist.iter() {
                let idx = id.index();
                if levels[idx] != level || fanouts[idx].is_empty() {
                    continue;
                }
                let seg = batch.targets.len();
                batch.targets.push(idx);
                for &s in &fanouts[idx] {
                    batch.edge_src.push(s);
                    batch.edge_seg.push(seg);
                }
            }
            if !batch.targets.is_empty() {
                batches.push(batch);
            }
        }
        batches
    }

    /// One direction of a plan against its batches: the same levels in the
    /// same order, and row by row the same edges in the same order. With
    /// `skips` a row's skip edge comes last, under γ(D); every other
    /// attribute row is zero.
    fn levels_match_batches(
        circuit: &CircuitGraph,
        plan: &InferencePlan,
        levels: &[CsrLevel],
        batches: &[LevelBatch],
        skips: bool,
        frequencies: usize,
    ) -> Result<(), String> {
        let mut inv = vec![usize::MAX; plan.num_nodes];
        for (old, &packed) in plan.perm.iter().enumerate() {
            inv[packed as usize] = old;
        }
        let attr_dim = if skips { plan.attr_dim } else { 0 };
        if levels.len() != batches.len() {
            return Err(format!(
                "{} levels, {} batches",
                levels.len(),
                batches.len()
            ));
        }
        for (lvl, batch) in levels.iter().zip(batches) {
            let what = format!("{} level {}", circuit.name, batch.level);
            let rows = &inv[lvl.start..lvl.end];
            let mut sorted = rows.to_vec();
            sorted.sort_unstable();
            if sorted != batch.targets {
                return Err(format!(
                    "{what}: rows {rows:?}, targets {:?}",
                    batch.targets
                ));
            }
            if lvl.offsets.len() != rows.len() + 1
                || lvl.attr.len() != lvl.edge_src.len() * attr_dim
            {
                return Err(format!("{what}: array lengths"));
            }
            for (row, &target) in rows.iter().enumerate() {
                let seg = batch.targets.binary_search(&target).expect("a target");
                let edges = batch.edge_src.iter().zip(&batch.edge_seg);
                let mut want: Vec<usize> = edges
                    .filter(|&(_, &s)| s == seg)
                    .map(|(&src, _)| src)
                    .collect();
                let mut want_attr = vec![0.0f32; want.len() * attr_dim];
                if let Some(skip) = circuit.skip_edge_for(target).filter(|_| attr_dim > 0) {
                    want.push(skip.source);
                    want_attr.extend(positional_encoding(skip.level_difference, frequencies));
                }
                let (a, b) = (lvl.offsets[row] as usize, lvl.offsets[row + 1] as usize);
                let got: Vec<usize> = lvl.edge_src[a..b]
                    .iter()
                    .map(|&src| inv[src as usize])
                    .collect();
                if got != want {
                    return Err(format!("{what}: node {target} reads {got:?}, not {want:?}"));
                }
                if lvl.attr[a * attr_dim..b * attr_dim] != want_attr[..] {
                    return Err(format!("{what}: attribute rows of node {target}"));
                }
            }
        }
        Ok(())
    }

    /// The plan of `netlist`, with and without skip edges, against the
    /// level-by-level definition.
    fn plan_matches_the_level_definition(netlist: &Netlist) -> Result<(), String> {
        let circuit = CircuitGraph::from_netlist(netlist, FeatureEncoding::AigGates, None);
        let forward = build_forward_batches(netlist, &circuit.levels);
        let reverse = build_reverse_batches(netlist, &circuit.levels);
        for frequencies in [0usize, 8] {
            let plan = InferencePlan::compile(&circuit, 2 * frequencies, frequencies);
            // Every node has exactly one packed row, holding its features.
            let mut seen = vec![false; circuit.num_nodes];
            for (old, &packed) in plan.perm.iter().enumerate() {
                if std::mem::replace(&mut seen[packed as usize], true) {
                    return Err(format!("packed row {packed} taken twice"));
                }
                let f = plan.feature_dim;
                if plan.features[packed as usize * f..][..f] != *circuit.features.row(old) {
                    return Err(format!("features of node {old}"));
                }
            }
            // Forward level l is all of level l …
            levels_match_batches(&circuit, &plan, &plan.forward, &forward, true, frequencies)?;
            for (lvl, batch) in plan.forward.iter().zip(&forward) {
                let members = circuit.levels.iter().filter(|&&l| l == batch.level);
                if members.count() != lvl.end - lvl.start {
                    return Err(format!("forward level {} is not whole", batch.level));
                }
            }
            // … and a reverse level is its fan-out-bearing prefix, in
            // ascending node order.
            levels_match_batches(&circuit, &plan, &plan.reverse, &reverse, false, 0)?;
            for (lvl, batch) in plan.reverse.iter().zip(&reverse) {
                let level = circuit.levels.iter().zip(&plan.perm);
                let level_rows = level
                    .filter(|&(&l, _)| l == batch.level)
                    .map(|(_, &row)| row);
                let mut targets = batch.targets.iter().zip(lvl.start..);
                if level_rows.min() != Some(lvl.start as u32)
                    || !targets.all(|(&t, row)| plan.perm[t] as usize == row)
                {
                    return Err(format!("reverse level {} is not a prefix", batch.level));
                }
            }
            if !plan.matches(&circuit, 2 * frequencies) || plan.matches(&circuit, 1) {
                return Err("matches() disagrees with compile()".to_string());
            }
        }
        Ok(())
    }

    #[test]
    fn plan_matches_the_level_definition_on_the_shape_suite() {
        let mut shapes = shapes::shape_suite();
        shapes.push(shapes::shape_funnel());
        for netlist in &shapes {
            plan_matches_the_level_definition(&shapes::expand(netlist)).unwrap();
        }
    }

    /// Shapes the suite lacks, built in AIG-gate form directly (the mapping
    /// would simplify them away): 2 000 levels one row wide; one stem with
    /// 300 consumers; a gate reading one node twice (its row keeps both
    /// edges, and so does the node's fan-out row); nodes without fan-outs
    /// below the top level, so a level has rows outside its reverse prefix.
    #[test]
    fn plan_matches_the_level_definition_on_edge_shapes() {
        plan_matches_the_level_definition(&shapes::shape_chain(2000)).unwrap();

        let mut star = Netlist::new("star");
        let a = star.add_input("a");
        let b = star.add_input("b");
        let stem = star.add_gate(GateKind::And, &[a, b]).unwrap();
        for i in 0..300 {
            let leaf = star.add_gate(GateKind::Not, &[stem]).unwrap();
            star.mark_output(leaf, format!("y{i}"));
        }
        plan_matches_the_level_definition(&star).unwrap();

        let mut n = Netlist::new("twice_and_dangling");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let _unused_input = n.add_input("c");
        let twice = n.add_gate(GateKind::And, &[a, a]).unwrap();
        let _dangling = n.add_gate(GateKind::Not, &[b]).unwrap();
        let both = n.add_gate(GateKind::And, &[twice, b]).unwrap();
        let again = n.add_gate(GateKind::And, &[both, both]).unwrap();
        let top = n.add_gate(GateKind::Not, &[again]).unwrap();
        n.mark_output(top, "y");
        let circuit = CircuitGraph::from_netlist(&n, FeatureEncoding::AigGates, None);
        let plan = InferencePlan::compile(&circuit, 0, 0);
        let level_one = &plan.forward[0];
        assert_eq!(level_one.offsets, [0, 2, 3], "a twice, then b");
        assert_eq!(level_one.edge_src[0], level_one.edge_src[1]);
        let last = plan.reverse.last().expect("inputs feed gates");
        assert_eq!((last.end - last.start, last.edge_src.len()), (2, 4));
        plan_matches_the_level_definition(&n).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn plan_matches_the_level_definition_on_random_circuits(
            netlist in shapes::random_netlist(40),
        ) {
            let outcome = plan_matches_the_level_definition(&shapes::expand(&netlist));
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// The parity suite's reconvergent diamond: inputs a, b, c; a stem that
    /// feeds a NOT and an AND; their join on top.
    fn diamond_graph() -> CircuitGraph {
        let diamond = shapes::shape_diamond();
        CircuitGraph::from_netlist(&diamond, FeatureEncoding::AigGates, None)
    }

    /// The level of every packed row of `circuit` under `plan`.
    fn packed_levels(circuit: &CircuitGraph, plan: &InferencePlan) -> Vec<usize> {
        let mut levels = vec![0; circuit.num_nodes];
        for (old, &packed) in plan.perm.iter().enumerate() {
            levels[packed as usize] = circuit.levels[old];
        }
        levels
    }

    #[test]
    fn forward_levels_cover_all_gates_once() {
        let graph = diamond_graph();
        let plan = InferencePlan::compile(&graph, 0, 0);
        let levels = packed_levels(&graph, &plan);
        let covered: usize = plan.forward.iter().map(|l| l.end - l.start).sum();
        assert_eq!(covered, graph.num_gates());
        // Levels are strictly ascending and edges reference earlier levels
        // only.
        let mut prev_level = 0;
        for lvl in &plan.forward {
            let level = levels[lvl.start];
            assert!(level > prev_level);
            prev_level = level;
            assert!(levels[lvl.start..lvl.end].iter().all(|&l| l == level));
            assert_eq!(*lvl.offsets.last().unwrap() as usize, lvl.edge_src.len());
            assert!(lvl.edge_src.iter().all(|&src| levels[src as usize] < level));
            let seg: Vec<u32> = lvl.edge_rows().collect();
            assert_eq!(seg.len(), lvl.edge_src.len());
            assert!(seg.iter().all(|&row| (row as usize) < lvl.end - lvl.start));
            assert!(seg.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn reverse_levels_point_to_successors() {
        let graph = diamond_graph();
        let plan = InferencePlan::compile(&graph, 0, 0);
        let levels = packed_levels(&graph, &plan);
        // Reverse levels are in descending order and sources are at
        // strictly higher levels.
        let mut prev = usize::MAX;
        for lvl in &plan.reverse {
            let level = levels[lvl.start];
            assert!(level < prev);
            prev = level;
            assert!(lvl.edge_src.iter().all(|&src| levels[src as usize] > level));
        }
        // Every node with at least one fan-out appears exactly once.
        let covered: usize = plan.reverse.iter().map(|l| l.end - l.start).sum();
        assert_eq!(covered, 6); // All but the join have fan-outs.
    }
}
