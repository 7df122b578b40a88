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
//! * The kernel (**kernel-specific**, the rest of this file:
//!   [`crate::DagRecGnn::predict_planned`] and
//!   [`crate::DagRecGnn::embed_planned`]) reads the model's weights in place
//!   out of the [`ParamStore`] — already flat, row-major and cache-dense, as
//!   the DLGN line keeps its gate arrays — and fuses each level's gather +
//!   GEMM + combine into one dense slice walk over a packed hidden-state
//!   arena, without allocating per level. The row code it walks with — the
//!   flat layer view, the fixed-width matvec banks, the GRU update and the
//!   attention walk — lives in [`deepgate_nn::dense`], because the tape's
//!   fused GRU and attention ops run the same functions over the same
//!   store; what stays here is the level walk, the regressor and the
//!   aggregators the tape still records from generic ops.
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
use crate::{Aggregator, AggregatorKind, CircuitGraph, DagRecGnn, GnnError, GnnMetrics};
use deepgate_aig::recon::positional_encoding;
use deepgate_nn::dense;
use deepgate_nn::{math, Activation, GruCell, Mlp, ParamStore, Tensor};
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
/// the kernel ([`DagRecGnn::predict_planned`]) alike.
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
}

/// Applies `mlp`, read out of `store`, to one row, ping-ponging hidden
/// activations through `a`/`b`.
fn mlp_apply_row(
    mlp: &Mlp,
    store: &ParamStore,
    row: &[f32],
    out: &mut [f32],
    a: &mut Vec<f32>,
    b: &mut Vec<f32>,
    wide: &mut Vec<f32>,
) {
    let last = mlp.layers().len() - 1;
    a.clear();
    a.extend_from_slice(row);
    for (i, layer) in mlp.layers().iter().enumerate() {
        if i == last {
            layer.dense(store).apply(a, 1, out, wide);
        } else {
            b.clear();
            b.resize(layer.out_features(), 0.0);
            layer.dense(store).apply(a, 1, b, wide);
            for v in b.iter_mut() {
                *v = match mlp.activation() {
                    Activation::Relu => v.max(0.0),
                    Activation::Tanh => math::tanh(*v),
                    Activation::Sigmoid => math::sigmoid(*v),
                };
            }
            std::mem::swap(a, b);
        }
    }
    if mlp.has_sigmoid_output() {
        for v in out.iter_mut() {
            *v = math::sigmoid(*v);
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

/// The kernel: [`DagRecGnn`]'s recurrence and regressor over the CSR arena
/// layout, every weight read in place out of the [`ParamStore`] the tape
/// trains, so the next prediction sees every optimiser step.
impl DagRecGnn {
    /// Runs the full recurrence over a packed plan, writing per-node
    /// probabilities (original node order) into `out` — the tape-free
    /// inference path. Build the plan once per circuit
    /// ([`DagRecGnn::plan`]) and reuse it across predictions.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::PlanMismatch`] if the plan's feature or
    /// edge-attribute width does not match the model.
    pub fn predict_planned(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        num_iterations: usize,
        out: &mut Vec<f32>,
        metrics: Option<&GnnMetrics>,
    ) -> Result<(), GnnError> {
        let mut s = Scratch::default();
        let h = self.recurrence(store, plan, num_iterations, &mut s, metrics)?;

        let regress_start = metrics.map(|_| Instant::now());
        let mut pred = vec![0.0f32; plan.num_nodes];
        self.regress_rows(store, plan, &h, &mut pred, &mut s);
        if let (Some(m), Some(start)) = (metrics, regress_start) {
            m.regress_ns.record_duration(start.elapsed());
        }

        out.clear();
        out.extend(plan.perm.iter().map(|&packed| pred[packed as usize]));
        Ok(())
    }

    /// Runs the full recurrence over a packed plan and returns the final
    /// hidden states `h_v^T` as a `[num_nodes, hidden_dim]` tensor in
    /// original node order — the gate embeddings the regressor reads.
    ///
    /// # Errors
    ///
    /// Same contract as [`DagRecGnn::predict_planned`].
    pub fn embed_planned(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        num_iterations: usize,
    ) -> Result<Tensor, GnnError> {
        let h = self.recurrence(store, plan, num_iterations, &mut Scratch::default(), None)?;
        let d = self.config.hidden_dim;
        let mut rows = Vec::with_capacity(h.len());
        for &packed in &plan.perm {
            rows.extend_from_slice(&h[packed as usize * d..][..d]);
        }
        Ok(Tensor::from_vec(plan.num_nodes, d, rows))
    }

    /// The `T`-iteration recurrence shared by [`DagRecGnn::predict_planned`]
    /// and [`DagRecGnn::embed_planned`], after the one check that the plan
    /// fits the model: returns the final hidden-state arena
    /// `[num_nodes, hidden_dim]` in *packed* node order.
    fn recurrence(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        num_iterations: usize,
        s: &mut Scratch,
        metrics: Option<&GnnMetrics>,
    ) -> Result<Vec<f32>, GnnError> {
        let config = &self.config;
        if plan.feature_dim != config.feature_dim || plan.attr_dim != config.edge_attr_dim() {
            return Err(GnnError::PlanMismatch);
        }
        if let Some(m) = metrics {
            m.circuit_nodes.record(plan.num_nodes as u64);
        }
        let (n, d) = (plan.num_nodes, config.hidden_dim);
        s.reserve(plan, d, config.gru_input_dim());

        // Initial embedding of the packed one-hot features.
        let mut h = vec![0.0f32; n * d];
        let embed = self.embed.dense(store);
        embed.apply(&plan.features, n, &mut h, &mut s.wide);

        // Attention attribute biases are constant across iterations:
        // project each forward level's attribute rows once.
        let attr_bias = attr_bias(&self.forward_agg, store, plan, s);
        // So are the attention walk's segment ids.
        let forward = (&self.forward_agg, &self.forward_gru);
        let forward_seg = segment_ids(&plan.forward, forward.0);
        let reverse = self.reverse_agg.as_ref().zip(self.reverse_gru.as_ref());
        let reverse_seg = reverse.map_or_else(Vec::new, |(agg, _)| segment_ids(&plan.reverse, agg));

        for _ in 0..num_iterations {
            for (li, lvl) in plan.forward.iter().enumerate() {
                let bias = attr_bias.get(li).map(Vec::as_slice);
                let seg = forward_seg.get(li).map_or(&[][..], Vec::as_slice);
                self.level_pass(store, plan, lvl, seg, bias, forward, &mut h, s, metrics);
            }
            if let Some(reverse) = reverse {
                for (li, lvl) in plan.reverse.iter().enumerate() {
                    let seg = reverse_seg.get(li).map_or(&[][..], Vec::as_slice);
                    self.level_pass(store, plan, lvl, seg, None, reverse, &mut h, s, metrics);
                }
            }
        }
        Ok(h)
    }

    /// One level's fused aggregation + GRU update over the packed arena,
    /// with the direction's aggregator and GRU, each half timed into its own
    /// series when `metrics` is given. `seg` is the level's [`segment_ids`]
    /// (empty unless the aggregator is attention).
    #[allow(clippy::too_many_arguments)]
    fn level_pass(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        lvl: &CsrLevel,
        seg: &[u32],
        attr_bias: Option<&[f32]>,
        (agg, gru): (&Aggregator, &GruCell),
        h: &mut [f32],
        s: &mut Scratch,
        metrics: Option<&GnnMetrics>,
    ) {
        let agg_start = metrics.map(|_| Instant::now());
        let d = self.config.hidden_dim;
        let m = lvl.end - lvl.start;
        let edges = lvl.edge_src.len();

        // Arenas are pre-sized by `Scratch::reserve`; only `msg` (and the
        // DeepSet segment sum) accumulate, so only they need zeroing here —
        // every other arena is fully overwritten before it is read.
        let msg = &mut s.msg[..m * d];
        msg.fill(0.0);
        match agg.params() {
            AggregatorParams::ConvSum { project } => {
                let e1 = &mut s.e1[..edges * d];
                let project = project.dense(store);
                project.apply_gathered(h, &lvl.edge_src, e1, &mut s.wide);
                segment_sum(e1, &lvl.offsets, d, msg);
            }
            AggregatorParams::Attention { query, key, .. } => {
                let arena: &[f32] = h;
                dense::attention(
                    query.dense(store),
                    key.dense(store),
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
            AggregatorParams::DeepSet { phi, rho } => {
                let e1 = &mut s.e1[..edges * d];
                for (r, &src) in lvl.edge_src.iter().enumerate() {
                    let row = &h[src as usize * d..(src as usize + 1) * d];
                    let out = &mut e1[r * d..(r + 1) * d];
                    mlp_apply_row(phi, store, row, out, &mut s.ha, &mut s.hb, &mut s.wide);
                }
                let e2 = &mut s.e2[..m * d];
                e2.fill(0.0);
                segment_sum(e1, &lvl.offsets, d, e2);
                rho.dense(store).apply(e2, m, msg, &mut s.wide);
            }
            AggregatorParams::GatedSum { gate, value } => {
                let e1 = &mut s.e1[..edges * d];
                let gate = gate.dense(store);
                gate.apply_gathered(h, &lvl.edge_src, e1, &mut s.wide);
                let e2 = &mut s.e2[..edges * d];
                let value = value.dense(store);
                value.apply_gathered(h, &lvl.edge_src, e2, &mut s.wide);
                for (g, &v) in e1.iter_mut().zip(e2.iter()) {
                    *g = math::sigmoid(*g) * v;
                }
                segment_sum(e1, &lvl.offsets, d, msg);
            }
        }

        let gru_start = metrics.map(|_| Instant::now());
        // GRU input: the message, with the gate one-hot appended when the
        // gate input is fixed (DeepGate's Eq. 6).
        let f = self.config.feature_dim;
        let input: &[f32] = if self.config.fix_gate_input {
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
        let gates = gru.gates().map(|l| l.dense(store));
        dense::gru_step::<false>(gates, input, h_level, m, g, &mut s.wide);
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
    fn regress_rows(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        h: &[f32],
        pred: &mut [f32],
        s: &mut Scratch,
    ) {
        let (d, f) = (self.config.hidden_dim, self.config.feature_dim);
        let (ha, hb, wide) = (&mut s.ha, &mut s.hb, &mut s.wide);
        for (i, p) in pred.iter_mut().enumerate() {
            let row = &h[i * d..(i + 1) * d];
            if !self.config.per_type_regressor {
                let head = &self.regressors[0];
                mlp_apply_row(head, store, row, std::slice::from_mut(p), ha, hb, wide);
                continue;
            }
            let mut acc = 0.0f32;
            let mut one = [0.0f32];
            for (head_idx, head) in self.regressors.iter().enumerate() {
                let mask = plan.features[i * f + head_idx];
                if mask > 0.0 {
                    mlp_apply_row(head, store, row, &mut one, ha, hb, wide);
                    acc += mask * one[0];
                }
            }
            *p = acc;
        }
    }
}

/// Projects each forward level's edge-attribute rows through the attention
/// aggregator's attribute head: one bias per edge per level, and no levels
/// at all when `agg` has no such head.
fn attr_bias(
    agg: &Aggregator,
    store: &ParamStore,
    plan: &InferencePlan,
    s: &mut Scratch,
) -> Vec<Vec<f32>> {
    let AggregatorParams::Attention {
        edge_attr: Some(proj),
        ..
    } = agg.params()
    else {
        return Vec::new();
    };
    let proj = proj.dense(store);
    let project = |lvl: &CsrLevel| {
        let edges = lvl.edge_src.len();
        let mut bias = vec![0.0f32; edges];
        proj.apply(&lvl.attr, edges, &mut bias, &mut s.wide);
        bias
    };
    plan.forward.iter().map(project).collect()
}

/// Each level's segment ids ([`CsrLevel::edge_rows`]) when `agg` is the
/// attention walk, which takes them, and none otherwise. They are constant
/// across the `T` iterations, so a run derives them once, not per visit.
fn segment_ids(levels: &[CsrLevel], agg: &Aggregator) -> Vec<Vec<u32>> {
    match agg.kind() {
        AggregatorKind::Attention => levels.iter().map(|l| l.edge_rows().collect()).collect(),
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
