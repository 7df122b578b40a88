//! The CSR level-packed inference kernel.
//!
//! The autodiff tape walks the pointer-shaped [`CircuitGraph`] directly:
//! every level batch gathers scattered node rows into fresh tensors, runs
//! the aggregator and GRU on them, and scatters the results back — one
//! allocation per step, one cache miss per row. Following
//! the DLGN line (flat, cache-dense gate arrays), this module compiles a
//! circuit once into an arena layout and a model once into flat weight
//! arrays, then fuses each level's gather + GEMM + combine into a single
//! dense slice walk:
//!
//! * [`InferencePlan`] permutes the nodes into **level-contiguous order**
//!   (reverse-propagation targets first within each level, so both the
//!   forward and the reverse GRU update become dense in-place sub-slice
//!   writes) and stores each level's fan-in adjacency as **CSR**: one
//!   `offsets` array and one flat `edge_src` array per level, skip edges
//!   appended to their target's row with the positional-encoding attribute
//!   rows precomputed.
//! * [`CompiledKernel`] copies the model's weights out of the parameter
//!   store into row-major flat arrays and runs the whole recurrence over the
//!   packed arrays without touching the store or allocating per level.
//!
//! **Exactness contract:** the kernel reproduces the autodiff-tape forward
//! ([`crate::DagRecGnn::forward_hidden`] and, through the regressor,
//! [`crate::ProbabilityModel::try_forward`] — the definition training
//! optimises) *bit-exactly*, for the final hidden states and the
//! probabilities alike: every accumulation runs in the same order over the
//! same values, and every `exp`, sigmoid and `tanh` on either side is
//! [`deepgate_nn::math`] — branch-free IEEE arithmetic that gives a scalar
//! call on the tape and a lane of the kernel's vector loops the same bits.
//! The property suite `tests/csr_parity.rs` asserts `to_bits` equality
//! across circuit shapes, aggregators, model variants and hidden widths.

use crate::aggregator::AggregatorParams;
use crate::{Aggregator, CircuitGraph, GnnError, GnnMetrics};
use deepgate_aig::recon::positional_encoding;
use deepgate_nn::{math, Activation, GruCell, Linear, Mlp, ParamStore, Tensor};
use std::time::Instant;

/// One level's packed state: a contiguous target range and its fan-in
/// adjacency in CSR form.
#[derive(Debug, Clone)]
struct CsrLevel {
    /// First packed node index updated by this level.
    start: usize,
    /// One past the last packed node index updated by this level.
    end: usize,
    /// CSR row offsets into `edge_src` / `attr`; `offsets[i]..offsets[i+1]`
    /// are the edges of packed target `start + i`, ordinary fan-ins first
    /// (in circuit order) with the skip edge, if any, appended last — the
    /// same per-target order the tape's scatter-add walks.
    offsets: Vec<u32>,
    /// Packed source node index of every edge.
    edge_src: Vec<u32>,
    /// Flat `[num_edges, attr_dim]` edge attributes (positional encodings on
    /// skip edges, zeros elsewhere); empty when the plan has no attributes.
    attr: Vec<f32>,
}

/// A circuit compiled into the CSR arena layout consumed by
/// [`CompiledKernel::predict_into`].
///
/// Nodes are permuted into level-contiguous order so every level's update is
/// one dense sub-slice of the hidden-state arena; the permutation is undone
/// when results are written out, so callers see original node order.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    num_nodes: usize,
    feature_dim: usize,
    attr_dim: usize,
    /// Original node index → packed index.
    perm: Vec<u32>,
    /// `[num_nodes, feature_dim]` one-hot features in packed order.
    features: Vec<f32>,
    /// Forward levels in ascending level order; each target range spans its
    /// whole level.
    forward: Vec<CsrLevel>,
    /// Reverse levels in descending level order; each target range is the
    /// fan-out-bearing prefix of its level.
    reverse: Vec<CsrLevel>,
}

impl InferencePlan {
    /// Compiles a circuit into the packed layout. `attr_dim` and
    /// `frequencies` come from the model configuration (0 attributes when
    /// skip connections are disabled).
    pub(crate) fn compile(circuit: &CircuitGraph, attr_dim: usize, frequencies: usize) -> Self {
        let n = circuit.num_nodes;
        assert!(n < u32::MAX as usize, "circuit too large for CSR plan");
        let f = circuit.encoding.dimension();

        // Reverse-propagation targets go first within their level so both
        // propagation directions update contiguous packed ranges.
        let mut is_rev = vec![false; n];
        for batch in &circuit.reverse_batches {
            for &t in &batch.targets {
                is_rev[t] = true;
            }
        }
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); circuit.max_level + 1];
        for (id, &level) in circuit.levels.iter().enumerate() {
            by_level[level].push(id as u32);
        }
        let mut level_start = Vec::with_capacity(by_level.len() + 1);
        let mut inv: Vec<u32> = Vec::with_capacity(n);
        for nodes in &by_level {
            level_start.push(inv.len());
            inv.extend(nodes.iter().filter(|&&id| is_rev[id as usize]));
            inv.extend(nodes.iter().filter(|&&id| !is_rev[id as usize]));
        }
        level_start.push(n);
        let mut perm = vec![0u32; n];
        for (packed, &old) in inv.iter().enumerate() {
            perm[old as usize] = packed as u32;
        }

        let mut features = vec![0.0f32; n * f];
        for (packed, &old) in inv.iter().enumerate() {
            features[packed * f..(packed + 1) * f]
                .copy_from_slice(circuit.features.row(old as usize));
        }

        // Scratch reused across batches: target node → its segment index in
        // the current batch (stale entries are never read because each
        // batch's targets are rewritten before use).
        let mut seg_of = vec![u32::MAX; n];
        let mut per_seg: Vec<Vec<u32>> = Vec::new();

        let mut forward = Vec::with_capacity(circuit.forward_batches.len());
        for batch in &circuit.forward_batches {
            let start = level_start[batch.level];
            let end = level_start[batch.level + 1];
            assert_eq!(
                end - start,
                batch.targets.len(),
                "forward batch must cover every node of its level"
            );
            for (seg, &t) in batch.targets.iter().enumerate() {
                seg_of[t] = seg as u32;
            }
            per_seg.clear();
            per_seg.resize(batch.targets.len(), Vec::new());
            for (&src, &seg) in batch.edge_src.iter().zip(&batch.edge_seg) {
                per_seg[seg].push(perm[src]);
            }
            let mut offsets = Vec::with_capacity(end - start + 1);
            offsets.push(0u32);
            let mut edge_src = Vec::new();
            let mut attr = Vec::new();
            for &orig in &inv[start..end] {
                let old = orig as usize;
                let seg = seg_of[old] as usize;
                edge_src.extend_from_slice(&per_seg[seg]);
                if attr_dim > 0 {
                    for _ in 0..per_seg[seg].len() {
                        attr.extend(std::iter::repeat_n(0.0, attr_dim));
                    }
                    if let Some(skip) = circuit.skip_edge_for(old) {
                        edge_src.push(perm[skip.source]);
                        attr.extend(positional_encoding(skip.level_difference, frequencies));
                    }
                }
                offsets.push(edge_src.len() as u32);
            }
            forward.push(CsrLevel {
                start,
                end,
                offsets,
                edge_src,
                attr,
            });
        }

        let mut reverse = Vec::with_capacity(circuit.reverse_batches.len());
        for batch in &circuit.reverse_batches {
            let start = level_start[batch.level];
            // Reverse targets are the packed prefix of their level, in batch
            // order — guaranteed by the rev-first packing above.
            for (i, &t) in batch.targets.iter().enumerate() {
                assert_eq!(
                    perm[t] as usize,
                    start + i,
                    "reverse batch must be the packed prefix of its level"
                );
            }
            per_seg.clear();
            per_seg.resize(batch.targets.len(), Vec::new());
            for (&src, &seg) in batch.edge_src.iter().zip(&batch.edge_seg) {
                per_seg[seg].push(perm[src]);
            }
            let mut offsets = Vec::with_capacity(batch.targets.len() + 1);
            offsets.push(0u32);
            let mut edge_src = Vec::new();
            for seg_edges in &per_seg {
                edge_src.extend_from_slice(seg_edges);
                offsets.push(edge_src.len() as u32);
            }
            reverse.push(CsrLevel {
                start,
                end: start + batch.targets.len(),
                offsets,
                edge_src,
                attr: Vec::new(),
            });
        }

        InferencePlan {
            num_nodes: n,
            feature_dim: f,
            attr_dim,
            perm,
            features,
            forward,
            reverse,
        }
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
            && self.forward.len() == circuit.forward_batches.len()
            && self.reverse.len() == circuit.reverse_batches.len()
            && self.attr_dim == attr_dim
    }
}

/// Widest output dimension accumulated in a stack buffer. Accumulating into
/// a local array instead of the output slice keeps the partial sums out of
/// the `out`/weights alias analysis, which is worth >2x on the matvec loop;
/// wider layers fall back to heap scratch.
const ACC_WIDTH: usize = 128;

/// A dense affine layer baked into flat row-major arrays.
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

    /// Applies the layer to `rows` contiguous input rows.
    fn apply(&self, input: &[f32], rows: usize, out: &mut [f32], wide: &mut Vec<f32>) {
        let row_of = |r: usize| &input[r * self.in_dim..][..self.in_dim];
        self.apply_rows(row_of, rows, out, wide);
    }

    /// Applies the layer to rows of `arena` selected by `idx` — the fused
    /// gather + GEMM walk of the CSR kernel.
    fn apply_gathered(&self, arena: &[f32], idx: &[u32], out: &mut [f32], wide: &mut Vec<f32>) {
        let row_of = |r: usize| &arena[idx[r] as usize * self.in_dim..][..self.in_dim];
        self.apply_rows(row_of, idx.len(), out, wide);
    }

    /// The one row walk behind [`LinW::apply`] and [`LinW::apply_gathered`];
    /// `row_of(r)` hands out input row `r`. Every row is `row @ W (+ b)`,
    /// accumulated over `k` in ascending order with the zero-skip of
    /// `Tensor::matmul`, the bias added in a separate pass — bit-exact with
    /// the tape's `Linear::forward`. Dispatches on the output width once per
    /// call, not once per row: score layers to [`LinW::scores_blocked`], the
    /// common widths to register-resident fixed-width banks ([`accum1`]),
    /// anything else to the runtime-width loop, whose heap accumulator for
    /// layers wider than [`ACC_WIDTH`] is `wide`.
    fn apply_rows<'a>(
        &self,
        row_of: impl Fn(usize) -> &'a [f32],
        rows: usize,
        out: &mut [f32],
        wide: &mut Vec<f32>,
    ) {
        match self.out_dim {
            1 => return self.scores_blocked(row_of, rows, out),
            8 => return rows1_fixed::<8>(self, row_of, rows, out),
            16 => return rows1_fixed::<16>(self, row_of, rows, out),
            32 => return rows1_fixed::<32>(self, row_of, rows, out),
            64 => return rows1_fixed::<64>(self, row_of, rows, out),
            _ => {}
        }
        let mut stack = [0.0f32; ACC_WIDTH];
        let acc: &mut [f32] = if self.out_dim <= ACC_WIDTH {
            &mut stack[..self.out_dim]
        } else {
            wide.resize(self.out_dim, 0.0);
            wide
        };
        for r in 0..rows {
            let out = &mut out[r * self.out_dim..(r + 1) * self.out_dim];
            acc.fill(0.0);
            for (k, &a) in row_of(r).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let wrow = &self.w[k * self.out_dim..(k + 1) * self.out_dim];
                for (o, &wv) in acc.iter_mut().zip(wrow) {
                    *o += a * wv;
                }
            }
            if self.b.is_empty() {
                out.copy_from_slice(acc);
            } else {
                for ((o, &s), &bv) in out.iter_mut().zip(acc.iter()).zip(&self.b) {
                    *o = s + bv;
                }
            }
        }
    }

    /// Projection-to-score layers (`out_dim == 1`) walk one k-ascending
    /// zero-skip chain per row — inherently sequential, so one-at-a-time
    /// evaluation is add-latency bound. Interleaving four independent rows
    /// fills the latency bubbles without touching any single chain's order,
    /// keeping every score bit-exact.
    #[inline(never)]
    fn scores_blocked<'a>(
        &self,
        row_of: impl Fn(usize) -> &'a [f32],
        rows: usize,
        out: &mut [f32],
    ) {
        let din = self.in_dim;
        let w = &self.w[..din];
        let bias = self.b.first().copied();
        let mut r = 0;
        while r + 4 <= rows {
            let (r0, r1, r2, r3) = (row_of(r), row_of(r + 1), row_of(r + 2), row_of(r + 3));
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (k, &wv) in w.iter().enumerate() {
                if r0[k] != 0.0 {
                    a0 += r0[k] * wv;
                }
                if r1[k] != 0.0 {
                    a1 += r1[k] * wv;
                }
                if r2[k] != 0.0 {
                    a2 += r2[k] * wv;
                }
                if r3[k] != 0.0 {
                    a3 += r3[k] * wv;
                }
            }
            if let Some(bv) = bias {
                a0 += bv;
                a1 += bv;
                a2 += bv;
                a3 += bv;
            }
            out[r] = a0;
            out[r + 1] = a1;
            out[r + 2] = a2;
            out[r + 3] = a3;
            r += 4;
        }
        while r < rows {
            let row = row_of(r);
            let mut acc = 0.0f32;
            for (k, &wv) in w.iter().enumerate() {
                if row[k] != 0.0 {
                    acc += row[k] * wv;
                }
            }
            out[r] = if let Some(bv) = bias { acc + bv } else { acc };
            r += 1;
        }
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
            layer.apply(a, 1, out, wide);
        } else {
            b.clear();
            b.resize(layer.out_dim, 0.0);
            layer.apply(a, 1, b, wide);
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

/// The six GRU gate projections in flat form.
#[derive(Debug, Clone)]
struct GruW {
    xr: LinW,
    hr: LinW,
    xz: LinW,
    hz: LinW,
    xn: LinW,
    hn: LinW,
}

impl GruW {
    fn from_gru(store: &ParamStore, gru: &GruCell) -> Self {
        let [xr, hr, xz, hz, xn, hn] = gru.gates();
        GruW {
            xr: LinW::from_linear(store, xr),
            hr: LinW::from_linear(store, hr),
            xz: LinW::from_linear(store, xz),
            hz: LinW::from_linear(store, hz),
            xn: LinW::from_linear(store, xn),
            hn: LinW::from_linear(store, hn),
        }
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
    /// Heap accumulator for layers wider than [`ACC_WIDTH`].
    wide: Vec<f32>,
    /// Per-target attention query scores.
    tq: Vec<f32>,
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
        self.embed.apply(&plan.features, n, &mut h, &mut s.wide);

        // Attention attribute biases are constant across iterations:
        // project each forward level's attribute rows once.
        let attr_bias = self.precompute_attr_bias(plan, s);

        for _ in 0..num_iterations {
            for (li, lvl) in plan.forward.iter().enumerate() {
                let bias = attr_bias.get(li).and_then(|b| b.as_deref());
                self.level_pass(lvl, bias, plan, false, &mut h, s, metrics);
            }
            if self.reverse.is_some() {
                for lvl in &plan.reverse {
                    self.level_pass(lvl, None, plan, true, &mut h, s, metrics);
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
                proj.apply(&lvl.attr, edges, &mut bias, &mut s.wide);
                Some(bias)
            })
            .collect()
    }

    /// One level's fused aggregation + GRU update over the packed arena,
    /// each half timed into its own series when `metrics` is given.
    #[allow(clippy::too_many_arguments)]
    fn level_pass(
        &self,
        lvl: &CsrLevel,
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
                project.apply_gathered(h, &lvl.edge_src, e1, &mut s.wide);
                segment_sum(e1, &lvl.offsets, d, msg);
            }
            AggW::Attention { query, key, .. } => {
                // Per-edge key scores, fused gather + dot.
                let score = &mut s.score[..edges];
                key.apply_gathered(h, &lvl.edge_src, score, &mut s.wide);
                // Per-target query scores (shared by all of a target's
                // edges — same value the tape's per-edge gather computes).
                let tq = &mut s.tq[..m];
                query.apply(&h[lvl.start * d..lvl.end * d], m, tq, &mut s.wide);
                for (i, &tqi) in tq.iter().enumerate() {
                    let (a, b) = (lvl.offsets[i] as usize, lvl.offsets[i + 1] as usize);
                    for sc in &mut score[a..b] {
                        *sc += tqi;
                    }
                }
                if let Some(bias) = attr_bias {
                    for (sc, &bv) in score.iter_mut().zip(bias) {
                        *sc += bv;
                    }
                }
                // Segment softmax in place, in the tape's edge order.
                for i in 0..m {
                    let (a, b) = (lvl.offsets[i] as usize, lvl.offsets[i + 1] as usize);
                    let seg = &mut score[a..b];
                    let max = seg.iter().fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
                    let mut sum = 0.0f32;
                    for v in seg.iter_mut() {
                        *v = math::exp(*v - max);
                        sum += *v;
                    }
                    for v in seg.iter_mut() {
                        *v /= sum;
                    }
                }
                // Weighted accumulation of source rows.
                for i in 0..m {
                    let (a, b) = (lvl.offsets[i] as usize, lvl.offsets[i + 1] as usize);
                    let mrow = &mut msg[i * d..(i + 1) * d];
                    for e in a..b {
                        let alpha = score[e];
                        let src = &h[lvl.edge_src[e] as usize * d..][..d];
                        for (o, &sv) in mrow.iter_mut().zip(src) {
                            *o += alpha * sv;
                        }
                    }
                }
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
                rho.apply(e2, m, msg, &mut s.wide);
            }
            AggW::GatedSum { gate, value } => {
                let e1 = &mut s.e1[..edges * d];
                gate.apply_gathered(h, &lvl.edge_src, e1, &mut s.wide);
                let e2 = &mut s.e2[..edges * d];
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
        gru_step(gru, input, h_level, m, g, &mut s.wide);
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

/// Accumulates `row @ W` into a compile-time-width accumulator bank. The
/// monomorphic width lets LLVM keep the whole bank in SIMD registers across
/// the `k` walk instead of round-tripping every partial sum through the
/// stack — the chains and their order are identical to the runtime-width
/// loop, only the register allocation changes.
#[inline(always)]
fn accum1<const D: usize>(row: &[f32], w: &[f32], acc: &mut [f32; D]) {
    for (k, &a) in row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let wr = &w[k * D..k * D + D];
        // Indexed, not iterator-zip: the zip form of this loop gets
        // SLP-scalarized at `D = 32` (an order-of-magnitude regression);
        // the indexed form reliably takes the loop vectorizer.
        for j in 0..D {
            acc[j] += a * wr[j];
        }
    }
}

/// One `k` step of the three-bank variant of [`accum1`]: a non-zero input
/// element `x` times weight row `k` of three matrices, into three
/// independent accumulator banks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step3<const D: usize>(
    x: f32,
    k: usize,
    wa: &[f32],
    wb: &[f32],
    wc: &[f32],
    aa: &mut [f32; D],
    ab: &mut [f32; D],
    ac: &mut [f32; D],
) {
    let ra = &wa[k * D..k * D + D];
    let rb = &wb[k * D..k * D + D];
    let rc = &wc[k * D..k * D + D];
    for j in 0..D {
        aa[j] += x * ra[j];
        ab[j] += x * rb[j];
        ac[j] += x * rc[j];
    }
}

/// Two-bank variant of [`accum1`] for the h-side GRU gate pair.
#[inline(always)]
fn accum2<const D: usize>(
    row: &[f32],
    wa: &[f32],
    wb: &[f32],
    aa: &mut [f32; D],
    ab: &mut [f32; D],
) {
    for (k, &a) in row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let ra = &wa[k * D..k * D + D];
        let rb = &wb[k * D..k * D + D];
        for j in 0..D {
            aa[j] += a * ra[j];
            ab[j] += a * rb[j];
        }
    }
}

/// Writes an f32 accumulator bank out, adding the bias after accumulation
/// exactly like [`LinW::apply_rows`].
#[inline(always)]
fn write_f32<const D: usize>(b: &[f32], acc: &[f32; D], out: &mut [f32]) {
    if b.is_empty() {
        out.copy_from_slice(acc);
    } else {
        for ((o, &av), &bv) in out.iter_mut().zip(acc).zip(b) {
            *o = av + bv;
        }
    }
}

/// Applies three layers that share the same input rows (the x-side GRU
/// gates) in a single pass: each input element is loaded and zero-tested
/// once and feeds three register-resident accumulator banks. Every output
/// element keeps the exact k-ascending zero-skip accumulation chain of
/// [`LinW::apply_rows`], so the fusion is bit-exact — it only changes how
/// many partial sums are alive at once, not the order within any one of
/// them.
#[allow(clippy::too_many_arguments)]
fn apply_fused3(
    la: &LinW,
    lb: &LinW,
    lc: &LinW,
    input: &[f32],
    rows: usize,
    oa: &mut [f32],
    ob: &mut [f32],
    oc: &mut [f32],
    wide: &mut Vec<f32>,
) {
    debug_assert!(lb.in_dim == la.in_dim && lc.in_dim == la.in_dim);
    debug_assert!(lb.out_dim == la.out_dim && lc.out_dim == la.out_dim);
    match la.out_dim {
        8 => fused3_fixed::<8>(la, lb, lc, input, rows, oa, ob, oc),
        16 => fused3_fixed::<16>(la, lb, lc, input, rows, oa, ob, oc),
        32 => fused3_fixed::<32>(la, lb, lc, input, rows, oa, ob, oc),
        64 => fused3_fixed::<64>(la, lb, lc, input, rows, oa, ob, oc),
        _ => {
            la.apply(input, rows, oa, wide);
            lb.apply(input, rows, ob, wide);
            lc.apply(input, rows, oc, wide);
        }
    }
}

/// The x-side pass walks **two rows per weight load**: at `d = 64` its
/// three `[d + f, d]` matrices (51 KiB) outgrow a 48 KiB L1d, so a
/// row-at-a-time walk re-streams them from L2 for every row. A pair of rows
/// shares each weight row while it is in L1, feeding six register-resident
/// banks; each row keeps its own zero-skip and its own k-ascending chains —
/// blocking across rows is exact, blocking across k would not be. An odd
/// last row walks alone.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn fused3_fixed<const D: usize>(
    la: &LinW,
    lb: &LinW,
    lc: &LinW,
    input: &[f32],
    rows: usize,
    oa: &mut [f32],
    ob: &mut [f32],
    oc: &mut [f32],
) {
    let din = la.in_dim;
    let (wa, wb, wc) = (&la.w[..din * D], &lb.w[..din * D], &lc.w[..din * D]);
    let mut write = |r: usize, aa: &[f32; D], ab: &[f32; D], ac: &[f32; D]| {
        write_f32::<D>(&la.b, aa, &mut oa[r * D..(r + 1) * D]);
        write_f32::<D>(&lb.b, ab, &mut ob[r * D..(r + 1) * D]);
        write_f32::<D>(&lc.b, ac, &mut oc[r * D..(r + 1) * D]);
    };
    for r in (0..rows - rows % 2).step_by(2) {
        let (row0, row1) = input[r * din..(r + 2) * din].split_at(din);
        let (mut a0, mut b0, mut c0) = ([0.0f32; D], [0.0f32; D], [0.0f32; D]);
        let (mut a1, mut b1, mut c1) = ([0.0f32; D], [0.0f32; D], [0.0f32; D]);
        for (k, (&x0, &x1)) in row0.iter().zip(row1).enumerate() {
            if x0 != 0.0 {
                step3::<D>(x0, k, wa, wb, wc, &mut a0, &mut b0, &mut c0);
            }
            if x1 != 0.0 {
                step3::<D>(x1, k, wa, wb, wc, &mut a1, &mut b1, &mut c1);
            }
        }
        write(r, &a0, &b0, &c0);
        write(r + 1, &a1, &b1, &c1);
    }
    if rows % 2 == 1 {
        let (mut aa, mut ab, mut ac) = ([0.0f32; D], [0.0f32; D], [0.0f32; D]);
        for (k, &x) in input[(rows - 1) * din..rows * din].iter().enumerate() {
            if x != 0.0 {
                step3::<D>(x, k, wa, wb, wc, &mut aa, &mut ab, &mut ac);
            }
        }
        write(rows - 1, &aa, &ab, &ac);
    }
}

/// Two-layer variant of [`apply_fused3`] for the h-side GRU gate pair. Its
/// 32 KiB panel already sits in L1, so rows go one at a time.
fn apply_fused2(
    la: &LinW,
    lb: &LinW,
    input: &[f32],
    rows: usize,
    oa: &mut [f32],
    ob: &mut [f32],
    wide: &mut Vec<f32>,
) {
    debug_assert!(lb.in_dim == la.in_dim && lb.out_dim == la.out_dim);
    match la.out_dim {
        8 => fused2_fixed::<8>(la, lb, input, rows, oa, ob),
        16 => fused2_fixed::<16>(la, lb, input, rows, oa, ob),
        32 => fused2_fixed::<32>(la, lb, input, rows, oa, ob),
        64 => fused2_fixed::<64>(la, lb, input, rows, oa, ob),
        _ => {
            la.apply(input, rows, oa, wide);
            lb.apply(input, rows, ob, wide);
        }
    }
}

/// Single-layer fixed-width batch: one matrix over the `rows` input rows
/// `row_of` hands out (contiguous or gathered). A free function like
/// [`fused2_fixed`] rather than a method — the method-shaped
/// monomorphization of this loop came out scalarized at `D = 32` (LLVM's
/// SLP vectorizer won the cost-model coin flip over the loop vectorizer),
/// an order-of-magnitude regression on the GRU candidate matvec. The
/// free-function shape compiles to the register-resident vector loop shared
/// by the two- and three-bank variants.
#[inline(never)]
fn rows1_fixed<'a, const D: usize>(
    l: &LinW,
    row_of: impl Fn(usize) -> &'a [f32],
    rows: usize,
    out: &mut [f32],
) {
    for r in 0..rows {
        let mut acc = [0.0f32; D];
        accum1::<D>(row_of(r), &l.w, &mut acc);
        write_f32::<D>(&l.b, &acc, &mut out[r * D..(r + 1) * D]);
    }
}

#[inline(never)]
fn fused2_fixed<const D: usize>(
    la: &LinW,
    lb: &LinW,
    input: &[f32],
    rows: usize,
    oa: &mut [f32],
    ob: &mut [f32],
) {
    let din = la.in_dim;
    for r in 0..rows {
        let row = &input[r * din..(r + 1) * din];
        let (mut aa, mut ab) = ([0.0f32; D], [0.0f32; D]);
        accum2::<D>(row, &la.w, &lb.w, &mut aa, &mut ab);
        write_f32::<D>(&la.b, &aa, &mut oa[r * D..(r + 1) * D]);
        write_f32::<D>(&lb.b, &ab, &mut ob[r * D..(r + 1) * D]);
    }
}

/// One GRU update of the `m` packed hidden rows `h` of a level, computed in
/// the exact operation order of the tape's `GruCell::forward` (separate
/// x-side and h-side sums, then elementwise combines) so the kernel stays
/// bit-exact. `g` is the five gate arenas, as long as `h` each.
fn gru_step(
    gru: &GruW,
    input: &[f32],
    h: &mut [f32],
    m: usize,
    g: [&mut [f32]; 5],
    wide: &mut Vec<f32>,
) {
    let [xr, hr, xz, hz, xn] = g;
    // The three x-side gate sums share `input`; the two h-side sums share
    // the packed hidden rows. Fused multi-accumulator passes compute them
    // with one walk over each shared operand.
    apply_fused3(&gru.xr, &gru.xz, &gru.xn, input, m, xr, xz, xn, wide);
    apply_fused2(&gru.hr, &gru.hz, h, m, hr, hz, wide);
    // r = σ(x W_xr + h W_hr), z = σ(x W_xz + h W_hz) → xz, r ⊙ h → hr: one
    // sweep, which `nn::math` lets the compiler run a vector wide.
    let len = h.len();
    let (xr, hr, xz) = (&mut xr[..len], &mut hr[..len], &mut xz[..len]);
    let (hz, xn) = (&hz[..len], &xn[..len]);
    for i in 0..len {
        let r = math::sigmoid(xr[i] + hr[i]);
        xz[i] = math::sigmoid(xz[i] + hz[i]);
        hr[i] = r * h[i];
    }
    // n = tanh(x W_xn + (r ⊙ h) W_hn), with `xr` free to take the h side;
    // h' = (1 - z) ⊙ n + z ⊙ h goes straight into the arena.
    gru.hn.apply(hr, m, xr, wide);
    for i in 0..len {
        let n = math::tanh(xn[i] + xr[i]);
        h[i] = (1.0 - xz[i]) * n + xz[i] * h[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paired x-side pass against `Tensor::matmul`, bit for bit, on odd
    /// and even row counts. Input column 1 is an exact zero in even rows
    /// only and column 3 in odd rows only, under weight rows that hold an
    /// `INFINITY`: the row with the zero must skip it (`0 · inf` is NaN if
    /// its zero-skip is dropped or tied to its partner's) while the other
    /// row of the pair must not. Column 5 is zero in every row, under a
    /// whole weight row of `INFINITY`.
    #[test]
    fn paired_x_side_pass_equals_matmul_and_keeps_each_rows_zero_skip() {
        const DIN: usize = 7;
        for d in [8usize, 64] {
            let layer = |salt: usize| {
                let value = |i: usize| ((i * 37 + salt * 11) % 23) as f32 * 0.173 - 1.9;
                let mut w: Vec<f32> = (0..DIN * d).map(value).collect();
                w[d + salt] = f32::INFINITY;
                w[3 * d + salt + 1] = f32::INFINITY;
                w[5 * d..6 * d].fill(f32::INFINITY);
                LinW {
                    w,
                    b: Vec::new(),
                    in_dim: DIN,
                    out_dim: d,
                }
            };
            let layers = [layer(0), layer(1), layer(2)];
            for rows in [1usize, 2, 3, 5] {
                let value = |i: usize| ((i * 29) % 17) as f32 * 0.31 + 0.07;
                let mut input: Vec<f32> = (0..rows * DIN).map(value).collect();
                for r in 0..rows {
                    input[r * DIN + 1 + 2 * (r % 2)] = 0.0;
                    input[r * DIN + 5] = 0.0;
                }
                let [la, lb, lc] = &layers;
                let (mut oa, mut ob, mut oc) = (
                    vec![0.0; rows * d],
                    vec![0.0; rows * d],
                    vec![0.0; rows * d],
                );
                apply_fused3(
                    la,
                    lb,
                    lc,
                    &input,
                    rows,
                    &mut oa,
                    &mut ob,
                    &mut oc,
                    &mut Vec::new(),
                );
                let x = Tensor::from_vec(rows, DIN, input);
                for (layer, got) in layers.iter().zip([&oa, &ob, &oc]) {
                    let want = x.matmul(&Tensor::from_vec(DIN, d, layer.w.clone()));
                    assert!(want.as_slice().contains(&f32::INFINITY));
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
                    assert_eq!(bits(want.as_slice()), bits(got), "d = {d}, {rows} rows");
                }
            }
        }
    }
}
