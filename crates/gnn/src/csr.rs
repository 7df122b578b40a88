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
//! * **Two threads** (kernel-specific). A row of a level reads only other
//!   levels, so a level's rows are independent. A large plan
//!   ([`Split`]) starts one helper thread per prediction, and cuts each
//!   wide level in half: the caller runs the lower rows, the helper the
//!   upper ones, both through the one level executor and against the
//!   hidden states behind a read lock; the caller then writes both halves
//!   back. A half the helper has not claimed by the time the caller is done
//!   with its own is run by the caller (`handoff.rs`), so a busy or absent
//!   second core costs a hand-off, never a wait.
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
use crate::handoff::Handoff;
use crate::{Aggregator, AggregatorKind, CircuitGraph, DagRecGnn, GnnError, GnnMetrics};
use deepgate_aig::recon::positional_encoding;
use deepgate_nn::dense;
use deepgate_nn::{math, Activation, GruCell, Mlp, ParamStore, Tensor};
use std::ops::Range;
use std::sync::{Mutex, OnceLock, RwLock};
use std::thread;
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

/// Plans of at least this many nodes cut their wide levels between two
/// threads: one helper spawn and join (~35 µs on a 2-vCPU x86-64 guest)
/// against ≥ 50 ms of kernel work at the default d = 64, T = 10 (~25 µs a
/// node).
const SPLIT_MIN_NODES: usize = 2048;

/// Levels of at least this many rows are cut in half. A hand-off round trip
/// to a spinning helper costs 0.5–1.3 µs on the same guest, against ~1.4 µs
/// of work a row at d = 64, so even a half of two rows gains; on the Table
/// III designs a threshold of 4 read a few percent faster than 8 or 16.
const SPLIT_MIN_ROWS: usize = 4;

/// Which levels a prediction cuts in half between the calling thread and
/// its helper. [`Split::DEFAULT`] everywhere but the tests, which lower it
/// so the small parity shapes take the two-thread path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    /// Smallest plan, in nodes, that cuts its wide levels.
    pub(crate) min_nodes: usize,
    /// Smallest level, in rows, that is cut.
    pub(crate) min_rows: usize,
}

impl Split {
    /// The thresholds every prediction runs with.
    pub(crate) const DEFAULT: Split = Split {
        min_nodes: SPLIT_MIN_NODES,
        min_rows: SPLIT_MIN_ROWS,
    };

    /// Where `lvl` of `plan` is cut: the caller runs rows `..cut`, the
    /// helper rows `cut..` — none, when the level stays whole.
    fn cut(self, plan: &InferencePlan, lvl: &CsrLevel) -> usize {
        let m = lvl.end - lvl.start;
        if plan.num_nodes >= self.min_nodes && m >= self.min_rows.max(2) {
            m / 2
        } else {
            m
        }
    }
}

/// One level pass of the recurrence, as either thread runs it.
#[derive(Debug, Clone, Copy)]
struct Pass<'a> {
    lvl: &'a CsrLevel,
    /// Rows `..cut` are the caller's, rows `cut..` the helper's
    /// ([`Split::cut`]).
    cut: usize,
    /// The level's [`segment_ids`] (empty unless the aggregator is
    /// attention).
    seg: &'a [u32],
    /// The level's attention attribute bias per edge (forward levels only).
    attr_bias: Option<&'a [f32]>,
    agg: &'a Aggregator,
    gru: &'a GruCell,
}

impl Pass<'_> {
    fn rows(&self) -> usize {
        self.lvl.end - self.lvl.start
    }

    /// What a thread's arenas must hold to run the level rows `rows`: the
    /// aggregator, the row count and the edge count.
    fn share(&self, rows: Range<usize>) -> (AggregatorKind, usize, usize) {
        let edges = self.lvl.offsets[rows.end] - self.lvl.offsets[rows.start];
        (self.agg.kind(), rows.len(), edges as usize)
    }
}

/// The helper thread of a prediction that cuts levels: its hand-off, and
/// the rows of the last upper half it ran.
#[derive(Debug)]
struct Helper<'a> {
    handoff: Handoff<Pass<'a>>,
    out: Mutex<Vec<f32>>,
}

/// Why the kernel's locks are never poisoned: a thread that panics ends the
/// prediction — the helper's panic reaches the caller through the hand-off
/// before the caller touches a lock the helper held.
const LOCKS: &str = "a panicking kernel thread ends the prediction";

/// Whether this process may run two threads at once. On one core a helper
/// would only take turns with the caller, so none is started.
fn two_cores() -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    *cores >= 2
}

/// Per-thread scratch arenas, reused across levels and iterations so the
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
    /// Per-edge projection arenas (DeepSet's second holds per-target sums).
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
    /// Sizes the arenas once per predict for the largest of the `shares`
    /// (aggregator, rows, edges) this thread will run, each arena only for
    /// the aggregators that read it, so the per-level hot path only slices
    /// (and zeroes the arenas that are accumulated into) instead of
    /// re-zeroing every buffer on every pass. `gin_width` is the GRU input
    /// width when the gate input is fixed, 0 when the message is the input.
    fn reserve(
        &mut self,
        shares: impl Iterator<Item = (AggregatorKind, usize, usize)>,
        d: usize,
        gin_width: usize,
    ) {
        fn grow(v: &mut Vec<f32>, len: usize) {
            if v.len() < len {
                v.resize(len, 0.0);
            }
        }
        // score, tq / sum, e1, e2, msg / g, gin
        let mut need = [0usize; 6];
        for (kind, m, e) in shares {
            let attention = kind == AggregatorKind::Attention;
            let e2 = match kind {
                AggregatorKind::GatedSum => e * d,
                AggregatorKind::DeepSet => m * d,
                _ => 0,
            };
            let lens = if attention {
                [e, m, 0, 0, m * d, m * gin_width]
            } else {
                [0, 0, e * d, e2, m * d, m * gin_width]
            };
            for (n, len) in need.iter_mut().zip(lens) {
                *n = (*n).max(len);
            }
        }
        let [score, rows, e1, e2, msg, gin] = need;
        grow(&mut self.score, score);
        grow(&mut self.tq, rows);
        grow(&mut self.sum, rows);
        grow(&mut self.e1, e1);
        grow(&mut self.e2, e2);
        grow(&mut self.msg, msg);
        grow(&mut self.gin, gin);
        for g in &mut self.g {
            grow(g, msg);
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
    /// A plan of 2 048 nodes or more runs each level of 4 rows or more in
    /// two halves, one on the calling thread and one on a helper thread
    /// started for this call; the probabilities are bit for bit those of one
    /// thread.
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
        let h = self.recurrence(store, plan, num_iterations, Split::DEFAULT, &mut s, metrics)?;

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
    /// Same contract as [`DagRecGnn::predict_planned`], threads included.
    pub fn embed_planned(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        num_iterations: usize,
    ) -> Result<Tensor, GnnError> {
        let mut s = Scratch::default();
        let h = self.recurrence(store, plan, num_iterations, Split::DEFAULT, &mut s, None)?;
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
    ///
    /// `split` is [`Split::DEFAULT`] outside the tests. When it cuts any
    /// level (and the process has two cores), one
    /// helper thread serves every cut level of all `T` iterations; it sees
    /// `h` through a read lock while the caller writes each level back
    /// under the write lock.
    fn recurrence(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        num_iterations: usize,
        split: Split,
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

        // Initial embedding of the packed one-hot features.
        let mut h = vec![0.0f32; n * d];
        let embed = self.embed.dense(store);
        embed.apply(&plan.features, n, &mut h, &mut s.wide);

        // Attention attribute biases are constant across iterations:
        // project each forward level's attribute rows once. So are the
        // attention walk's segment ids, and where each level is cut.
        let attr_bias = attr_bias(&self.forward_agg, store, plan, s);
        let cut = move |lvl: &CsrLevel| split.cut(plan, lvl);
        let forward_seg = segment_ids(&plan.forward, &self.forward_agg, cut);
        let reverse = self.reverse_agg.as_ref().zip(self.reverse_gru.as_ref());
        let reverse_seg =
            reverse.map_or_else(Vec::new, |(agg, _)| segment_ids(&plan.reverse, agg, cut));
        let forward = (&self.forward_agg, &self.forward_gru);
        let forward = level_passes(&plan.forward, &forward_seg, &attr_bias, forward, cut);
        let mut passes: Vec<Pass> = forward.collect();
        if let Some(reverse) = reverse {
            passes.extend(level_passes(&plan.reverse, &reverse_seg, &[], reverse, cut));
        }

        // The caller runs whole levels and both halves of a cut one (the
        // upper when it reclaims it), and collects the level in `out`; the
        // helper runs upper halves only.
        let gin_width = if config.fix_gate_input {
            config.gru_input_dim()
        } else {
            0
        };
        let upper = |p: &Pass| p.share(p.cut..p.rows());
        let halves = |p: &Pass| [p.share(0..p.cut), upper(p)];
        s.reserve(passes.iter().flat_map(halves), d, gin_width);
        let mut out = vec![0.0f32; passes.iter().map(Pass::rows).max().unwrap_or(0) * d];
        let helper = (passes.iter().any(|p| p.cut < p.rows()) && two_cores()).then(|| Helper {
            handoff: Handoff::new(),
            out: Mutex::new(Vec::new()),
        });

        // The helper's side: arenas for the upper halves, then the upper
        // half of every level it claims, into its own rows.
        let h = RwLock::new(h);
        let serve = |helper: &Helper| {
            let mut hs = Scratch::default();
            hs.reserve(passes.iter().map(upper), d, gin_width);
            let most = passes.iter().map(|p| p.rows() - p.cut).max().unwrap_or(0);
            *helper.out.lock().expect(LOCKS) = vec![0.0; most * d];
            helper.handoff.serve(|pass| {
                let (arena, mut out) = (h.read().expect(LOCKS), helper.out.lock().expect(LOCKS));
                let rows = pass.cut..pass.rows();
                self.level_pass(store, plan, &pass, rows, &arena, &mut out, &mut hs, false);
            });
        };
        thread::scope(|scope| {
            // Without a helper thread the caller runs every half itself.
            let helper = helper.as_ref().filter(|&helper| {
                let builder = thread::Builder::new().name("deepgate-gnn-level".into());
                let spawned = builder.spawn_scoped(scope, move || serve(helper));
                spawned
                    .map(|handle| helper.handoff.attach(handle.thread().clone()))
                    .is_ok()
            });
            let _closer = helper.map(|helper| helper.handoff.closer());
            for _ in 0..num_iterations {
                for pass in &passes {
                    self.walk_level(store, plan, pass, &h, helper, &mut out, s, metrics);
                }
            }
        });
        Ok(h.into_inner().expect(LOCKS))
    }

    /// One level pass: the caller's rows, then the upper half of a cut
    /// level — the helper's, or the caller's when the helper has not
    /// claimed it (or there is none) — then the rows written back into `h`.
    /// With `metrics`, `gnn_level_agg_ns` records the caller's aggregation
    /// and `gnn_level_gru_ns` the rest of the level's wall time.
    #[allow(clippy::too_many_arguments)]
    fn walk_level<'a>(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        pass: &Pass<'a>,
        h: &RwLock<Vec<f32>>,
        helper: Option<&Helper<'a>>,
        out: &mut [f32],
        s: &mut Scratch,
        metrics: Option<&GnnMetrics>,
    ) {
        let start = metrics.map(|_| Instant::now());
        let d = self.config.hidden_dim;
        let (cut, m) = (pass.cut, pass.rows());
        let helper = helper.filter(|_| cut < m);
        if let Some(helper) = helper {
            helper.handoff.post(*pass);
        }
        let (agg_end, helped) = {
            let arena = h.read().expect(LOCKS);
            let timed = start.is_some();
            let lower = &mut out[..cut * d];
            let agg_end = self.level_pass(store, plan, pass, 0..cut, &arena, lower, s, timed);
            let helped = helper.is_some_and(|helper| helper.handoff.reclaim_or_wait().is_none());
            if cut < m && !helped {
                let upper = &mut out[cut * d..m * d];
                self.level_pass(store, plan, pass, cut..m, &arena, upper, s, false);
            }
            (agg_end, helped)
        };
        let mut arena = h.write().expect(LOCKS);
        let (lower, upper) = arena[pass.lvl.start * d..pass.lvl.end * d].split_at_mut(cut * d);
        lower.copy_from_slice(&out[..cut * d]);
        match helper.filter(|_| helped) {
            Some(helper) => {
                let rows = helper.out.lock().expect(LOCKS);
                upper.copy_from_slice(&rows[..upper.len()]);
            }
            None => upper.copy_from_slice(&out[cut * d..m * d]),
        }
        drop(arena);
        if let (Some(mt), Some(t0), Some(t1)) = (metrics, start, agg_end) {
            mt.level_agg_ns.record_duration(t1 - t0);
            mt.level_gru_ns.record_duration(t1.elapsed());
            mt.levels_total.inc();
            mt.csr_level_width.record(m as u64);
            if cut < m {
                mt.levels_split_total.inc();
                if !helped {
                    mt.level_halves_reclaimed_total.inc();
                }
            }
        }
    }

    /// The one level executor: aggregation and GRU update of the level rows
    /// `rows` of `pass` — the whole level, or one half of a cut one —
    /// reading `h` and writing the updated rows to `out`. A row reads only
    /// other levels, and its arithmetic is the same whichever range it runs
    /// in, so the halves run side by side and match one whole run bit for
    /// bit. Returns when aggregation ended, if `timed`.
    #[allow(clippy::too_many_arguments)]
    fn level_pass(
        &self,
        store: &ParamStore,
        plan: &InferencePlan,
        pass: &Pass,
        rows: Range<usize>,
        h: &[f32],
        out: &mut [f32],
        s: &mut Scratch,
        timed: bool,
    ) -> Option<Instant> {
        let d = self.config.hidden_dim;
        let lvl = pass.lvl;
        let m = rows.len();
        let offsets = &lvl.offsets[rows.start..=rows.end];
        let edges = offsets[0] as usize..offsets[m] as usize;
        let (edge_src, e) = (&lvl.edge_src[edges.clone()], edges.len());
        let targets = lvl.start + rows.start..lvl.start + rows.end;

        // Arenas are pre-sized by `Scratch::reserve`; only `msg` (and the
        // DeepSet segment sum) accumulate, so only they need zeroing here —
        // every other arena is fully overwritten before it is read.
        let msg = &mut s.msg[..m * d];
        msg.fill(0.0);
        match pass.agg.params() {
            AggregatorParams::ConvSum { project } => {
                let e1 = &mut s.e1[..e * d];
                let project = project.dense(store);
                project.apply_gathered(h, edge_src, e1, &mut s.wide);
                segment_sum(e1, offsets, d, msg);
            }
            AggregatorParams::Attention { query, key, .. } => {
                dense::attention(
                    query.dense(store),
                    key.dense(store),
                    |i| &h[edge_src[i] as usize * d..][..d],
                    &h[targets.start * d..targets.end * d],
                    &pass.seg[edges.clone()],
                    pass.attr_bias.map(|bias| &bias[edges.clone()]),
                    &mut s.score[..e],
                    &mut s.tq[..m],
                    &mut s.sum[..m],
                    msg,
                    &mut s.wide,
                );
            }
            AggregatorParams::DeepSet { phi, rho } => {
                let e1 = &mut s.e1[..e * d];
                for (r, &src) in edge_src.iter().enumerate() {
                    let row = &h[src as usize * d..(src as usize + 1) * d];
                    let out = &mut e1[r * d..(r + 1) * d];
                    mlp_apply_row(phi, store, row, out, &mut s.ha, &mut s.hb, &mut s.wide);
                }
                let e2 = &mut s.e2[..m * d];
                e2.fill(0.0);
                segment_sum(e1, offsets, d, e2);
                rho.dense(store).apply(e2, m, msg, &mut s.wide);
            }
            AggregatorParams::GatedSum { gate, value } => {
                let e1 = &mut s.e1[..e * d];
                let gate = gate.dense(store);
                gate.apply_gathered(h, edge_src, e1, &mut s.wide);
                let e2 = &mut s.e2[..e * d];
                let value = value.dense(store);
                value.apply_gathered(h, edge_src, e2, &mut s.wide);
                for (g, &v) in e1.iter_mut().zip(e2.iter()) {
                    *g = math::sigmoid(*g) * v;
                }
                segment_sum(e1, offsets, d, msg);
            }
        }

        let agg_end = timed.then(Instant::now);
        // GRU input: the message, with the gate one-hot appended when the
        // gate input is fixed (DeepGate's Eq. 6).
        let f = self.config.feature_dim;
        let input: &[f32] = if self.config.fix_gate_input {
            let gi = d + f;
            let gin = &mut s.gin[..m * gi];
            for (i, t) in targets.clone().enumerate() {
                gin[i * gi..i * gi + d].copy_from_slice(&msg[i * d..(i + 1) * d]);
                gin[i * gi + d..(i + 1) * gi].copy_from_slice(&plan.features[t * f..(t + 1) * f]);
            }
            gin
        } else {
            msg
        };
        let out = &mut out[..m * d];
        out.copy_from_slice(&h[targets.start * d..targets.end * d]);
        let g = s.g.each_mut().map(|a| &mut a[..m * d]);
        let gates = pass.gru.gates().map(|l| l.dense(store));
        dense::gru_step::<false>(gates, input, out, m, g, &mut s.wide);
        agg_end
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

/// The passes over `levels`, each with its segment ids and attribute bias
/// (none past the end of `seg` / `bias`) and its cut.
fn level_passes<'a>(
    levels: &'a [CsrLevel],
    seg: &'a [Vec<u32>],
    bias: &'a [Vec<f32>],
    (agg, gru): (&'a Aggregator, &'a GruCell),
    cut: impl Fn(&CsrLevel) -> usize + 'a,
) -> impl Iterator<Item = Pass<'a>> + 'a {
    levels.iter().enumerate().map(move |(li, lvl)| Pass {
        lvl,
        cut: cut(lvl),
        seg: seg.get(li).map_or(&[][..], Vec::as_slice),
        attr_bias: bias.get(li).map(Vec::as_slice),
        agg,
        gru,
    })
}

/// Each level's segment ids ([`CsrLevel::edge_rows`]) when `agg` is the
/// attention walk, which takes them, and none otherwise — counted from the
/// first row of the edge's half of the level ([`Split::cut`]), the range the
/// walk runs over. They are constant across the `T` iterations, so a run
/// derives them once, not per visit.
fn segment_ids(
    levels: &[CsrLevel],
    agg: &Aggregator,
    cut: impl Fn(&CsrLevel) -> usize,
) -> Vec<Vec<u32>> {
    if agg.kind() != AggregatorKind::Attention {
        return Vec::new();
    }
    let rebased = |lvl: &CsrLevel| {
        let cut = cut(lvl) as u32;
        let half = move |row: u32| if row < cut { row } else { row - cut };
        lvl.edge_rows().map(half).collect()
    };
    levels.iter().map(rebased).collect()
}

/// Adds each CSR row's edge rows into its target row, in edge order — the
/// dense form of the tape's `scatter_add_rows`. `edge_rows` starts at edge
/// `offsets[0]`.
fn segment_sum(edge_rows: &[f32], offsets: &[u32], d: usize, out: &mut [f32]) {
    let base = offsets[0] as usize;
    for (i, w) in offsets.windows(2).enumerate() {
        let orow = &mut out[i * d..(i + 1) * d];
        for e in w[0] as usize - base..w[1] as usize - base {
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
    use crate::{DagRecConfig, FeatureEncoding};
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
        fn split_levels_are_bit_exact_with_one_range_on_random_circuits(
            netlist in shapes::random_netlist(30),
            kind in 0usize..4,
            reverse in any::<bool>(),
            skip in any::<bool>(),
        ) {
            let netlist = shapes::expand(&netlist);
            let circuit = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AigGates, None);
            let config = split_config(AggregatorKind::ALL[kind], 8, reverse, skip);
            let outcome = split_matches_one_range(config, &circuit);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        #[test]
        fn plan_matches_the_level_definition_on_random_circuits(
            netlist in shapes::random_netlist(40),
        ) {
            let outcome = plan_matches_the_level_definition(&shapes::expand(&netlist));
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// Cuts every level of two rows or more, with a helper thread on even
    /// the smallest plan.
    const SPLIT_ALL: Split = Split {
        min_nodes: 0,
        min_rows: 2,
    };
    /// Runs every level as one range on the calling thread.
    const SPLIT_NONE: Split = Split {
        min_nodes: usize::MAX,
        min_rows: usize::MAX,
    };

    /// Fails naming the first value at which two runs differ in any bit.
    fn same_bits(what: &str, one: &[f32], two: &[f32]) -> Result<(), String> {
        if one.len() != two.len() {
            return Err(format!("{what}: {} vs {} values", one.len(), two.len()));
        }
        match one
            .iter()
            .zip(two)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            Some(i) => Err(format!(
                "{what} {i}: one range {} vs split {}",
                one[i], two[i]
            )),
            None => Ok(()),
        }
    }

    /// The final hidden-state arena and the probabilities, both in packed
    /// order, of `model` on `plan` under `split`.
    fn run_split(
        model: &DagRecGnn,
        store: &ParamStore,
        plan: &InferencePlan,
        split: Split,
        metrics: Option<&GnnMetrics>,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut s = Scratch::default();
        let t = model.config.num_iterations;
        let h = model
            .recurrence(store, plan, t, split, &mut s, metrics)
            .expect("plan fits");
        let mut probs = vec![0.0f32; plan.num_nodes];
        model.regress_rows(store, plan, &h, &mut probs, &mut s);
        (h, probs)
    }

    /// Final states and probabilities of `circuit` with every level cut
    /// against one range per level, bit for bit; the cut run's telemetry
    /// counts a split for every level pass of two rows or more.
    fn split_matches_one_range(config: DagRecConfig, circuit: &CircuitGraph) -> Result<(), String> {
        let mut store = ParamStore::new();
        let model = DagRecGnn::new(&mut store, config);
        let plan = model.plan(circuit);
        let registry = deepgate_telemetry::Registry::new();
        let metrics = GnnMetrics::registered(&registry);
        let whole = run_split(&model, &store, &plan, SPLIT_NONE, None);
        let halves = run_split(&model, &store, &plan, SPLIT_ALL, Some(&metrics));
        same_bits("hidden value", &whole.0, &halves.0)?;
        same_bits("node", &whole.1, &halves.1)?;

        let snap = registry.snapshot();
        let mut levels = plan.forward.iter().collect::<Vec<_>>();
        if model.config.reverse_layer {
            levels.extend(&plan.reverse);
        }
        let wide = levels.iter().filter(|l| l.end - l.start >= 2).count();
        let (split, reclaimed) = (
            snap.counter("gnn_levels_split_total"),
            snap.counter("gnn_level_halves_reclaimed_total"),
        );
        if split != (model.config.num_iterations * wide) as u64 || reclaimed > split {
            return Err(format!(
                "{split} levels split, {reclaimed} halves reclaimed"
            ));
        }
        Ok(())
    }

    fn split_config(
        kind: AggregatorKind,
        hidden_dim: usize,
        reverse: bool,
        skip: bool,
    ) -> DagRecConfig {
        DagRecConfig {
            hidden_dim,
            num_iterations: 3,
            regressor_hidden: 8,
            aggregator: kind,
            reverse_layer: reverse,
            fix_gate_input: true,
            use_skip_connections: skip,
            ..DagRecConfig::default()
        }
    }

    #[test]
    fn split_levels_are_bit_exact_with_one_range_on_the_shape_suite() {
        let mut shapes = shapes::shape_suite();
        shapes.push(shapes::shape_funnel());
        for netlist in &shapes {
            let netlist = shapes::expand(netlist);
            let circuit = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AigGates, None);
            for kind in AggregatorKind::ALL {
                for (reverse, skip) in [(false, false), (true, false), (false, true), (true, true)]
                {
                    for hidden_dim in [8, 12, 64] {
                        let config = split_config(kind, hidden_dim, reverse, skip);
                        if let Err(e) = split_matches_one_range(config, &circuit) {
                            panic!(
                                "{} kind={kind:?} d={hidden_dim} reverse={reverse} skip={skip}: {e}",
                                circuit.name
                            );
                        }
                    }
                }
            }
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
