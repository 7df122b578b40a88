//! The level schedule, and the CSR level-packed inference kernel that runs
//! it without a tape. DeepGate's propagation order — level by level forward,
//! then reversed, skip edges folded into their target's fan-in — is stated
//! once:
//!
//! * [`InferencePlan`] (**shared**) permutes the nodes into
//!   **level-contiguous order** (reverse-propagation targets first within
//!   each level, so a level is one range of packed rows in either direction)
//!   and stores each direction's adjacency as one **CSR** over all packed
//!   rows — one `offsets` and one flat `edge_src` array — with its levels
//!   kept as row ranges, each read through a borrowed `Level` view. Skip
//!   edges are appended to their target's row, and each is also kept once
//!   as an `(edge, level difference)` pair: the plan holds no attribute
//!   rows, and the model turns a level difference into γ(D) (Eq. 7) with its
//!   own `skip_encoding_frequencies` when it runs.
//!   [`InferencePlan::compile`] is the only place a row's edge order is
//!   decided. The training tape ([`crate::DagRecGnn::forward_hidden`],
//!   [`crate::DagConvGnn`]) compiles a plan per forward pass and records each
//!   level as gathers over packed rows (`state.rs`), aggregator and GRU; only
//!   the attribute rows (built from the same pairs) and gate-input rows it
//!   puts on the tape are its own.
//! * The kernel (**kernel-specific**, the rest of this file:
//!   [`crate::DagRecGnn::predict_planned`] and
//!   [`crate::DagRecGnn::embed_planned`]) reads the model's weights in place
//!   out of the [`ParamStore`] — already flat, row-major and cache-dense, as
//!   the DLGN line keeps its gate arrays — and fuses each level's gather +
//!   GEMM + combine into one dense slice walk over a packed hidden-state
//!   arena, without allocating per level. Its attention attribute bias is
//!   one projection of a zero row on every forward edge, overwritten on the
//!   skip edges with the projection of their γ(D) — the values projecting
//!   the dense rows would give, zero rows included, without building them.
//!   The row code it walks with — the flat layer view, the fixed-width
//!   matvec banks, the GRU update and the attention walk — lives in
//!   [`deepgate_nn::dense`], because the tape's fused GRU and attention ops
//!   run the same functions over the same store; what stays here is the
//!   level walk, the regressor and the aggregators the tape still records
//!   from generic ops.
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
use deepgate_nn::{math, GruCell, Mlp, ParamStore, Tensor};
use std::ops::Range;
use std::sync::{Mutex, OnceLock, RwLock};
use std::thread;
use std::time::Instant;

/// One propagation direction of a plan in CSR form over all packed rows,
/// and the levels that walk it.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// `offsets[r]..offsets[r + 1]` are the edges of packed row `r`
    /// (`num_nodes + 1` entries). A forward row lists the ordinary fan-ins in
    /// netlist order (duplicates kept) with the skip edge, if any, last; a
    /// reverse row lists the fan-outs in ascending consumer order
    /// (duplicates kept). Every per-target sum of either executor runs in
    /// this order — it is the exactness contract.
    offsets: Vec<u32>,
    /// Packed source node index of every edge.
    edge_src: Vec<u32>,
    /// The packed rows each level updates, in walk order.
    levels: Vec<Range<u32>>,
}

impl Csr {
    /// The levels in walk order.
    pub(crate) fn levels(&self) -> impl ExactSizeIterator<Item = Level<'_>> + '_ {
        self.levels.iter().map(|rows| {
            let (start, end) = (rows.start as usize, rows.end as usize);
            Level {
                start,
                end,
                offsets: &self.offsets[start..=end],
                edge_src: &self.edge_src,
            }
        })
    }

    /// Number of edges in the direction.
    pub(crate) fn num_edges(&self) -> usize {
        self.edge_src.len()
    }
}

/// One level of one propagation direction, borrowed from its [`Csr`]: a
/// contiguous range of packed target rows and the edges entering them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level<'a> {
    /// First packed node index updated by this level.
    pub(crate) start: usize,
    /// One past the last packed node index updated by this level.
    pub(crate) end: usize,
    /// `offsets[i]..offsets[i + 1]` are the edges of packed target
    /// `start + i`, numbered across the whole direction.
    pub(crate) offsets: &'a [u32],
    /// Packed source node index of every edge of the direction.
    pub(crate) edge_src: &'a [u32],
}

impl<'a> Level<'a> {
    /// Number of target rows.
    pub(crate) fn rows(&self) -> usize {
        self.end - self.start
    }

    /// The level's edges, numbered across the direction.
    pub(crate) fn edges(&self) -> Range<usize> {
        self.offsets[0] as usize..self.offsets[self.rows()] as usize
    }

    /// Packed source node index of each of the level's edges.
    pub(crate) fn sources(&self) -> &'a [u32] {
        &self.edge_src[self.edges()]
    }

    /// The row of every edge's target within the level, in edge order — the
    /// segment ids the attention walk and the tape's scatter-add take.
    /// Derived once per forward pass or kernel run rather than stored: a
    /// cached plan would carry them for every edge.
    pub(crate) fn edge_rows(&self) -> impl Iterator<Item = u32> + 'a {
        let rows = self.offsets.windows(2).enumerate();
        rows.flat_map(|(row, w)| std::iter::repeat_n(row as u32, (w[1] - w[0]) as usize))
    }
}

/// The level schedule of a circuit, walked by the training tape and by
/// the kernel ([`DagRecGnn::predict_planned`]) alike.
///
/// Nodes are permuted into level-contiguous order so every level's update is
/// one dense range of packed rows; the permutation is undone when results
/// are read out, so callers see original node order. A plan holds a fixed
/// number of heap buffers whatever the circuit's depth, and no edge
/// attributes: skip edges are kept as level differences, which the model
/// encodes as γ(D) when it runs.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    num_nodes: usize,
    feature_dim: usize,
    attr_dim: usize,
    /// Original node index → packed index.
    pub(crate) perm: Vec<u32>,
    /// `[num_nodes, feature_dim]` one-hot features in packed order.
    features: Vec<f32>,
    /// Fan-ins and skip edges; levels 1, 2, … in ascending order, each
    /// spanning its whole level.
    pub(crate) forward: Csr,
    /// Fan-outs; levels in descending level order, each the fan-out-bearing
    /// prefix of its level.
    pub(crate) reverse: Csr,
    /// Every skip edge as `(forward edge, level difference)`, ascending by
    /// edge; empty when the plan has no attributes.
    pub(crate) skips: Vec<(u32, u32)>,
}

/// Stable counting sort of `(row, value)` pairs into CSR form over `n` rows:
/// row `r` holds its values, in the order the pairs came, at
/// `offsets[r]..offsets[r + 1]`. The caller keeps the pair count below
/// `u32::MAX`.
fn group_by_row(
    n: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n + 1];
    for (row, _) in pairs.clone() {
        offsets[row + 1] += 1;
    }
    for row in 0..n {
        offsets[row + 1] += offsets[row];
    }
    let mut next = offsets.clone();
    let mut values = vec![0u32; offsets[n] as usize];
    for (row, value) in pairs {
        values[next[row] as usize] = value;
        next[row] += 1;
    }
    (offsets, values)
}

impl InferencePlan {
    /// Compiles a circuit's levels, edges and skip edges into the schedule,
    /// in O(nodes + edges). `attr_dim` comes from the model configuration
    /// (0 attributes when skip connections are disabled, and then no skip
    /// edges either).
    pub(crate) fn compile(circuit: &CircuitGraph, attr_dim: usize) -> Self {
        const TOO_LARGE: &str = "circuit too large for CSR plan";
        let n = circuit.num_nodes;
        let num_edges = circuit.edges.len() + circuit.skip_edges.len();
        assert!(n.max(num_edges) < u32::MAX as usize, "{TOO_LARGE}");
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
        let (offsets, edge_src) = group_by_row(n, fanins);
        let forward = Csr {
            levels: (1..=circuit.max_level)
                .map(|level| group_start[2 * level]..group_start[2 * level + 2])
                .collect(),
            offsets,
            edge_src,
        };
        // Each skip edge is the last edge of its target's row.
        let mut skips: Vec<(u32, u32)> = skips
            .map(|skip| {
                let edge = forward.offsets[row(skip.target) + 1] - 1;
                let diff = u32::try_from(skip.level_difference).expect(TOO_LARGE);
                (edge, diff)
            })
            .collect();
        skips.sort_unstable();
        // Descending: a node's fan-outs sit at strictly higher levels and
        // have been updated by the time the node is.
        let (offsets, edge_src) = group_by_row(n, edges.map(|&(src, dst)| (row(src), perm[dst])));
        let reverse = Csr {
            levels: (0..circuit.max_level)
                .rev()
                .map(|level| group_start[2 * level]..group_start[2 * level + 1])
                .collect(),
            offsets,
            edge_src,
        };

        InferencePlan {
            num_nodes: n,
            feature_dim: f,
            attr_dim,
            perm,
            features,
            forward,
            reverse,
            skips,
        }
    }

    /// The `[edges, attr_dim]` attribute rows of the forward `edges` as the
    /// tape records them: γ(D) with `frequencies` frequency pairs on each
    /// skip edge, zeros on every other; `None` when the plan has no
    /// attributes.
    pub(crate) fn attr_rows(&self, edges: Range<usize>, frequencies: usize) -> Option<Tensor> {
        if self.attr_dim == 0 {
            return None;
        }
        let a = self.attr_dim;
        let mut rows = vec![0.0f32; edges.len() * a];
        let first = self
            .skips
            .partition_point(|&(e, _)| (e as usize) < edges.start);
        let skips = self.skips[first..].iter();
        for &(edge, diff) in skips.take_while(|&&(e, _)| (e as usize) < edges.end) {
            rows[(edge as usize - edges.start) * a..][..a]
                .copy_from_slice(&positional_encoding(diff as usize, frequencies));
        }
        Some(Tensor::from_vec(edges.len(), a, rows))
    }

    /// The one-hot feature rows of the packed nodes `rows`, for the tape.
    pub(crate) fn feature_rows(&self, rows: Range<usize>) -> Tensor {
        let f = self.feature_dim;
        let data = self.features[rows.start * f..rows.end * f].to_vec();
        Tensor::from_vec(rows.len(), f, data)
    }

    /// Number of forward level batches the plan covers.
    pub fn num_batches(&self) -> usize {
        self.forward.levels.len()
    }

    /// Number of reverse level batches the plan covers.
    pub fn num_reverse_batches(&self) -> usize {
        self.reverse.levels.len()
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
                *v = v.max(0.0);
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
    fn cut(self, plan: &InferencePlan, lvl: Level) -> usize {
        let m = lvl.rows();
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
    lvl: Level<'a>,
    /// Rows `..cut` are the caller's, rows `cut..` the helper's
    /// ([`Split::cut`]).
    cut: usize,
    /// The direction's [`segment_ids`], indexed by edge (empty unless the
    /// aggregator is attention).
    seg: &'a [u32],
    /// The direction's attention attribute bias per edge ([`attr_bias`];
    /// forward levels only).
    attr_bias: Option<&'a [f32]>,
    agg: &'a Aggregator,
    gru: &'a GruCell,
}

impl Pass<'_> {
    fn rows(&self) -> usize {
        self.lvl.rows()
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

        // The attention attribute bias is constant across iterations, so
        // each forward edge's is computed once. So are the attention walk's
        // segment ids, and where each level is cut.
        let frequencies = config.skip_encoding_frequencies;
        let attr_bias = attr_bias(&self.forward_agg, store, plan, frequencies, s);
        let cut = move |lvl: Level| split.cut(plan, lvl);
        let forward_seg = segment_ids(&plan.forward, &self.forward_agg, cut);
        let reverse = self.reverse_agg.as_ref().zip(self.reverse_gru.as_ref());
        let reverse_seg =
            reverse.map_or_else(Vec::new, |(agg, _)| segment_ids(&plan.reverse, agg, cut));
        let forward = (&self.forward_agg, &self.forward_gru);
        let forward_bias = attr_bias.as_deref();
        let forward = level_passes(&plan.forward, &forward_seg, forward_bias, forward, cut);
        let mut passes: Vec<Pass> = forward.collect();
        if let Some(reverse) = reverse {
            passes.extend(level_passes(
                &plan.reverse,
                &reverse_seg,
                None,
                reverse,
                cut,
            ));
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

/// The attention aggregator's attribute bias of every forward edge of
/// `plan`, or `None` when `agg` has no attribute head: the projection of a
/// zero row on every edge, overwritten on each skip edge with the projection
/// of its γ(D) at `frequencies`. Each value is the one projecting the dense
/// `[edges, attr_dim]` rows gives (a zero row projects to `0.0 + b`),
/// without building them, and each distinct level difference is encoded
/// and projected once per call.
fn attr_bias(
    agg: &Aggregator,
    store: &ParamStore,
    plan: &InferencePlan,
    frequencies: usize,
    s: &mut Scratch,
) -> Option<Vec<f32>> {
    let AggregatorParams::Attention {
        edge_attr: Some(proj),
        ..
    } = agg.params()
    else {
        return None;
    };
    let proj = proj.dense(store);
    let mut project = |row: &[f32]| {
        let mut out = [0.0f32];
        proj.apply(row, 1, &mut out, &mut s.wide);
        out[0]
    };
    let mut bias = vec![project(&vec![0.0; plan.attr_dim]); plan.forward.num_edges()];
    // Skip edges share a few level differences: project each one once.
    let mut by_diff: Vec<Option<f32>> = Vec::new();
    for &(edge, diff) in &plan.skips {
        let diff = diff as usize;
        if by_diff.len() <= diff {
            by_diff.resize(diff + 1, None);
        }
        bias[edge as usize] =
            *by_diff[diff].get_or_insert_with(|| project(&positional_encoding(diff, frequencies)));
    }
    Some(bias)
}

/// The passes over the levels of `csr`, each with the direction's segment
/// ids and attribute bias, and its cut.
fn level_passes<'a>(
    csr: &'a Csr,
    seg: &'a [u32],
    attr_bias: Option<&'a [f32]>,
    (agg, gru): (&'a Aggregator, &'a GruCell),
    cut: impl Fn(Level) -> usize + 'a,
) -> impl Iterator<Item = Pass<'a>> + 'a {
    csr.levels().map(move |lvl| Pass {
        lvl,
        cut: cut(lvl),
        seg,
        attr_bias,
        agg,
        gru,
    })
}

/// Every edge's segment id ([`Level::edge_rows`]) when `agg` is the
/// attention walk, which takes them, and none otherwise — counted from the
/// first row of the edge's half of its level ([`Split::cut`]), the range the
/// walk runs over, and indexed by edge like the direction. They are
/// constant across the `T` iterations, so a run derives them once, not per
/// visit.
fn segment_ids(csr: &Csr, agg: &Aggregator, cut: impl Fn(Level) -> usize) -> Vec<u32> {
    if agg.kind() != AggregatorKind::Attention {
        return Vec::new();
    }
    let mut seg = vec![0u32; csr.num_edges()];
    for lvl in csr.levels() {
        let cut = cut(lvl) as u32;
        let half = |row: u32| if row < cut { row } else { row - cut };
        for (id, row) in seg[lvl.edges()].iter_mut().zip(lvl.edge_rows()) {
            *id = half(row);
        }
    }
    seg
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
    /// same order, row by row the same edges in the same order, and every
    /// edge of the direction in one of them. With `skips` a row's skip edge
    /// comes last; returns the `(edge, level difference)` pair each such
    /// row's skip edge must have in the plan, in edge order.
    fn levels_match_batches(
        circuit: &CircuitGraph,
        plan: &InferencePlan,
        csr: &Csr,
        batches: &[LevelBatch],
        skips: bool,
    ) -> Result<Vec<(u32, u32)>, String> {
        let mut inv = vec![usize::MAX; plan.num_nodes];
        for (old, &packed) in plan.perm.iter().enumerate() {
            inv[packed as usize] = old;
        }
        if csr.levels().len() != batches.len() {
            return Err(format!(
                "{} levels, {} batches",
                csr.levels().len(),
                batches.len()
            ));
        }
        let walked: usize = csr.levels().map(|lvl| lvl.edges().len()).sum();
        if csr.offsets.len() != plan.num_nodes + 1 || walked != csr.num_edges() {
            return Err(format!("{}: {walked} of the edges walked", circuit.name));
        }
        let mut pairs = Vec::new();
        for (lvl, batch) in csr.levels().zip(batches) {
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
            for (row, &target) in rows.iter().enumerate() {
                let seg = batch.targets.binary_search(&target).expect("a target");
                let edges = batch.edge_src.iter().zip(&batch.edge_seg);
                let mut want: Vec<usize> = edges
                    .filter(|&(_, &s)| s == seg)
                    .map(|(&src, _)| src)
                    .collect();
                let (a, b) = (lvl.offsets[row] as usize, lvl.offsets[row + 1] as usize);
                if let Some(skip) = circuit.skip_edge_for(target).filter(|_| skips) {
                    want.push(skip.source);
                    let diff = u32::try_from(skip.level_difference).expect("a small circuit");
                    pairs.push((b as u32 - 1, diff));
                }
                let got: Vec<usize> = lvl.edge_src[a..b]
                    .iter()
                    .map(|&src| inv[src as usize])
                    .collect();
                if got != want {
                    return Err(format!("{what}: node {target} reads {got:?}, not {want:?}"));
                }
            }
        }
        pairs.sort_unstable();
        Ok(pairs)
    }

    /// The plan of `netlist`, with and without skip edges, against the
    /// level-by-level definition.
    fn plan_matches_the_level_definition(netlist: &Netlist) -> Result<(), String> {
        let circuit = CircuitGraph::from_netlist(netlist, FeatureEncoding::AigGates, None);
        let forward = build_forward_batches(netlist, &circuit.levels);
        let reverse = build_reverse_batches(netlist, &circuit.levels);
        for attr_dim in [0usize, 16] {
            let plan = InferencePlan::compile(&circuit, attr_dim);
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
            // Forward level l is all of level l, with each skip edge last in
            // its target's row and kept as that edge's pair — the source and
            // level difference `skip_edge_for` gives; a plan without
            // attributes (DAG-ConvGNN's) has neither …
            let skips = attr_dim > 0;
            let pairs = levels_match_batches(&circuit, &plan, &plan.forward, &forward, skips)?;
            if plan.skips != pairs {
                return Err(format!("skip pairs {:?}, not {pairs:?}", plan.skips));
            }
            for (lvl, batch) in plan.forward.levels().zip(&forward) {
                let members = circuit.levels.iter().filter(|&&l| l == batch.level);
                if members.count() != lvl.rows() {
                    return Err(format!("forward level {} is not whole", batch.level));
                }
            }
            // … and a reverse level is its fan-out-bearing prefix, in
            // ascending node order, holding fan-outs only.
            levels_match_batches(&circuit, &plan, &plan.reverse, &reverse, false)?;
            for (lvl, batch) in plan.reverse.levels().zip(&reverse) {
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
        let plan = InferencePlan::compile(&circuit, 0);
        let level_one = plan.forward.levels().next().expect("gates");
        assert_eq!(level_one.offsets, [0, 2, 3], "a twice, then b");
        assert_eq!(level_one.sources()[0], level_one.sources()[1]);
        let last = plan.reverse.levels().last().expect("inputs feed gates");
        assert_eq!((last.rows(), last.sources().len()), (2, 4));
        plan_matches_the_level_definition(&n).unwrap();
    }

    /// A plan's heap buffers and the bytes they hold, by capacity: the
    /// memory a cached plan keeps, counted rather than read off RSS.
    fn plan_heap(plan: &InferencePlan) -> (usize, usize) {
        fn held<T>(v: &Vec<T>) -> (usize, usize) {
            let bytes = v.capacity() * std::mem::size_of::<T>();
            (usize::from(bytes > 0), bytes)
        }
        let csr = |c: &Csr| [held(&c.offsets), held(&c.edge_src), held(&c.levels)];
        let buffers = [held(&plan.perm), held(&plan.features), held(&plan.skips)];
        let buffers = buffers
            .into_iter()
            .chain(csr(&plan.forward))
            .chain(csr(&plan.reverse));
        buffers.fold((0, 0), |(n, b), (dn, db)| (n + dn, b + db))
    }

    /// Plan memory, gated by count: the positional-encoding width adds no
    /// byte — a plan keeps level differences, not γ(D) rows — and depth adds
    /// no buffer — a direction is one CSR, not one per level.
    #[test]
    fn plan_memory_is_independent_of_frequencies_and_depth() {
        let graph = |netlist: &Netlist| {
            CircuitGraph::from_netlist(netlist, FeatureEncoding::AigGates, None)
        };
        let attr_dim = |frequencies: usize| {
            let config = DagRecConfig {
                use_skip_connections: true,
                skip_encoding_frequencies: frequencies,
                ..DagRecConfig::default()
            };
            config.edge_attr_dim()
        };
        let ladder = graph(&shapes::shape_ladder(6));
        assert!(!ladder.skip_edges.is_empty());
        let [eight, sixty_four] = [8, 64]
            .map(|frequencies| plan_heap(&InferencePlan::compile(&ladder, attr_dim(frequencies))));
        assert_eq!(eight, sixty_four, "(buffers, bytes) at L = 8 and L = 64");

        // A 500-level chain against a 5-level ladder without attributes; a
        // 501-level ladder against it with them (both carry skip pairs).
        let shallow = graph(&shapes::shape_ladder(2));
        assert_eq!(shallow.max_level, 5);
        for (deep, dim) in [
            (shapes::shape_chain(499), 0),
            (shapes::shape_ladder(250), 16),
        ] {
            let deep = graph(&deep);
            assert!(deep.max_level >= 500);
            let (deep, shallow) = (
                InferencePlan::compile(&deep, dim),
                InferencePlan::compile(&shallow, dim),
            );
            assert_eq!(
                plan_heap(&deep).0,
                plan_heap(&shallow).0,
                "buffers at 500 and 5 levels, attr_dim {dim}"
            );
        }
    }

    /// The kernel's attribute bias, built from the skip pairs, against
    /// `Dense::apply` over the dense rows the tape records from the same
    /// pairs, bit for bit on every forward edge.
    fn sparse_bias_matches_dense_rows(
        model: &DagRecGnn,
        store: &ParamStore,
        plan: &InferencePlan,
    ) -> Result<Vec<f32>, String> {
        let frequencies = model.config.skip_encoding_frequencies;
        let mut s = Scratch::default();
        let sparse = attr_bias(&model.forward_agg, store, plan, frequencies, &mut s)
            .ok_or("an attribute head")?;
        let AggregatorParams::Attention {
            edge_attr: Some(proj),
            ..
        } = model.forward_agg.params()
        else {
            return Err("an attention aggregator".into());
        };
        let edges = 0..plan.forward.num_edges();
        let rows = plan
            .attr_rows(edges.clone(), frequencies)
            .ok_or("attributes")?;
        let mut dense = vec![0.0f32; edges.len()];
        let wide = &mut s.wide;
        proj.dense(store)
            .apply(rows.as_slice(), edges.len(), &mut dense, wide);
        same_bits("forward edge bias", &dense, &sparse)?;
        Ok(sparse)
    }

    #[test]
    fn attr_bias_from_skip_pairs_equals_the_dense_projection() {
        let config = split_config(AggregatorKind::Attention, 8, true, true);
        let mut shapes = shapes::shape_suite();
        shapes.push(shapes::shape_ladder(40));
        for netlist in &shapes {
            let netlist = shapes::expand(netlist);
            let circuit = CircuitGraph::from_netlist(&netlist, FeatureEncoding::AigGates, None);
            let mut store = ParamStore::new();
            let model = DagRecGnn::new(&mut store, config);
            let plan = model.plan(&circuit);
            let param = |store: &ParamStore, name: &str| {
                let mut ids = store.ids();
                ids.find(|&id| store.name(id) == format!("dagrec.forward.agg.edge_attr.{name}"))
                    .expect("an attribute head")
            };
            let skip = |edge: usize| plan.skips.iter().any(|&(e, _)| e as usize == edge);
            let (bias, weight) = (param(&store, "bias"), param(&store, "weight"));
            sparse_bias_matches_dense_rows(&model, &store, &plan).unwrap();

            // A `-0.0` bias: a zero row projects to `0.0 + -0.0 = +0.0`.
            store.value_mut(bias).as_mut_slice()[0] = -0.0;
            let got = sparse_bias_matches_dense_rows(&model, &store, &plan).unwrap();
            for (edge, b) in got.iter().enumerate().filter(|&(e, _)| !skip(e)) {
                assert_eq!(
                    b.to_bits(),
                    0.0f32.to_bits(),
                    "{} edge {edge}",
                    circuit.name
                );
            }

            // An infinite weight reaches the skip edges only: a zero row's
            // zeros are skipped, never multiplied.
            store.value_mut(weight).as_mut_slice()[1] = f32::INFINITY;
            let got = sparse_bias_matches_dense_rows(&model, &store, &plan).unwrap();
            for (edge, b) in got.iter().enumerate().filter(|&(e, _)| !skip(e)) {
                assert!(b.is_finite(), "{} edge {edge}: {b}", circuit.name);
            }
            assert!(
                plan.skips
                    .iter()
                    .all(|&(e, _)| !got[e as usize].is_finite()),
                "{}: a skip edge's γ(D) has no zero cosine",
                circuit.name
            );
        }
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
        let mut levels = plan.forward.levels().collect::<Vec<_>>();
        if model.config.reverse_layer {
            levels.extend(plan.reverse.levels());
        }
        let wide = levels.iter().filter(|l| l.rows() >= 2).count();
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
        let plan = InferencePlan::compile(&graph, 0);
        let levels = packed_levels(&graph, &plan);
        let covered: usize = plan.forward.levels().map(|l| l.rows()).sum();
        assert_eq!(covered, graph.num_gates());
        // Levels are strictly ascending and edges reference earlier levels
        // only.
        let mut prev_level = 0;
        for lvl in plan.forward.levels() {
            let level = levels[lvl.start];
            assert!(level > prev_level);
            prev_level = level;
            assert!(levels[lvl.start..lvl.end].iter().all(|&l| l == level));
            assert!(lvl
                .sources()
                .iter()
                .all(|&src| levels[src as usize] < level));
            let seg: Vec<u32> = lvl.edge_rows().collect();
            assert_eq!(seg.len(), lvl.sources().len());
            assert!(seg.iter().all(|&row| (row as usize) < lvl.rows()));
            assert!(seg.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn reverse_levels_point_to_successors() {
        let graph = diamond_graph();
        let plan = InferencePlan::compile(&graph, 0);
        let levels = packed_levels(&graph, &plan);
        // Reverse levels are in descending order and sources are at
        // strictly higher levels.
        let mut prev = usize::MAX;
        for lvl in plan.reverse.levels() {
            let level = levels[lvl.start];
            assert!(level < prev);
            prev = level;
            assert!(lvl
                .sources()
                .iter()
                .all(|&src| levels[src as usize] > level));
        }
        // Every node with at least one fan-out appears exactly once.
        let covered: usize = plan.reverse.levels().map(|l| l.rows()).sum();
        assert_eq!(covered, 6); // All but the join have fan-outs.
    }
}
