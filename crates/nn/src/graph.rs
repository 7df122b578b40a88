//! A dynamic reverse-mode automatic-differentiation tape.
//!
//! Each forward pass of a model builds a fresh [`Graph`]; every operation
//! records its inputs so [`Graph::backward`] can propagate gradients in
//! reverse topological order and accumulate them into the [`ParamStore`].
//! A parameter is recorded once per tape ([`Graph::param`] hands the same
//! [`Var`] back on reuse), so its uses sum on the tape and reach the store
//! as one gradient.
//!
//! The recorded ops:
//!
//! - leaves: [`Graph::input`], [`Graph::variable`], [`Graph::param`];
//! - dense: [`Graph::matmul`], [`Graph::add`], [`Graph::add_row`],
//!   [`Graph::sub`], [`Graph::mul`], [`Graph::scale`],
//!   [`Graph::add_scalar`], [`Graph::concat_cols`];
//! - activations: [`Graph::sigmoid`], [`Graph::tanh`], [`Graph::relu`];
//! - reductions and losses: [`Graph::sum_all`], [`Graph::mean_all`],
//!   [`Graph::l1_loss`], [`Graph::mse_loss`];
//! - message passing over circuit DAGs:
//!   - [`Graph::gather_from`] — read rows out of *several* variables at
//!     once. A level-by-level model keeps each node's state in the small
//!     variable that computed it and reads predecessors with this op, so
//!     no full `[nodes, d]` state is ever rebuilt; the backward adds each
//!     gradient row straight into the row it was read from.
//!   - [`Graph::gather_rows`] — the single-source form.
//!   - [`Graph::scatter_add_rows`] — sum messages onto their target nodes.
//! - the two fused ops, whose forward is the CSR inference kernel's row
//!   code ([`crate::dense`]) and whose backward is hand-written
//!   (`fused.rs`): the GRU update ([`crate::GruCell::forward`], paper
//!   Eq. 6, whose input may end in constant columns) and
//!   [`Graph::attention`], DeepGate's additive attention over each node's
//!   predecessor set (Eq. 5). Each is one tape entry that reads its
//!   parameters in place from the [`ParamStore`] and adds their gradients
//!   straight into it.
//!
//! The tape marks the entries a gradient reaches: parameters, the fused
//! ops (they own parameters), [`Graph::variable`] inputs, and whatever reads
//! one of these. An [`Graph::input`] is a constant, and so is every other
//! entry that reads only constants; [`Graph::backward`] forms no gradient
//! for them.

use crate::fused::{AttentionOp, GruOp, Scratch};
use crate::tensor::add_transposed_products;
use crate::{math, GruCell, Linear, ParamId, ParamStore, Tensor};

/// Handle to a value on the autodiff tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    Param(ParamId),
    Matmul(Var, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    ConcatCols(Var, Var),
    GatherRows(Var, Vec<usize>),
    GatherFrom(Vec<(Var, usize)>),
    ScatterAddRows(Var, Vec<u32>),
    Gru(Box<GruOp>),
    Attention(Box<AttentionOp>),
    #[cfg(test)]
    MulCol(Var, Var),
    #[cfg(test)]
    SegmentSoftmax(Var, Vec<u32>),
    SumAll(Var),
    MeanAll(Var),
    L1Loss(Var, Tensor),
    MseLoss(Var, Tensor),
}

#[derive(Debug)]
struct TapeNode {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    /// Whether a gradient is formed for this entry: it is a parameter, a
    /// [`Graph::variable`], a fused op (which owns parameters), or reads
    /// one of these. A constant's is never computed.
    needs_grad: bool,
}

/// A reverse-mode autodiff tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<TapeNode>,
    /// The variable each parameter was recorded as, indexed by `ParamId`.
    params: Vec<Option<Var>>,
    /// The fused ops' forward temporaries, reused from visit to visit.
    scratch: Vec<f32>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of recorded tape entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of `f32` elements held by the recorded forward values
    /// and by what the fused ops saved for their backward — the tape's
    /// memory footprint as a count (a backward pass allocates at most as
    /// many again for gradients), so tests can bound how a model's tape
    /// grows with circuit depth without reading a clock or the RSS.
    pub fn value_elements(&self) -> usize {
        let saved = |op: &Op| match op {
            Op::Gru(gru) => gru.saved.len(),
            Op::Attention(att) => att.alpha.len(),
            _ => 0,
        };
        let node_elements = |node: &TapeNode| node.value.len() + saved(&node.op);
        self.nodes.iter().map(node_elements).sum()
    }

    /// The forward value of a variable.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// The gradient of a leaf after [`Graph::backward`], if it received
    /// one: a [`Graph::variable`] that the loss depends on. A constant — an
    /// [`Graph::input`], or an entry other than a fused op that reads only
    /// constants — never does: its gradient is not computed. An op entry's
    /// gradient is released once the backward has passed it on to the
    /// entry's inputs (its buffer holds later gradients of the same pass),
    /// and a parameter's lands in the [`ParamStore`].
    pub fn grad(&self, var: Var) -> Option<&Tensor> {
        self.nodes[var.0].grad.as_ref()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs = |var: &Var| self.nodes[var.0].needs_grad;
        let needs_grad = match &op {
            Op::Leaf => false,
            Op::Param(_) => true,
            Op::Matmul(a, b)
            | Op::Add(a, b)
            | Op::AddRow(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::ConcatCols(a, b) => needs(a) || needs(b),
            #[cfg(test)]
            Op::MulCol(a, b) => needs(a) || needs(b),
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::GatherRows(a, _)
            | Op::ScatterAddRows(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::L1Loss(a, _)
            | Op::MseLoss(a, _) => needs(a),
            #[cfg(test)]
            Op::SegmentSoftmax(a, _) => needs(a),
            Op::GatherFrom(picks) => picks.iter().any(|(var, _)| needs(var)),
            // The fused ops read their weights from the store, not through
            // `Op::Param` entries: each owns parameters, whatever it reads.
            Op::Gru(_) | Op::Attention(_) => true,
        };
        self.nodes.push(TapeNode {
            value,
            grad: None,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant input: no gradient is computed for it or for
    /// anything that reads only constants. An input whose gradient is
    /// wanted is a [`Graph::variable`].
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records an input whose gradient [`Graph::backward`] computes and
    /// keeps, for [`Graph::grad`] to read back — the gradient of the loss
    /// with respect to the input itself (a saliency map, or a
    /// finite-difference check of an op).
    pub fn variable(&mut self, value: Tensor) -> Var {
        let var = self.push(value, Op::Leaf);
        self.nodes[var.0].needs_grad = true;
        var
    }

    /// Records a trainable parameter; its gradient is accumulated into the
    /// store on [`Graph::backward`]. A parameter is recorded once per tape:
    /// asking for it again returns the same [`Var`], so the gradients of all
    /// its uses sum on that one tape entry and reach the store once.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if self.params.len() <= id.0 {
            self.params.resize(id.0 + 1, None);
        }
        if let Some(var) = self.params[id.0] {
            return var;
        }
        let var = self.push(store.value(id).clone(), Op::Param(id));
        self.params[id.0] = Some(var);
        var
    }

    /// Matrix product `a @ b`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::Matmul(a, b))
    }

    /// Element-wise sum of two equally-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Adds a `[1, d]` row vector to every row of a `[n, d]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `[1, d]` with matching `d`.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let m = self.value(a);
        let r = self.value(row);
        assert_eq!(r.rows(), 1, "add_row expects a [1, d] row vector");
        assert_eq!(m.cols(), r.cols(), "add_row column mismatch");
        let mut out = m.clone();
        if !r.is_empty() {
            for out_row in out.as_mut_slice().chunks_exact_mut(r.cols()) {
                for (o, &b) in out_row.iter_mut().zip(r.as_slice()) {
                    *o += b;
                }
            }
        }
        self.push(out, Op::AddRow(a, row))
    }

    /// Element-wise difference `a - b`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Element-wise product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Broadcasts a `[k, 1]` column over the columns of a `[k, d]` matrix and
    /// multiplies element-wise — the attention oracle's message weighting.
    #[cfg(test)]
    pub(crate) fn mul_col(&mut self, col: Var, mat: Var) -> Var {
        let c = self.value(col);
        let m = self.value(mat);
        assert_eq!(c.cols(), 1, "mul_col expects a [k, 1] column");
        assert_eq!(c.rows(), m.rows(), "mul_col row mismatch");
        let mut out = m.clone();
        for (i, &w) in c.as_slice().iter().enumerate() {
            for o in out.row_mut(i) {
                *o *= w;
            }
        }
        self.push(out, Op::MulCol(col, mat))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&mut self, a: Var, factor: f32) -> Var {
        let value = self.value(a).map(|v| v * factor);
        self.push(value, Op::Scale(a, factor))
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&mut self, a: Var, constant: f32) -> Var {
        let value = self.value(a).map(|v| v + constant);
        self.push(value, Op::AddScalar(a))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(math::sigmoid);
        self.push(value, Op::Sigmoid(a))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(math::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Concatenates two matrices with the same number of rows along the
    /// column axis.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let tb = self.value(b);
        assert_eq!(ta.rows(), tb.rows(), "concat_cols row mismatch");
        let mut out = Tensor::zeros(ta.rows(), ta.cols() + tb.cols());
        for i in 0..ta.rows() {
            let (left, right) = out.row_mut(i).split_at_mut(ta.cols());
            left.copy_from_slice(ta.row(i));
            right.copy_from_slice(tb.row(i));
        }
        self.push(out, Op::ConcatCols(a, b))
    }

    /// Selects rows of `a` by index: row `i` of the result is row
    /// `indices[i]` of `a`. Indices may repeat.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let t = self.value(a);
        let mut out = Tensor::zeros(indices.len(), t.cols());
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < t.rows(), "gather index {idx} out of range");
            out.row_mut(i).copy_from_slice(t.row(idx));
        }
        self.push(out, Op::GatherRows(a, indices.to_vec()))
    }

    /// Selects rows out of several variables at once: row `i` of the result
    /// is row `picks[i].1` of variable `picks[i].0`. Picks may repeat, and a
    /// variable may be picked from any number of times or not at all. The
    /// backward adds every gradient row into the row it was read from, so a
    /// read costs its own rows and nothing proportional to its sources'
    /// sizes. An empty pick list gives a `[0, 0]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range or the sources' column counts differ.
    pub fn gather_from(&mut self, picks: &[(Var, usize)]) -> Var {
        let cols = picks.first().map_or(0, |&(var, _)| self.value(var).cols());
        let mut out = Tensor::zeros(picks.len(), cols);
        for (i, &(var, row)) in picks.iter().enumerate() {
            let t = self.value(var);
            assert_eq!(t.cols(), cols, "gather_from column mismatch");
            assert!(row < t.rows(), "gather row {row} out of range");
            out.row_mut(i).copy_from_slice(t.row(row));
        }
        self.push(out, Op::GatherFrom(picks.to_vec()))
    }

    /// Scatters rows of `a` into a `[num_rows, d]` matrix, summing rows that
    /// share a target index: `out[indices[i]] += a[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= num_rows` or the index count differs from
    /// the number of rows of `a`.
    pub fn scatter_add_rows(&mut self, a: Var, indices: &[u32], num_rows: usize) -> Var {
        let t = self.value(a);
        assert_eq!(t.rows(), indices.len(), "scatter index count mismatch");
        let mut out = Tensor::zeros(num_rows, t.cols());
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                (idx as usize) < num_rows,
                "scatter index {idx} out of range"
            );
            add_assign(out.row_mut(idx as usize), t.row(i));
        }
        self.push(out, Op::ScatterAddRows(a, indices.to_vec()))
    }

    /// Softmax over segments: rows of the `[k, 1]` score column that share a
    /// segment id are normalised together — the attention oracle's
    /// normalisation.
    #[cfg(test)]
    pub(crate) fn segment_softmax(&mut self, scores: Var, segments: &[u32]) -> Var {
        let s = self.value(scores);
        assert_eq!(s.cols(), 1, "segment_softmax expects a [k, 1] column");
        assert_eq!(s.rows(), segments.len(), "segment count mismatch");
        let value = segment_softmax_forward(s, segments);
        self.push(value, Op::SegmentSoftmax(scores, segments.to_vec()))
    }

    /// Records one GRU update of `hidden`'s rows over the input rows `[x |
    /// fixed]` (see [`GruCell::forward`], its public entry).
    pub(crate) fn gru(
        &mut self,
        store: &ParamStore,
        cell: &GruCell,
        x: Var,
        fixed: Option<Var>,
        h: Var,
    ) -> Var {
        if let Some(fixed) = fixed {
            assert!(
                !self.nodes[fixed.0].needs_grad,
                "a GRU's fixed input must be a constant"
            );
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let fixed_value = fixed.map(|var| self.value(var));
        let (value, saved) = GruOp::forward(
            store,
            cell,
            self.value(x),
            fixed_value,
            self.value(h),
            &mut scratch,
        );
        self.scratch = scratch;
        let op = GruOp {
            cell: cell.clone(),
            x,
            fixed,
            h,
            saved,
        };
        self.push(value, Op::Gru(Box::new(op)))
    }

    /// DeepGate's additive attention (paper Eq. 5) as one tape entry: edge
    /// `e` carries row `e` of `sources` (`[E, d]`) to row `seg[e]` of the
    /// `[m, d]` result; its score is `key(source) + query(target)`, plus
    /// `edge_attr(attr row e)` when `edge_attr` is given, where the target's
    /// state is row `seg[e]` of `targets` (`[m, d]`). Scores are normalised
    /// over each target's edges and the message is the weighted sum of its
    /// source rows. Segments need not be sorted. The forward is
    /// [`crate::dense::attention`] — the CSR kernel's aggregation — and the
    /// op saves only the softmax weights.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree or a segment id is `>= m`.
    #[allow(clippy::too_many_arguments)]
    pub fn attention(
        &mut self,
        store: &ParamStore,
        query: &Linear,
        key: &Linear,
        edge_attr: Option<(&Linear, Var)>,
        sources: Var,
        targets: Var,
        seg: &[u32],
    ) -> Var {
        let mut scratch = std::mem::take(&mut self.scratch);
        let attr = edge_attr.map(|(layer, var)| (layer, self.value(var)));
        let (value, alpha) = AttentionOp::forward(
            store,
            query,
            key,
            attr,
            self.value(sources),
            self.value(targets),
            seg,
            &mut scratch,
        );
        self.scratch = scratch;
        let op = AttentionOp {
            query: query.clone(),
            key: key.clone(),
            edge_attr: edge_attr.map(|(layer, var)| (layer.clone(), var)),
            sources,
            targets,
            seg: seg.to_vec(),
            alpha,
        };
        self.push(value, Op::Attention(Box::new(op)))
    }

    /// Sum of all elements, as a `[1, 1]` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::SumAll(a))
    }

    /// Mean of all elements, as a `[1, 1]` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(value, Op::MeanAll(a))
    }

    /// Mean absolute error between `pred` and a constant `target`, as a
    /// `[1, 1]` tensor. This is the L1 training loss of the paper.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn l1_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let p = self.value(pred);
        assert_eq!(p.shape(), target.shape(), "l1_loss shape mismatch");
        let value = Tensor::from_vec(1, 1, vec![p.sub(target).map(f32::abs).mean()]);
        self.push(value, Op::L1Loss(pred, target.clone()))
    }

    /// Mean squared error between `pred` and a constant `target`, as a
    /// `[1, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let p = self.value(pred);
        assert_eq!(p.shape(), target.shape(), "mse_loss shape mismatch");
        let diff = p.sub(target);
        let value = Tensor::from_vec(1, 1, vec![diff.mul(&diff).mean()]);
        self.push(value, Op::MseLoss(pred, target.clone()))
    }

    /// Runs reverse-mode differentiation from `loss` (which must be a
    /// `[1, 1]` tensor) and accumulates parameter gradients into `store`.
    /// Constants get no gradient, and an op entry's gradient is released
    /// once passed on (see [`Graph::grad`]).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar-shaped tensor.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.value(loss).shape(),
            [1, 1],
            "backward expects a scalar loss"
        );
        self.nodes[loss.0].grad = Some(Tensor::ones(1, 1));
        // A parameter's transpose is built for the first op that needs it
        // and reused by the rest of the pass, as are the fused ops' buffers.
        let mut scratch = Scratch::new(store);
        for i in (0..self.nodes.len()).rev() {
            // Every input of an entry was recorded before it, so the tape
            // splits into the inputs, whose gradients are written, and the
            // entry itself, whose gradient, value and op are read in place.
            let (inputs, rest) = self.nodes.split_at_mut(i);
            let node = &rest[0];
            let Some(grad) = &node.grad else { continue };
            match &node.op {
                Op::Leaf => {}
                Op::Param(id) => store.accumulate_grad(*id, grad),
                Op::Matmul(a, b) => {
                    if needs(inputs, a) {
                        let rhs = &inputs[b.0];
                        let da = match rhs.op {
                            Op::Param(id) => grad.matmul(scratch.transpose(store, id)),
                            _ => grad.matmul(&rhs.value.transpose()),
                        };
                        accumulate(inputs, &mut scratch, *a, da);
                    }
                    if needs(inputs, b) {
                        // aᵀ grad, with `a`'s rows read in place.
                        let shape = inputs[b.0].value.shape();
                        let mut db = Tensor::zeros(shape[0], shape[1]);
                        let lhs = inputs[a.0].value.as_slice();
                        let terms = [(lhs, grad.as_slice())];
                        add_transposed_products(db.as_mut_slice(), shape[1], &terms);
                        accumulate(inputs, &mut scratch, *b, db);
                    }
                }
                Op::Add(a, b) => {
                    accumulate_ref(inputs, &mut scratch, *a, grad);
                    accumulate_ref(inputs, &mut scratch, *b, grad);
                }
                Op::AddRow(a, row) => {
                    accumulate_ref(inputs, &mut scratch, *a, grad);
                    if needs(inputs, row) {
                        let mut row_grad = Tensor::zeros(1, grad.cols());
                        for r in 0..grad.rows() {
                            add_assign(row_grad.as_mut_slice(), grad.row(r));
                        }
                        accumulate(inputs, &mut scratch, *row, row_grad);
                    }
                }
                Op::Sub(a, b) => {
                    accumulate_ref(inputs, &mut scratch, *a, grad);
                    if needs(inputs, b) {
                        accumulate(inputs, &mut scratch, *b, grad.map(|v| -v));
                    }
                }
                Op::Mul(a, b) => {
                    if needs(inputs, a) {
                        let da = grad.mul(&inputs[b.0].value);
                        accumulate(inputs, &mut scratch, *a, da);
                    }
                    if needs(inputs, b) {
                        let db = grad.mul(&inputs[a.0].value);
                        accumulate(inputs, &mut scratch, *b, db);
                    }
                }
                #[cfg(test)]
                Op::MulCol(col, mat) => {
                    let c = &inputs[col.0].value;
                    let m = &inputs[mat.0].value;
                    let mut dc = Tensor::zeros(c.rows(), 1);
                    let mut dm = Tensor::zeros(m.rows(), m.cols());
                    for r in 0..m.rows() {
                        let w = c.as_slice()[r];
                        let mut acc = 0.0;
                        for ((d, &gv), &mv) in
                            dm.row_mut(r).iter_mut().zip(grad.row(r)).zip(m.row(r))
                        {
                            acc += gv * mv;
                            *d = gv * w;
                        }
                        dc.as_mut_slice()[r] = acc;
                    }
                    accumulate(inputs, &mut scratch, *col, dc);
                    accumulate(inputs, &mut scratch, *mat, dm);
                }
                Op::Scale(a, factor) => {
                    accumulate(inputs, &mut scratch, *a, grad.map(|v| v * factor))
                }
                Op::AddScalar(a) => accumulate_ref(inputs, &mut scratch, *a, grad),
                Op::Sigmoid(a) => {
                    let da = grad.zip(&node.value, |g, s| g * s * (1.0 - s));
                    accumulate(inputs, &mut scratch, *a, da);
                }
                Op::Tanh(a) => {
                    let da = grad.zip(&node.value, |g, t| g * (1.0 - t * t));
                    accumulate(inputs, &mut scratch, *a, da);
                }
                Op::Relu(a) => {
                    let x = &inputs[a.0].value;
                    let da = grad.zip(x, |g, v| if v > 0.0 { g } else { 0.0 });
                    accumulate(inputs, &mut scratch, *a, da);
                }
                Op::ConcatCols(a, b) => {
                    let ca = inputs[a.0].value.cols();
                    for (var, cols) in [(a, 0..ca), (b, ca..grad.cols())] {
                        if needs(inputs, var) {
                            let mut part = Tensor::zeros(grad.rows(), cols.len());
                            for r in 0..grad.rows() {
                                part.row_mut(r).copy_from_slice(&grad.row(r)[cols.clone()]);
                            }
                            accumulate(inputs, &mut scratch, *var, part);
                        }
                    }
                }
                Op::GatherRows(a, indices) => {
                    let src_rows = inputs[a.0].value.rows();
                    let mut da = Tensor::zeros(src_rows, grad.cols());
                    for (r, &idx) in indices.iter().enumerate() {
                        add_assign(da.row_mut(idx), grad.row(r));
                    }
                    accumulate(inputs, &mut scratch, *a, da);
                }
                Op::GatherFrom(picks) => {
                    for (r, &(var, row)) in picks.iter().enumerate() {
                        let source = &mut inputs[var.0];
                        if !source.needs_grad {
                            continue;
                        }
                        let target = source.grad.get_or_insert_with(|| {
                            scratch.zeros(source.value.rows(), source.value.cols())
                        });
                        add_assign(target.row_mut(row), grad.row(r));
                    }
                }
                Op::ScatterAddRows(a, indices) => {
                    let mut da = Tensor::zeros(indices.len(), grad.cols());
                    for (r, &idx) in indices.iter().enumerate() {
                        da.row_mut(r).copy_from_slice(grad.row(idx as usize));
                    }
                    accumulate(inputs, &mut scratch, *a, da);
                }
                Op::Gru(op) => {
                    let (x, h) = (&inputs[op.x.0].value, &inputs[op.h.0].value);
                    let fixed = op.fixed.map(|var| &inputs[var.0].value);
                    let want = [needs(inputs, &op.x), needs(inputs, &op.h)];
                    let (dx, dh) = op.backward(grad, x, fixed, h, want, store, &mut scratch);
                    for (var, delta) in [(op.x, dx), (op.h, dh)] {
                        if let Some(delta) = delta {
                            accumulate(inputs, &mut scratch, var, delta);
                        }
                    }
                }
                Op::Attention(op) => {
                    let sources = &inputs[op.sources.0].value;
                    let targets = &inputs[op.targets.0].value;
                    let attr_var = op.edge_attr.as_ref().map(|&(_, var)| var);
                    let attr = attr_var.map(|var| &inputs[var.0].value);
                    let want = [
                        needs(inputs, &op.sources),
                        needs(inputs, &op.targets),
                        attr_var.is_some_and(|var| needs(inputs, &var)),
                    ];
                    let deltas =
                        op.backward(grad, sources, targets, attr, want, store, &mut scratch);
                    for (var, delta) in [Some(op.sources), Some(op.targets), attr_var]
                        .into_iter()
                        .zip(deltas)
                    {
                        if let (Some(var), Some(delta)) = (var, delta) {
                            accumulate(inputs, &mut scratch, var, delta);
                        }
                    }
                }
                #[cfg(test)]
                Op::SegmentSoftmax(scores, segments) => {
                    let da = segment_softmax_backward(&node.value, grad, segments);
                    accumulate(inputs, &mut scratch, *scores, da);
                }
                Op::SumAll(a) => {
                    let g = grad.get(0, 0);
                    let shape = inputs[a.0].value.shape();
                    accumulate(
                        inputs,
                        &mut scratch,
                        *a,
                        Tensor::full(shape[0], shape[1], g),
                    );
                }
                Op::MeanAll(a) => {
                    let shape = inputs[a.0].value.shape();
                    let n = (shape[0] * shape[1]) as f32;
                    let g = grad.get(0, 0) / n;
                    accumulate(
                        inputs,
                        &mut scratch,
                        *a,
                        Tensor::full(shape[0], shape[1], g),
                    );
                }
                Op::L1Loss(pred, target) => {
                    let p = &inputs[pred.0].value;
                    let n = p.len() as f32;
                    let g = grad.get(0, 0) / n;
                    let dp = p.zip(target, |pv, tv| {
                        if pv > tv {
                            g
                        } else if pv < tv {
                            -g
                        } else {
                            0.0
                        }
                    });
                    accumulate(inputs, &mut scratch, *pred, dp);
                }
                Op::MseLoss(pred, target) => {
                    let p = &inputs[pred.0].value;
                    let n = p.len() as f32;
                    let g = grad.get(0, 0) * 2.0 / n;
                    let dp = p.zip(target, |pv, tv| g * (pv - tv));
                    accumulate(inputs, &mut scratch, *pred, dp);
                }
            }
            // Propagated: an entry's gradient is read by nothing after this
            // point, only a leaf's by `Graph::grad`.
            if !matches!(rest[0].op, Op::Leaf) {
                if let Some(grad) = rest[0].grad.take() {
                    scratch.recycle(grad);
                }
            }
        }
    }
}

/// Whether `var` takes a gradient (see [`TapeNode::needs_grad`]).
fn needs(nodes: &[TapeNode], var: &Var) -> bool {
    nodes[var.0].needs_grad
}

/// Adds an owned gradient contribution to `var` (moved in on first touch),
/// unless `var` is a constant; a contribution not moved in goes back to the
/// pass's pool.
fn accumulate(nodes: &mut [TapeNode], scratch: &mut Scratch, var: Var, delta: Tensor) {
    let node = &mut nodes[var.0];
    match &mut node.grad {
        _ if !node.needs_grad => scratch.recycle(delta),
        Some(existing) => {
            existing.axpy(1.0, &delta);
            scratch.recycle(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Adds a borrowed gradient contribution to `var` (copied on first touch),
/// unless `var` is a constant.
fn accumulate_ref(nodes: &mut [TapeNode], scratch: &mut Scratch, var: Var, delta: &Tensor) {
    let node = &mut nodes[var.0];
    match &mut node.grad {
        _ if !node.needs_grad => {}
        Some(existing) => existing.axpy(1.0, delta),
        slot @ None => {
            let mut copy = scratch.zeros(delta.rows(), delta.cols());
            copy.as_mut_slice().copy_from_slice(delta.as_slice());
            *slot = Some(copy);
        }
    }
}

/// `dst[j] += src[j]` over two equally long rows.
fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
fn segment_softmax_forward(scores: &Tensor, segments: &[u32]) -> Tensor {
    let segments: Vec<usize> = segments.iter().map(|&s| s as usize).collect();
    let k = scores.rows();
    let num_segments = segments.iter().copied().max().map_or(0, |m| m + 1);
    let mut max_per_seg = vec![f32::NEG_INFINITY; num_segments];
    for i in 0..k {
        max_per_seg[segments[i]] = max_per_seg[segments[i]].max(scores.get(i, 0));
    }
    let mut sum_per_seg = vec![0.0f32; num_segments];
    let mut exps = vec![0.0f32; k];
    for i in 0..k {
        let e = math::exp(scores.get(i, 0) - max_per_seg[segments[i]]);
        exps[i] = e;
        sum_per_seg[segments[i]] += e;
    }
    let mut out = Tensor::zeros(k, 1);
    for i in 0..k {
        out.set(i, 0, exps[i] / sum_per_seg[segments[i]]);
    }
    out
}

#[cfg(test)]
fn segment_softmax_backward(y: &Tensor, grad: &Tensor, segments: &[u32]) -> Tensor {
    let segments: Vec<usize> = segments.iter().map(|&s| s as usize).collect();
    let k = y.rows();
    let num_segments = segments.iter().copied().max().map_or(0, |m| m + 1);
    // dot[s] = sum_j grad_j * y_j within segment s
    let mut dot = vec![0.0f32; num_segments];
    for i in 0..k {
        dot[segments[i]] += grad.get(i, 0) * y.get(i, 0);
    }
    let mut out = Tensor::zeros(k, 1);
    for i in 0..k {
        let v = y.get(i, 0) * (grad.get(i, 0) - dot[segments[i]]);
        out.set(i, 0, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d loss / d param[0][0] via central differences.
    fn finite_difference(
        store: &mut ParamStore,
        id: ParamId,
        row: usize,
        col: usize,
        mut forward: impl FnMut(&ParamStore) -> f32,
    ) -> f32 {
        let eps = 1e-3;
        let original = store.value(id).get(row, col);
        store.value_mut(id).set(row, col, original + eps);
        let plus = forward(store);
        store.value_mut(id).set(row, col, original - eps);
        let minus = forward(store);
        store.value_mut(id).set(row, col, original);
        (plus - minus) / (2.0 * eps)
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[0.5, -0.2], &[0.3, 0.8]]));
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5], &[0.3, 0.7]]);
        let target = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]);

        let run = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let wv = g.param(store, w);
            let y = g.matmul(xv, wv);
            let loss = g.mse_loss(y, &target);
            g.value(loss).get(0, 0)
        };

        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.param(&store, w);
        let y = g.matmul(xv, wv);
        let loss = g.mse_loss(y, &target);
        g.backward(loss, &mut store);

        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let numeric = finite_difference(&mut store, w, r, c, run);
            let analytic = store.grad(w).get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "({r},{c}): numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn elementwise_and_activation_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[0.3, -0.6, 0.9]]));
        let target = Tensor::from_rows(&[&[0.2, 0.4, 0.1]]);

        let run = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let wv = g.param(store, w);
            let s = g.sigmoid(wv);
            let t = g.tanh(s);
            let r = g.relu(t);
            let sc = g.scale(r, -1.5);
            let sh = g.add_scalar(sc, 0.1);
            let loss = g.l1_loss(sh, &target);
            g.value(loss).get(0, 0)
        };

        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let s = g.sigmoid(wv);
        let t = g.tanh(s);
        let r = g.relu(t);
        let sc = g.scale(r, -1.5);
        let sh = g.add_scalar(sc, 0.1);
        let loss = g.l1_loss(sh, &target);
        g.backward(loss, &mut store);

        for c in 0..3 {
            let numeric = finite_difference(&mut store, w, 0, c, run);
            let analytic = store.grad(w).get(0, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "col {c}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn gather_scatter_gradients() {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
        );
        let indices = vec![0usize, 2, 2, 1];
        let targets = vec![0u32, 1, 1, 0];
        let target = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);

        let run = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let wv = g.param(store, w);
            let gathered = g.gather_rows(wv, &indices);
            let scattered = g.scatter_add_rows(gathered, &targets, 2);
            let loss = g.mse_loss(scattered, &target);
            g.value(loss).get(0, 0)
        };

        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let gathered = g.gather_rows(wv, &indices);
        let scattered = g.scatter_add_rows(gathered, &targets, 2);
        let loss = g.mse_loss(scattered, &target);
        g.backward(loss, &mut store);

        for (r, c) in [(0, 0), (1, 1), (2, 0), (2, 1)] {
            let numeric = finite_difference(&mut store, w, r, c, run);
            let analytic = store.grad(w).get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "({r},{c}): numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn gather_from_gradient_matches_finite_difference() {
        let mut store = ParamStore::new();
        let a = store.add(
            "a",
            Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
        );
        let b = store.add("b", Tensor::from_rows(&[&[-1.0, 0.5], &[0.25, -2.0]]));
        let unread = store.add("unread", Tensor::from_rows(&[&[7.0, 8.0]]));
        // Repeated picks, picks interleaved over two sources, a row of `a`
        // (row 1) and a whole source (`unread`) that nothing reads.
        let picks = |av: Var, bv: Var| vec![(av, 0), (bv, 1), (av, 0), (av, 2), (bv, 1), (bv, 0)];
        let target = Tensor::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[2.0, 2.0],
            &[0.5, 0.5],
            &[-1.0, 1.0],
            &[0.0, 0.0],
        ]);

        let build = |g: &mut Graph, store: &ParamStore| -> (Var, Var) {
            let av = g.param(store, a);
            let bv = g.param(store, b);
            let unread_v = g.param(store, unread);
            let gathered = g.gather_from(&picks(av, bv));
            (g.mse_loss(gathered, &target), unread_v)
        };
        let run = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let (loss, _) = build(&mut g, store);
            g.value(loss).get(0, 0)
        };

        let mut g = Graph::new();
        let (loss, unread_v) = build(&mut g, &store);
        g.backward(loss, &mut store);
        assert!(
            g.grad(unread_v).is_none(),
            "an unread source gets no gradient"
        );
        assert_eq!(store.grad(unread).as_slice(), &[0.0, 0.0]);
        assert_eq!(
            store.grad(a).row(1),
            &[0.0, 0.0],
            "an unread row stays zero"
        );

        for (id, rows) in [(a, 3), (b, 2)] {
            for (r, c) in (0..rows).flat_map(|r| [(r, 0), (r, 1)]) {
                let numeric = finite_difference(&mut store, id, r, c, run);
                let analytic = store.grad(id).get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{} ({r},{c}): numeric {numeric} analytic {analytic}",
                    store.name(id)
                );
            }
        }
    }

    #[test]
    fn a_parameter_is_recorded_once_per_tape() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[0.5, -0.2], &[0.3, 0.8]]));
        let x1 = Tensor::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5]]);
        let x2 = Tensor::from_rows(&[&[0.3, 0.7]]);

        // The gradient of each use alone, on its own tape.
        let mut single = Vec::new();
        for x in [&x1, &x2] {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let wv = g.param(&store, w);
            let y = g.matmul(xv, wv);
            let loss = g.sum_all(y);
            g.backward(loss, &mut store);
            single.push(store.grad(w).clone());
            store.zero_grad();
        }

        let mut g = Graph::new();
        let first = g.param(&store, w);
        let recorded = g.len();
        let second = g.param(&store, w);
        assert_eq!(first, second);
        assert_eq!(g.len(), recorded, "the second request records nothing");
        let x1v = g.input(x1);
        let x2v = g.input(x2);
        let y1 = g.matmul(x1v, first);
        let y2 = g.matmul(x2v, second);
        let s1 = g.sum_all(y1);
        let s2 = g.sum_all(y2);
        let loss = g.add(s1, s2);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(w), &single[0].add(&single[1]));
    }

    #[test]
    fn value_elements_counts_every_recorded_value() {
        let mut g = Graph::new();
        assert_eq!(g.value_elements(), 0);
        let x = g.input(Tensor::zeros(3, 4));
        let y = g.relu(x);
        g.sum_all(y);
        assert_eq!(g.value_elements(), 12 + 12 + 1);
    }

    #[test]
    fn segment_softmax_forward_normalises_per_segment() {
        let scores = Tensor::column(&[1.0, 2.0, 3.0, 0.5, 0.5]);
        let segments = vec![0u32, 0, 1, 1, 1];
        let y = segment_softmax_forward(&scores, &segments);
        let seg0: f32 = y.get(0, 0) + y.get(1, 0);
        let seg1: f32 = y.get(2, 0) + y.get(3, 0) + y.get(4, 0);
        assert!((seg0 - 1.0).abs() < 1e-6);
        assert!((seg1 - 1.0).abs() < 1e-6);
        assert!(y.get(1, 0) > y.get(0, 0));
    }

    #[test]
    fn segment_softmax_gradient_matches_finite_difference() {
        let mut store = ParamStore::new();
        let w = store.add("scores", Tensor::column(&[0.2, -0.4, 0.7, 1.1]));
        let segments = vec![0u32, 0, 1, 1];
        let weights = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[1.5, 0.5], &[0.2, 0.9]]);
        let target = Tensor::from_rows(&[&[0.3, 0.3], &[0.4, 0.4]]);

        let run = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let sv = g.param(store, w);
            let alpha = g.segment_softmax(sv, &segments);
            let wv = g.input(weights.clone());
            let weighted = g.mul_col(alpha, wv);
            let pooled = g.scatter_add_rows(weighted, &segments, 2);
            let loss = g.mse_loss(pooled, &target);
            g.value(loss).get(0, 0)
        };

        let mut g = Graph::new();
        let sv = g.param(&store, w);
        let alpha = g.segment_softmax(sv, &segments);
        let wv = g.input(weights.clone());
        let weighted = g.mul_col(alpha, wv);
        let pooled = g.scatter_add_rows(weighted, &segments, 2);
        let loss = g.mse_loss(pooled, &target);
        g.backward(loss, &mut store);

        for r in 0..4 {
            let numeric = finite_difference(&mut store, w, r, 0, run);
            let analytic = store.grad(w).get(r, 0);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "row {r}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn concat_add_row_sub_mul_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]));
        let b = store.add("b", Tensor::from_rows(&[&[0.5], &[0.6]]));
        let bias = store.add("bias", Tensor::from_rows(&[&[0.05, -0.05, 0.1]]));
        let target = Tensor::from_rows(&[&[0.0, 1.0, 0.5], &[1.0, 0.0, 0.5]]);

        let run = |store: &ParamStore| -> f32 {
            let mut g = Graph::new();
            let av = g.param(store, a);
            let bv = g.param(store, b);
            let biasv = g.param(store, bias);
            let cat = g.concat_cols(av, bv);
            let shifted = g.add_row(cat, biasv);
            let doubled = g.add(shifted, shifted);
            let diff = g.sub(doubled, shifted);
            let squared = g.mul(diff, diff);
            let loss = g.l1_loss(squared, &target);
            g.value(loss).get(0, 0)
        };

        let mut g = Graph::new();
        let av = g.param(&store, a);
        let bv = g.param(&store, b);
        let biasv = g.param(&store, bias);
        let cat = g.concat_cols(av, bv);
        let shifted = g.add_row(cat, biasv);
        let doubled = g.add(shifted, shifted);
        let diff = g.sub(doubled, shifted);
        let squared = g.mul(diff, diff);
        let loss = g.l1_loss(squared, &target);
        g.backward(loss, &mut store);

        for (id, r, c) in [(a, 0, 0), (a, 1, 1), (b, 0, 0), (b, 1, 0), (bias, 0, 2)] {
            let numeric = finite_difference(&mut store, id, r, c, run);
            let analytic = store.grad(id).get(r, c);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "{} ({r},{c}): numeric {numeric} analytic {analytic}",
                store.name(id)
            );
        }
    }

    #[test]
    fn sum_and_mean_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let s = g.sum_all(wv);
        g.backward(s, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[1.0, 1.0, 1.0, 1.0]);

        store.zero_grad();
        let mut g = Graph::new();
        let wv = g.param(&store, w);
        let m = g.mean_all(wv);
        g.backward(m, &mut store);
        assert_eq!(store.grad(w).as_slice(), &[0.25, 0.25, 0.25, 0.25]);
    }

    /// A constant input and everything that reads only constants get no
    /// gradient; a differentiable input keeps its own, and the constant's
    /// side of a product with it is never formed.
    #[test]
    fn grad_of_a_constant_input_is_not_computed() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let doubled = g.scale(x, 2.0);
        let y = g.variable(Tensor::from_rows(&[&[3.0, -1.0]]));
        let product = g.mul(doubled, y);
        let s = g.sum_all(product);
        g.backward(s, &mut store);
        assert!(g.grad(x).is_none());
        assert!(g.grad(doubled).is_none());
        assert_eq!(g.grad(y).unwrap().as_slice(), &[2.0, 4.0]);
        assert!(store.is_empty());
        assert_eq!(g.len(), 5);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar_loss() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x, &mut store);
    }
}
