//! The tape's two fused ops — the GRU update and the segment attention —
//! and their hand-written backwards.
//!
//! A fused op's forward *is* the row code of [`crate::dense`], the same
//! functions the CSR inference kernel runs, reading the parameters in place
//! out of the [`ParamStore`] (they are already row-major `[in, out]`). The
//! GRU's input may end in fixed columns — DeepGate's gate-type one-hot, a
//! constant operand read where it lies on the tape and laid after the
//! message columns only for the forward's row walk.
//!
//! A backward reads the op's inputs off the tape plus the little it saved —
//! `r`, `z` and `n` for the GRU, the softmax weights for attention — and
//! computes only what a parameter's gradient reads:
//!
//! * each weight's gradient goes straight into the store, from the op's
//!   input rows read in place ([`add_transposed_products`]: rows ascending,
//!   the zero-skip on the input, a score layer as one axpy per edge), and
//!   each bias's as a row sum;
//! * an input's gradient goes through each weight's transpose, built once
//!   per backward pass ([`Scratch`]), and only to an input the tape marks
//!   as needing one.
//!
//! What it skips: no activation is transposed, and no gradient is formed
//! for a constant — the GRU's fixed columns, or DeepGate's γ(D) attribute
//! rows. The intermediates (the gate pre-activation gradients, `r ⊙ h`, the
//! softmax sums) live in the pass's [`Scratch`], and the input gradients
//! are made in the buffers of gradients already propagated.

use crate::dense;
use crate::tensor::{add_products, add_row_sums, add_transposed_products};
use crate::{GruCell, Linear, ParamId, ParamStore, Tensor, Var};

/// What one backward pass reuses across the ops it runs: every
/// parameter's transpose, built for the first op that needs it, the
/// buffers of the fused ops' intermediate gradients, and a pool of the
/// gradient buffers of entries already propagated, which the next
/// gradients are made in.
pub(crate) struct Scratch {
    transposes: Vec<Option<Tensor>>,
    buffers: [Vec<f32>; 5],
    pool: Vec<Vec<f32>>,
}

impl Scratch {
    pub(crate) fn new(store: &ParamStore) -> Self {
        Scratch {
            transposes: vec![None; store.len()],
            buffers: Default::default(),
            pool: Vec::new(),
        }
    }

    /// A `[rows, cols]` tensor of zeros, in a pooled buffer when there is
    /// one.
    pub(crate) fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        pooled_zeros(&mut self.pool, rows, cols)
    }

    /// Returns a gradient nobody reads any more to the pool.
    pub(crate) fn recycle(&mut self, t: Tensor) {
        self.pool.push(t.into_vec());
    }

    /// The transpose of a parameter.
    pub(crate) fn transpose(&mut self, store: &ParamStore, id: ParamId) -> &Tensor {
        let rows = store.value(id).rows();
        let [t] = Self::transposes(&mut self.transposes, store, [id], rows);
        t
    }

    /// The transposes of the first `rows` rows of each parameter in `ids`
    /// (`[cols, rows]`).
    fn transposes<'t, const N: usize>(
        transposes: &'t mut [Option<Tensor>],
        store: &ParamStore,
        ids: [ParamId; N],
        rows: usize,
    ) -> [&'t Tensor; N] {
        for id in ids {
            let slot = &mut transposes[id.0];
            if slot.as_ref().is_none_or(|t| t.cols() != rows) {
                let value = store.value(id);
                let top = &value.as_slice()[..rows * value.cols()];
                *slot = Some(Tensor::from_vec(rows, value.cols(), top.to_vec()).transpose());
            }
        }
        ids.map(|id| transposes[id.0].as_ref().expect("built above"))
    }
}

/// A `[rows, cols]` tensor of zeros in the last buffer of `pool`, or a new
/// one.
fn pooled_zeros(pool: &mut Vec<Vec<f32>>, rows: usize, cols: usize) -> Tensor {
    let mut data = pool.pop().unwrap_or_default();
    data.clear();
    data.resize(rows * cols, 0.0);
    Tensor::from_vec(rows, cols, data)
}

/// `buf` as `len` zeros.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// A recorded GRU update `h' = GRU([x | fixed], h)`.
#[derive(Debug)]
pub(crate) struct GruOp {
    pub(crate) cell: GruCell,
    pub(crate) x: Var,
    /// Constant input columns after `x`'s, read but never differentiated.
    pub(crate) fixed: Option<Var>,
    pub(crate) h: Var,
    /// `[r | z | n]`, each `[m, d]`.
    pub(crate) saved: Vec<f32>,
}

impl GruOp {
    /// The updated rows and the `[r | z | n]` gates of `m = h.rows()` rows.
    /// With `fixed`, the GRU's input rows are `[x | fixed]`, laid out in
    /// `scratch` for the forward only.
    pub(crate) fn forward(
        store: &ParamStore,
        cell: &GruCell,
        x: &Tensor,
        fixed: Option<&Tensor>,
        h: &Tensor,
        scratch: &mut Vec<f32>,
    ) -> (Tensor, Vec<f32>) {
        let (m, d) = (h.rows(), h.cols());
        assert_eq!(x.rows(), m, "gru row mismatch");
        let width = x.cols() + fixed.map_or(0, |f| f.cols());
        assert_eq!(width, cell.input_size(), "gru input width");
        assert_eq!(d, cell.hidden_size(), "gru hidden width");
        let mut out = h.clone();
        let mut saved = vec![0.0f32; 3 * m * d];
        scratch.clear();
        if let Some(fixed) = fixed {
            assert_eq!(fixed.rows(), m, "gru fixed-input row mismatch");
            for r in 0..m {
                scratch.extend_from_slice(x.row(r));
                scratch.extend_from_slice(fixed.row(r));
            }
        }
        let concat = scratch.len();
        scratch.resize(concat + 2 * m * d, 0.0);
        let (input, arenas) = scratch.split_at_mut(concat);
        let input = if fixed.is_some() {
            &*input
        } else {
            x.as_slice()
        };
        let (r, rest) = saved.split_at_mut(m * d);
        let (z, n) = rest.split_at_mut(m * d);
        let (rh, hn) = arenas.split_at_mut(m * d);
        dense::gru_step::<true>(
            cell.gates().map(|l| l.dense(store)),
            input,
            out.as_mut_slice(),
            m,
            [r, rh, z, hn, n],
            &mut Vec::new(),
        );
        (out, saved)
    }

    /// `(dx, dh)` from `dout` — each only when `want` asks for it; `dx`
    /// covers `x`'s columns, never `fixed`'s — with every gate weight's and
    /// bias's gradient added into `store`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward(
        &self,
        dout: &Tensor,
        x: &Tensor,
        fixed: Option<&Tensor>,
        h: &Tensor,
        want: [bool; 2],
        store: &mut ParamStore,
        scratch: &mut Scratch,
    ) -> (Option<Tensor>, Option<Tensor>) {
        let (m, d) = (h.rows(), h.cols());
        let len = m * d;
        let (r, rest) = self.saved.split_at(len);
        let (z, n) = rest.split_at(len);
        let (hv, go) = (h.as_slice(), dout.as_slice());
        let Scratch {
            transposes,
            buffers: [dar, daz, dan, drh, rh],
            pool,
        } = scratch;
        let (dar, daz, dan) = (zeroed(dar, len), zeroed(daz, len), zeroed(dan, len));
        let (drh, rh) = (zeroed(drh, len), zeroed(rh, len));
        // Through h' = (1 - z) ⊙ n + z ⊙ h into the pre-activations of z
        // and n.
        for i in 0..len {
            let g = go[i];
            daz[i] = g * (hv[i] - n[i]) * z[i] * (1.0 - z[i]);
            dan[i] = g * (1.0 - z[i]) * (1.0 - n[i] * n[i]);
        }
        let gates = self.cell.gates();
        let [xr, hr, xz, hz, xn, hn] = gates;
        // Through n's h side, (r ⊙ h) W_hn, into r; r ⊙ h, as the forward
        // computed it, is what W_hn saw.
        let [whn] = Scratch::transposes(transposes, store, [hn.weight_id()], d);
        add_products(drh, d, &[(dan, whn.as_slice())]);
        for i in 0..len {
            dar[i] = drh[i] * hv[i] * r[i] * (1.0 - r[i]);
            rh[i] = r[i] * hv[i];
        }
        let dh = want[1].then(|| {
            let mut dh = pooled_zeros(pool, m, d);
            for (i, o) in dh.as_mut_slice().iter_mut().enumerate() {
                *o = go[i] * z[i] + drh[i] * r[i];
            }
            let [whr, whz] =
                Scratch::transposes(transposes, store, [hr.weight_id(), hz.weight_id()], d);
            let terms = [(&dar[..], whr.as_slice()), (&daz[..], whz.as_slice())];
            add_products(dh.as_mut_slice(), d, &terms);
            dh
        });
        let dx = want[0].then(|| {
            let mut dx = pooled_zeros(pool, m, x.cols());
            let ids = [xr, xz, xn].map(Linear::weight_id);
            let [wxr, wxz, wxn] = Scratch::transposes(transposes, store, ids, x.cols());
            let terms = [
                (&dar[..], wxr.as_slice()),
                (&daz[..], wxz.as_slice()),
                (&dan[..], wxn.as_slice()),
            ];
            add_products(dx.as_mut_slice(), x.cols(), &terms);
            dx
        });

        let fixed_part = fixed.map_or((&[][..], 0), |f| (f.as_slice(), f.cols()));
        let x_parts = [(x.as_slice(), x.cols()), fixed_part];
        let h_part = [(hv, d)];
        let rh_part = [(&rh[..], d)];
        for (layer, parts, da) in [
            (xr, &x_parts[..], &dar[..]),
            (xz, &x_parts[..], &daz[..]),
            (xn, &x_parts[..], &dan[..]),
            (hr, &h_part[..], &dar[..]),
            (hz, &h_part[..], &daz[..]),
            (hn, &rh_part[..], &dan[..]),
        ] {
            add_linear_grad(store, layer, parts, da);
        }
        (dx, dh)
    }
}

/// A recorded segment attention (see [`crate::Graph::attention`]).
#[derive(Debug)]
pub(crate) struct AttentionOp {
    pub(crate) query: Linear,
    pub(crate) key: Linear,
    pub(crate) edge_attr: Option<(Linear, Var)>,
    pub(crate) sources: Var,
    pub(crate) targets: Var,
    pub(crate) seg: Vec<u32>,
    /// The softmax weight of every edge.
    pub(crate) alpha: Vec<f32>,
}

impl AttentionOp {
    /// The `[m, d]` messages and the per-edge softmax weights; the
    /// attribute biases and per-target sums are made in `scratch`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward(
        store: &ParamStore,
        query: &Linear,
        key: &Linear,
        edge_attr: Option<(&Linear, &Tensor)>,
        sources: &Tensor,
        targets: &Tensor,
        seg: &[u32],
        scratch: &mut Vec<f32>,
    ) -> (Tensor, Vec<f32>) {
        let (edges, d, m) = (sources.rows(), sources.cols(), targets.rows());
        assert_eq!(seg.len(), edges, "attention segment count mismatch");
        assert_eq!(targets.cols(), d, "attention target width");
        assert_eq!(key.in_features(), d, "attention key width");
        assert!(
            seg.iter().all(|&t| (t as usize) < m),
            "attention segment out of range"
        );
        let mut wide = Vec::new();
        let bias_len = if edge_attr.is_some() { edges } else { 0 };
        let (bias, rest) = zeroed(scratch, bias_len + 2 * m).split_at_mut(bias_len);
        let (tq, sum) = rest.split_at_mut(m);
        let attr_bias = edge_attr.map(|(layer, attr)| {
            assert_eq!(attr.rows(), edges, "attention attribute rows");
            layer
                .dense(store)
                .apply(attr.as_slice(), edges, bias, &mut wide);
            &*bias
        });
        let mut msg = Tensor::zeros(m, d);
        let mut alpha = vec![0.0f32; edges];
        let src = sources.as_slice();
        dense::attention(
            query.dense(store),
            key.dense(store),
            |e| &src[e * d..(e + 1) * d],
            targets.as_slice(),
            seg,
            attr_bias,
            &mut alpha,
            tq,
            sum,
            msg.as_mut_slice(),
            &mut wide,
        );
        (msg, alpha)
    }

    /// `[dsources, dtargets, dattr]` from `dmsg`, each only when `want` asks
    /// for it, with the score layers' gradients added into `store`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn backward(
        &self,
        dmsg: &Tensor,
        sources: &Tensor,
        targets: &Tensor,
        attr: Option<&Tensor>,
        want: [bool; 3],
        store: &mut ParamStore,
        scratch: &mut Scratch,
    ) -> [Option<Tensor>; 3] {
        let (edges, d, m) = (sources.rows(), sources.cols(), targets.rows());
        let (src, dm, alpha) = (sources.as_slice(), dmsg.as_slice(), &self.alpha);
        let Scratch {
            transposes,
            buffers: [ds, seg_dot, dq, ..],
            pool,
        } = scratch;
        let (ds, seg_dot, dq) = (zeroed(ds, edges), zeroed(seg_dot, m), zeroed(dq, m));
        // Through the weighted sum into the sources and the weights, then
        // through the softmax: ds = α (dα - Σ_segment α dα).
        let mut dsrc = want[0].then(|| pooled_zeros(pool, edges, d));
        for (e, &t) in self.seg.iter().enumerate() {
            let drow = &dm[t as usize * d..][..d];
            let srow = &src[e * d..][..d];
            let dalpha = dot(drow, srow);
            if let Some(dsrc) = &mut dsrc {
                for (o, &g) in dsrc.row_mut(e).iter_mut().zip(drow) {
                    *o = alpha[e] * g;
                }
            }
            ds[e] = dalpha;
            seg_dot[t as usize] += dalpha * alpha[e];
        }
        for (e, &t) in self.seg.iter().enumerate() {
            ds[e] = alpha[e] * (ds[e] - seg_dot[t as usize]);
            dq[t as usize] += ds[e];
        }
        // A score is key(source) + query(target) + edge_attr(attr).
        if let Some(dsrc) = &mut dsrc {
            let [wk] = Scratch::transposes(transposes, store, [self.key.weight_id()], d);
            add_products(dsrc.as_mut_slice(), d, &[(ds, wk.as_slice())]);
        }
        let dtgt = want[1].then(|| input_grad(transposes, pool, store, &self.query, dq));
        let edge_attr = self.edge_attr.as_ref().map(|(layer, _)| layer).zip(attr);
        let dattr = edge_attr.and_then(|(layer, attr)| {
            let dattr = want[2].then(|| input_grad(transposes, pool, store, layer, ds));
            add_linear_grad(store, layer, &[(attr.as_slice(), attr.cols())], ds);
            dattr
        });
        add_linear_grad(store, &self.key, &[(src, d)], ds);
        add_linear_grad(store, &self.query, &[(targets.as_slice(), d)], dq);
        [dsrc, dtgt, dattr]
    }
}

/// `dout Wᵀ`, the gradient of `layer`'s input rows.
fn input_grad(
    transposes: &mut [Option<Tensor>],
    pool: &mut Vec<Vec<f32>>,
    store: &ParamStore,
    layer: &Linear,
    dout: &[f32],
) -> Tensor {
    let (k, n) = (layer.in_features(), layer.out_features());
    let [wt] = Scratch::transposes(transposes, store, [layer.weight_id()], k);
    let mut out = pooled_zeros(pool, dout.len() / n, k);
    add_products(out.as_mut_slice(), k, &[(dout, wt.as_slice())]);
    out
}

/// Adds the gradient of `layer` into the store from its input rows, read in
/// place, and its output gradient rows `dout`: `W += inputᵀ dout` — weight
/// row `k` takes input column `k` times each `dout` row in ascending row
/// order, zero-skip on the input, as the generic `Op::Matmul` backward does —
/// and `b += Σ dout`, rows ascending. The input's columns may come in
/// `parts` of `(rows, width)`, `[message | fixed]`; each feeds the next
/// `width` weight rows.
fn add_linear_grad(
    store: &mut ParamStore,
    layer: &Linear,
    parts: &[(&[f32], usize)],
    dout: &[f32],
) {
    let n = layer.out_features();
    let mut weight = store.grad_mut(layer.weight_id()).as_mut_slice();
    for &(input, width) in parts {
        let (rows, rest) = std::mem::take(&mut weight).split_at_mut(width * n);
        add_transposed_products(rows, n, &[(input, dout)]);
        weight = rest;
    }
    if let Some(bias) = layer.bias_id() {
        add_row_sums(store.grad_mut(bias).as_mut_slice(), dout);
    }
}

/// A dot product over eight partial sums, so its adds are not one serial
/// chain.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = a8
        .remainder()
        .iter()
        .zip(b8.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a8.zip(b8) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    acc.iter().sum::<f32>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::generic_gru;
    use crate::Graph;

    /// Records an op over the leaf inputs `vars`.
    type Record<'a> = &'a dyn Fn(&mut Graph, &ParamStore, &[Var]) -> Var;

    fn loss_weights(out: &Tensor) -> Tensor {
        Tensor::randn(out.rows(), out.cols(), 1.0, 99)
    }

    /// `Σ out ⊙ w`, summed in f64 so a difference quotient sees the op's
    /// rounding and not the loss's.
    fn loss_of(out: &Tensor) -> f64 {
        let w = loss_weights(out);
        let terms = out.as_slice().iter().zip(w.as_slice());
        terms.map(|(&o, &w)| f64::from(o) * f64::from(w)).sum()
    }

    fn forward(store: &ParamStore, inputs: &[Tensor], record: Record) -> Tensor {
        let mut g = Graph::new();
        let vars: Vec<Var> = inputs.iter().map(|t| g.input(t.clone())).collect();
        let out = record(&mut g, store, &vars);
        g.value(out).clone()
    }

    /// Forward and backward from `Σ out ⊙ w`: the output, every input's
    /// gradient, and every parameter's gradient (left in `store` too). The
    /// last `constants` inputs are recorded as constants, and must come back
    /// without a gradient; the others ask for theirs.
    fn gradients(
        store: &mut ParamStore,
        inputs: &[Tensor],
        constants: usize,
        record: Record,
    ) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
        store.zero_grad();
        let mut g = Graph::new();
        let asked = inputs.len() - constants;
        let vars: Vec<Var> = (inputs.iter().enumerate())
            .map(|(i, t)| {
                if i < asked {
                    g.variable(t.clone())
                } else {
                    g.input(t.clone())
                }
            })
            .collect();
        let out = record(&mut g, store, &vars);
        let value = g.value(out).clone();
        let w = g.input(loss_weights(&value));
        let weighted = g.mul(out, w);
        let loss = g.sum_all(weighted);
        g.backward(loss, store);
        for &var in &vars[asked..] {
            assert!(g.grad(var).is_none(), "a constant input took a gradient");
        }
        let input_grads = vars.iter().zip(inputs).map(|(&var, t)| {
            let zeros = || Tensor::zeros(t.rows(), t.cols());
            g.grad(var).cloned().unwrap_or_else(zeros)
        });
        let param_grads = store.ids().map(|id| store.grad(id).clone()).collect();
        (value, input_grads.collect(), param_grads)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A spread of flat indices into a tensor of `len` entries; index 1 is
    /// where the cases below put their zero inputs and the weight rows
    /// those zeros skip.
    fn samples(len: usize) -> Vec<usize> {
        let mut picks = vec![0, 1, len / 3, len / 2, 2 * len / 3, len - 1];
        picks.retain(|&k| k < len);
        picks.sort_unstable();
        picks.dedup();
        picks
    }

    /// The fused op against its generic-op oracle — the forward bit for bit,
    /// every gradient entry within 1e-5 of the tensor's largest oracle
    /// gradient (at least 1) — and against central differences (ε = 1e-2,
    /// f64 loss) at sampled entries of every parameter and every input but
    /// the last `constants`, within 1e-3 + 1 % of the analytic value. The
    /// constants get no gradient from either op.
    fn check_op(
        what: &str,
        store: &mut ParamStore,
        inputs: &mut [Tensor],
        constants: usize,
        fused: Record,
        oracle: Record,
    ) {
        let (value, input_grads, param_grads) = gradients(store, inputs, constants, fused);
        let (want, want_inputs, want_params) = gradients(store, inputs, constants, oracle);
        assert_eq!(bits(&value), bits(&want), "{what}: forward bits");
        let close = |name: &str, got: &Tensor, want: &Tensor| {
            let scale = want.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (k, (&a, &b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-5 * scale,
                    "{what}: {name}[{k}] fused {a} oracle {b}"
                );
            }
        };
        for (i, (got, want)) in input_grads.iter().zip(&want_inputs).enumerate() {
            close(&format!("input {i}"), got, want);
        }
        for (id, (got, want)) in store.ids().zip(param_grads.iter().zip(&want_params)) {
            close(store.name(id), got, want);
        }

        let eps = 1e-2f32;
        let check = |name: &str, k: usize, plus: f64, minus: f64, analytic: f32| {
            let numeric = (plus - minus) / (2.0 * f64::from(eps));
            let analytic = f64::from(analytic);
            assert!(
                (numeric - analytic).abs() <= 1e-3 + 0.01 * analytic.abs(),
                "{what}: {name}[{k}] numeric {numeric} analytic {analytic}"
            );
        };
        for id in store.ids().collect::<Vec<_>>() {
            for k in samples(store.value(id).len()) {
                let original = store.value(id).as_slice()[k];
                store.value_mut(id).as_mut_slice()[k] = original + eps;
                let plus = loss_of(&forward(store, inputs, fused));
                store.value_mut(id).as_mut_slice()[k] = original - eps;
                let minus = loss_of(&forward(store, inputs, fused));
                store.value_mut(id).as_mut_slice()[k] = original;
                let name = store.name(id).to_string();
                check(&name, k, plus, minus, param_grads[id.0].as_slice()[k]);
            }
        }
        for i in 0..inputs.len() - constants {
            for k in samples(inputs[i].len()) {
                let original = inputs[i].as_slice()[k];
                inputs[i].as_mut_slice()[k] = original + eps;
                let plus = loss_of(&forward(store, inputs, fused));
                inputs[i].as_mut_slice()[k] = original - eps;
                let minus = loss_of(&forward(store, inputs, fused));
                inputs[i].as_mut_slice()[k] = original;
                check(
                    &format!("input {i}"),
                    k,
                    plus,
                    minus,
                    input_grads[i].as_slice()[k],
                );
            }
        }
    }

    /// Hidden widths: 8 and 64 take the fixed-width banks, 12 the
    /// runtime-width loop.
    const WIDTHS: [usize; 3] = [8, 12, 64];
    const ROWS: [usize; 4] = [1, 2, 3, 5];

    /// Both forms of the GRU's input: one `[rows, d + 3]` variable, and
    /// DeepGate's — a `[rows, d]` message variable with the gate-type
    /// one-hot as `[rows, 3]` fixed constant rows, whose oracle concatenates
    /// them on the tape. The fixed form's message gradient covers the
    /// message columns and the one-hot gets none.
    #[test]
    fn gru_matches_its_oracle_and_finite_differences() {
        for d in WIDTHS {
            for rows in ROWS {
                for fixed in [false, true] {
                    let mut store = ParamStore::new();
                    let cell = GruCell::new(&mut store, "gru", d + 3, d, 7 + d as u64);
                    let width = if fixed { d } else { d + 3 };
                    let mut x = Tensor::randn(rows, width, 0.8, 1);
                    let mut h = Tensor::randn(rows, d, 0.8, 2);
                    let mut one_hot = Tensor::zeros(rows, 3);
                    for r in 0..rows {
                        x.set(r, 1, 0.0);
                        h.set(r, 1, 0.0);
                        one_hot.set(r, r % 3, 1.0);
                    }
                    x.set(0, 0, 0.0);
                    let what = format!("gru d={d} rows={rows} fixed={fixed}");
                    // The one-hot, when fixed, is the third input and a
                    // constant.
                    let fused = |g: &mut Graph, store: &ParamStore, v: &[Var]| {
                        cell.forward(g, store, v[0], v.get(2).copied(), v[1])
                    };
                    let oracle = |g: &mut Graph, store: &ParamStore, v: &[Var]| {
                        generic_gru(&cell, g, store, v[0], v.get(2).copied(), v[1])
                    };
                    if fixed {
                        let inputs = &mut [x, h, one_hot];
                        check_op(&what, &mut store, inputs, 1, &fused, &oracle);
                    } else {
                        check_op(&what, &mut store, &mut [x, h], 0, &fused, &oracle);
                    }
                }
            }
        }
    }

    /// The attention as `Aggregator` recorded it before the fused op: a
    /// per-edge gather of the targets' states as queries, then generic ops.
    #[allow(clippy::too_many_arguments)]
    fn generic_attention(
        g: &mut Graph,
        store: &ParamStore,
        query: &Linear,
        key: &Linear,
        edge_attr: Option<(&Linear, Var)>,
        sources: Var,
        targets: Var,
        seg: &[u32],
    ) -> Var {
        let rows: Vec<usize> = seg.iter().map(|&t| t as usize).collect();
        let query_states = g.gather_rows(targets, &rows);
        let q = query.forward(g, store, query_states);
        let k = key.forward(g, store, sources);
        let mut score = g.add(q, k);
        if let Some((layer, attr)) = edge_attr {
            let a = layer.forward(g, store, attr);
            score = g.add(score, a);
        }
        let alpha = g.segment_softmax(score, seg);
        let weighted = g.mul_col(alpha, sources);
        let num_targets = g.value(targets).rows();
        g.scatter_add_rows(weighted, seg, num_targets)
    }

    /// The edges of `m` targets: target `t` reads `1 + t % 3` sources out of
    /// `n` nodes, so target 0 has a one-edge segment and target 2 reads the
    /// same source twice. `unsorted` shuffles the edge order, as the GCN
    /// baseline's undirected edge list is.
    fn edges(m: usize, n: usize, unsorted: bool) -> (Vec<usize>, Vec<u32>) {
        let mut list = Vec::new();
        for t in 0..m {
            for j in 0..1 + t % 3 {
                let src = if t % 3 == 2 && j == 1 {
                    3 * t + 1
                } else {
                    3 * t + 2 * j + 1
                };
                list.push((src % n, t as u32));
            }
        }
        if unsorted {
            let len = list.len();
            let order = (0..len).map(|i| (i * 5 + 3) % len);
            let mut seen = vec![false; len];
            let mut shuffled: Vec<(usize, u32)> = order
                .filter(|&i| !std::mem::replace(&mut seen[i], true))
                .map(|i| list[i])
                .collect();
            shuffled.extend((0..len).filter(|&i| !seen[i]).map(|i| list[i]));
            shuffled.reverse();
            list = shuffled;
        }
        list.into_iter().unzip()
    }

    #[test]
    fn attention_matches_its_oracle_and_finite_differences() {
        for d in WIDTHS {
            for m in ROWS {
                for unsorted in [false, true] {
                    for attr_dim in [0usize, 4] {
                        let mut store = ParamStore::new();
                        let query = Linear::new(&mut store, "query", d, 1, 3);
                        let key = Linear::new(&mut store, "key", d, 1, 4);
                        let edge_attr =
                            (attr_dim > 0).then(|| Linear::new(&mut store, "attr", attr_dim, 1, 5));
                        // Unsorted is the GCN shape: every node is a target
                        // and the targets are the sources' own variable.
                        let n = if unsorted { m } else { m + 4 };
                        let (src, seg) = edges(m, n, unsorted);
                        let mut nodes = Tensor::randn(n, d, 1.0, 6);
                        for r in 0..n {
                            nodes.set(r, 1, 0.0);
                        }
                        let mut attr = Tensor::randn(src.len(), attr_dim.max(1), 1.0, 8);
                        attr.row_mut(0).fill(0.0);
                        let inputs = [nodes, Tensor::randn(m, d, 1.0, 7), attr];
                        let record = |g: &mut Graph, store: &ParamStore, v: &[Var], fused: bool| {
                            let sources = g.gather_rows(v[0], &src);
                            let targets = if unsorted { v[0] } else { v[1] };
                            let attr = edge_attr.as_ref().map(|layer| (layer, v[2]));
                            if fused {
                                g.attention(store, &query, &key, attr, sources, targets, &seg)
                            } else {
                                generic_attention(
                                    g, store, &query, &key, attr, sources, targets, &seg,
                                )
                            }
                        };
                        let fused =
                            |g: &mut Graph, s: &ParamStore, v: &[Var]| record(g, s, v, true);
                        let oracle =
                            |g: &mut Graph, s: &ParamStore, v: &[Var]| record(g, s, v, false);
                        let what =
                            format!("attention d={d} m={m} unsorted={unsorted} attr={attr_dim}");
                        check_op(&what, &mut store, &mut inputs.clone(), 0, &fused, &oracle);
                    }
                }
            }
        }
    }

    #[test]
    fn fused_ops_count_what_they_save() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 5, 4, 1);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(3, 5, 1.0, 2));
        let h = g.input(Tensor::randn(3, 4, 1.0, 3));
        let before = g.value_elements();
        cell.forward(&mut g, &store, x, None, h);
        // The [3, 4] output plus r, z and n.
        assert_eq!(g.value_elements() - before, 12 + 3 * 12);

        let query = Linear::new(&mut store, "q", 4, 1, 4);
        let key = Linear::new(&mut store, "k", 4, 1, 5);
        let targets = g.input(Tensor::randn(2, 4, 1.0, 6));
        let before = g.value_elements();
        g.attention(&store, &query, &key, None, h, targets, &[0, 0, 1]);
        // The [2, 4] messages plus one softmax weight per edge.
        assert_eq!(g.value_elements() - before, 8 + 3);
    }

    /// A fused op reads its weights from the store, not through parameter
    /// entries on the tape: over inputs that are all constants it must
    /// still reach the loss and train every weight and bias it owns.
    #[test]
    fn fused_ops_over_constants_train_every_weight() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "gru", 5, 4, 1);
        let query = Linear::new(&mut store, "q", 4, 1, 2);
        let key = Linear::new(&mut store, "k", 4, 1, 3);
        let attr_layer = Linear::new(&mut store, "a", 2, 1, 4);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(3, 3, 1.0, 5));
        let one_hot = g.input(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]));
        let h = g.input(Tensor::randn(3, 4, 1.0, 6));
        let updated = cell.forward(&mut g, &store, x, Some(one_hot), h);
        let sources = g.input(Tensor::randn(4, 4, 1.0, 7));
        let targets = g.input(Tensor::randn(2, 4, 1.0, 8));
        let attr = g.input(Tensor::randn(4, 2, 1.0, 9));
        let edge_attr = Some((&attr_layer, attr));
        let seg = [0, 1, 0, 1];
        let msg = g.attention(&store, &query, &key, edge_attr, sources, targets, &seg);
        let weights = g.input(loss_weights(g.value(updated)));
        let weighted = g.mul(updated, weights);
        let msg_weights = g.input(loss_weights(g.value(msg)));
        let weighted_msg = g.mul(msg, msg_weights);
        let (a, b) = (g.sum_all(weighted), g.sum_all(weighted_msg));
        let loss = g.add(a, b);
        g.backward(loss, &mut store);
        for id in store.ids() {
            assert!(
                store.grad(id).norm() > 0.0,
                "{} got no gradient",
                store.name(id)
            );
        }
        for var in [x, one_hot, h, sources, targets, attr] {
            assert!(g.grad(var).is_none(), "a constant got a gradient");
        }
    }
}
