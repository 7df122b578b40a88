//! The tape's two fused ops — the GRU update and the segment attention —
//! and their hand-written backwards.
//!
//! A fused op's forward *is* the row code of [`crate::dense`], the same
//! functions the CSR inference kernel runs, reading the parameters in place
//! out of the [`ParamStore`] (they are already row-major `[in, out]`). Its
//! backward reads the op's inputs off the tape plus the little it saved —
//! `r`, `z` and `n` for the GRU, the softmax weights for attention — and:
//!
//! * adds each weight's gradient straight into the store, as k-outer axpy
//!   rows over the op's rows ([`add_linear_grad`]);
//! * sends input gradients through each weight's transpose, built once per
//!   backward pass ([`Transposes`]).
//!
//! Both run the crate's one product kernel, [`add_products`] — the one
//! behind [`Tensor::matmul`].

use crate::dense;
use crate::tensor::add_products;
use crate::{GruCell, Linear, ParamId, ParamStore, Tensor, Var};

/// Every parameter's transpose, built for the first backward op that needs
/// it and reused by the rest of that pass.
pub(crate) struct Transposes(Vec<Option<Tensor>>);

impl Transposes {
    pub(crate) fn new(store: &ParamStore) -> Self {
        Transposes(vec![None; store.len()])
    }

    pub(crate) fn get<const N: usize>(
        &mut self,
        store: &ParamStore,
        ids: [ParamId; N],
    ) -> [&Tensor; N] {
        for id in ids {
            self.0[id.0].get_or_insert_with(|| store.value(id).transpose());
        }
        ids.map(|id| self.0[id.0].as_ref().expect("built above"))
    }
}

/// A recorded GRU update `h' = GRU(x, h)`.
#[derive(Debug)]
pub(crate) struct GruOp {
    pub(crate) cell: GruCell,
    pub(crate) x: Var,
    pub(crate) h: Var,
    /// `[r | z | n]`, each `[m, d]`.
    pub(crate) saved: Vec<f32>,
}

impl GruOp {
    /// The updated rows and the `[r | z | n]` gates of `m = h.rows()` rows.
    pub(crate) fn forward(
        store: &ParamStore,
        cell: &GruCell,
        x: &Tensor,
        h: &Tensor,
    ) -> (Tensor, Vec<f32>) {
        let (m, d) = (h.rows(), h.cols());
        assert_eq!(x.rows(), m, "gru row mismatch");
        assert_eq!(x.cols(), cell.input_size(), "gru input width");
        assert_eq!(d, cell.hidden_size(), "gru hidden width");
        let mut out = h.clone();
        let mut saved = vec![0.0f32; 3 * m * d];
        let mut scratch = vec![0.0f32; 2 * m * d];
        let (r, rest) = saved.split_at_mut(m * d);
        let (z, n) = rest.split_at_mut(m * d);
        let (rh, hn) = scratch.split_at_mut(m * d);
        dense::gru_step::<true>(
            cell.gates().map(|l| l.dense(store)),
            x.as_slice(),
            out.as_mut_slice(),
            m,
            [r, rh, z, hn, n],
            &mut Vec::new(),
        );
        (out, saved)
    }

    /// `(dx, dh)` from `dout`, with every gate weight's and bias's gradient
    /// added into `store`.
    pub(crate) fn backward(
        &self,
        dout: &Tensor,
        x: &Tensor,
        h: &Tensor,
        store: &mut ParamStore,
        wt: &mut Transposes,
    ) -> (Tensor, Tensor) {
        let (m, d) = (h.rows(), h.cols());
        let len = m * d;
        let (r, rest) = self.saved.split_at(len);
        let (z, n) = rest.split_at(len);
        let (hv, go) = (h.as_slice(), dout.as_slice());
        // Through h' = (1 - z) ⊙ n + z ⊙ h into the pre-activations of z
        // and n, and straight into h.
        let mut dh = Tensor::zeros(m, d);
        let (mut dar, mut daz, mut dan) = (vec![0.0f32; len], vec![0.0f32; len], vec![0.0f32; len]);
        for i in 0..len {
            let g = go[i];
            dh.as_mut_slice()[i] = g * z[i];
            daz[i] = g * (hv[i] - n[i]) * z[i] * (1.0 - z[i]);
            dan[i] = g * (1.0 - z[i]) * (1.0 - n[i] * n[i]);
        }
        let gates = self.cell.gates();
        let [xr, hr, xz, hz, xn, hn] = gates;
        let [wxr, whr, wxz, whz, wxn, whn] = wt
            .get(store, gates.map(Linear::weight_id))
            .map(Tensor::as_slice);
        // Through n's h side, (r ⊙ h) W_hn, into r and h.
        let mut drh = vec![0.0f32; len];
        add_products(&mut drh, d, &[(&dan, whn)]);
        for i in 0..len {
            dh.as_mut_slice()[i] += drh[i] * r[i];
            dar[i] = drh[i] * hv[i] * r[i] * (1.0 - r[i]);
        }
        add_products(dh.as_mut_slice(), d, &[(&dar, whr), (&daz, whz)]);
        let mut dx = Tensor::zeros(m, x.cols());
        let terms = [(&dar[..], wxr), (&daz[..], wxz), (&dan[..], wxn)];
        add_products(dx.as_mut_slice(), x.cols(), &terms);

        // r ⊙ h, as the forward computed it, is what W_hn saw.
        let rh = r.iter().zip(hv).map(|(&r, &h)| r * h).collect();
        let rht = Tensor::from_vec(m, d, rh).transpose();
        let (xt, ht) = (x.transpose(), h.transpose());
        for (layer, input_t, da) in [
            (xr, &xt, &dar),
            (xz, &xt, &daz),
            (xn, &xt, &dan),
            (hr, &ht, &dar),
            (hz, &ht, &daz),
            (hn, &rht, &dan),
        ] {
            add_linear_grad(store, layer, input_t, da);
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
    /// The `[m, d]` messages and the per-edge softmax weights.
    pub(crate) fn forward(
        store: &ParamStore,
        query: &Linear,
        key: &Linear,
        edge_attr: Option<(&Linear, &Tensor)>,
        sources: &Tensor,
        targets: &Tensor,
        seg: &[u32],
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
        let attr_bias = edge_attr.map(|(layer, attr)| {
            assert_eq!(attr.rows(), edges, "attention attribute rows");
            let mut bias = vec![0.0f32; edges];
            layer
                .dense(store)
                .apply(attr.as_slice(), edges, &mut bias, &mut wide);
            bias
        });
        let mut msg = Tensor::zeros(m, d);
        let mut alpha = vec![0.0f32; edges];
        let (mut tq, mut sum) = (vec![0.0f32; m], vec![0.0f32; m]);
        let src = sources.as_slice();
        dense::attention(
            query.dense(store),
            key.dense(store),
            |e| &src[e * d..(e + 1) * d],
            targets.as_slice(),
            seg,
            attr_bias.as_deref(),
            &mut alpha,
            &mut tq,
            &mut sum,
            msg.as_mut_slice(),
            &mut wide,
        );
        (msg, alpha)
    }

    /// `(dsources, dtargets, dattr)` from `dmsg`, with the score layers'
    /// gradients added into `store`.
    pub(crate) fn backward(
        &self,
        dmsg: &Tensor,
        sources: &Tensor,
        targets: &Tensor,
        attr: Option<&Tensor>,
        store: &mut ParamStore,
        wt: &mut Transposes,
    ) -> (Tensor, Tensor, Option<Tensor>) {
        let (edges, d, m) = (sources.rows(), sources.cols(), targets.rows());
        let (src, dm, alpha) = (sources.as_slice(), dmsg.as_slice(), &self.alpha);
        // Through the weighted sum into the sources and the weights, then
        // through the softmax: ds = α (dα - Σ_segment α dα).
        let mut dsrc = Tensor::zeros(edges, d);
        let mut ds = vec![0.0f32; edges];
        let mut seg_dot = vec![0.0f32; m];
        for (e, &t) in self.seg.iter().enumerate() {
            let drow = &dm[t as usize * d..][..d];
            let srow = &src[e * d..][..d];
            let dalpha = dot(drow, srow);
            for (o, &g) in dsrc.row_mut(e).iter_mut().zip(drow) {
                *o = alpha[e] * g;
            }
            ds[e] = dalpha;
            seg_dot[t as usize] += dalpha * alpha[e];
        }
        let mut dq = vec![0.0f32; m];
        for (e, &t) in self.seg.iter().enumerate() {
            ds[e] = alpha[e] * (ds[e] - seg_dot[t as usize]);
            dq[t as usize] += ds[e];
        }
        // A score is key(source) + query(target) + edge_attr(attr).
        let [wk, wq] = wt.get(store, [self.key.weight_id(), self.query.weight_id()]);
        add_products(dsrc.as_mut_slice(), d, &[(&ds, wk.as_slice())]);
        let mut dtgt = Tensor::zeros(m, d);
        add_products(dtgt.as_mut_slice(), d, &[(&dq, wq.as_slice())]);
        let dattr = self.edge_attr.as_ref().zip(attr).map(|((layer, _), attr)| {
            let mut da = Tensor::zeros(edges, attr.cols());
            let [wa] = wt.get(store, [layer.weight_id()]);
            add_products(da.as_mut_slice(), attr.cols(), &[(&ds, wa.as_slice())]);
            add_linear_grad(store, layer, &attr.transpose(), &ds);
            da
        });
        add_linear_grad(store, &self.key, &sources.transpose(), &ds);
        add_linear_grad(store, &self.query, &targets.transpose(), &dq);
        (dsrc, dtgt, dattr)
    }
}

/// Adds the gradient of `layer`, given its input rows transposed
/// (`input_t`, `[in, rows]`) and its output gradient rows `dout`, into the
/// store: `W += inputᵀ dout` — weight row `k` takes input column `k` times
/// each `dout` row in ascending row order, zero-skip included, as the
/// generic `Op::Matmul` backward does — and `b += Σ dout`.
fn add_linear_grad(store: &mut ParamStore, layer: &Linear, input_t: &Tensor, dout: &[f32]) {
    let n = layer.out_features();
    let weight = store.grad_mut(layer.weight_id()).as_mut_slice();
    add_products(weight, n, &[(input_t.as_slice(), dout)]);
    if let Some(bias) = layer.bias_id() {
        let ones = vec![1.0f32; dout.len() / n];
        add_products(store.grad_mut(bias).as_mut_slice(), n, &[(&ones, dout)]);
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
    /// gradient, and every parameter's gradient (left in `store` too).
    fn gradients(
        store: &mut ParamStore,
        inputs: &[Tensor],
        record: Record,
    ) -> (Tensor, Vec<Tensor>, Vec<Tensor>) {
        store.zero_grad();
        let mut g = Graph::new();
        let vars: Vec<Var> = inputs.iter().map(|t| g.input(t.clone())).collect();
        let out = record(&mut g, store, &vars);
        let value = g.value(out).clone();
        let w = g.input(loss_weights(&value));
        let weighted = g.mul(out, w);
        let loss = g.sum_all(weighted);
        g.backward(loss, store);
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
    /// f64 loss) at sampled entries of every input and parameter, within
    /// 1e-3 + 1 % of the analytic value.
    fn check_op(
        what: &str,
        store: &mut ParamStore,
        inputs: &mut [Tensor],
        fused: Record,
        oracle: Record,
    ) {
        let (value, input_grads, param_grads) = gradients(store, inputs, fused);
        let (want, want_inputs, want_params) = gradients(store, inputs, oracle);
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
        for i in 0..inputs.len() {
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

    #[test]
    fn gru_matches_its_oracle_and_finite_differences() {
        for d in WIDTHS {
            for rows in ROWS {
                let mut store = ParamStore::new();
                // DeepGate's GRU input: the message and a gate-type one-hot.
                let cell = GruCell::new(&mut store, "gru", d + 3, d, 7 + d as u64);
                let mut x = Tensor::randn(rows, d + 3, 0.8, 1);
                let mut h = Tensor::randn(rows, d, 0.8, 2);
                for r in 0..rows {
                    x.set(r, 1, 0.0);
                    h.set(r, 1, 0.0);
                }
                x.set(0, 0, 0.0);
                let fused = |g: &mut Graph, store: &ParamStore, v: &[Var]| {
                    cell.forward(g, store, v[0], v[1])
                };
                let oracle = |g: &mut Graph, store: &ParamStore, v: &[Var]| {
                    generic_gru(&cell, g, store, v[0], v[1])
                };
                let what = format!("gru d={d} rows={rows}");
                check_op(&what, &mut store, &mut [x, h], &fused, &oracle);
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
                        check_op(&what, &mut store, &mut inputs.clone(), &fused, &oracle);
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
        cell.forward(&mut g, &store, x, h);
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
}
