//! The model's dense row code, shared by the autodiff tape's two fused ops
//! ([`crate::GruCell::forward`], [`crate::Graph::attention`]) and the CSR
//! inference kernel in `deepgate-gnn`: the flat layer view [`Dense`], the
//! GRU update [`gru_step`] and the attention walk [`attention`]. Both
//! executors call these functions over the very same row-major weights, read
//! in place out of the one [`crate::ParamStore`] by
//! [`crate::Linear::dense`], so their forward values agree bit for bit by
//! construction.
//!
//! Every output element is one k-ascending accumulation chain with the
//! zero-skip of [`crate::Tensor::matmul`] and the bias added after it.
//! Blocking across *rows* (two rows per weight load, four interleaved score
//! chains) keeps each chain intact; blocking across `k` would not. The
//! fixed-width banks below exist for their register allocation only, and
//! their shape is load-bearing: LLVM has scalarised the `D = 32` instance
//! three times when it changed (check the vector loops with `objdump` after
//! touching them).

use crate::math;

/// Widest output dimension accumulated in a stack buffer. Accumulating into
/// a local array instead of the output slice keeps the partial sums out of
/// the `out`/weights alias analysis, which is worth >2x on the matvec loop;
/// wider layers fall back to heap scratch.
const ACC_WIDTH: usize = 128;

/// A dense affine layer `y = x W + b` as flat row-major slices.
#[derive(Debug, Clone, Copy)]
pub struct Dense<'a> {
    w: &'a [f32],
    b: &'a [f32],
    in_dim: usize,
    out_dim: usize,
}

impl<'a> Dense<'a> {
    /// A view of `[in_dim, out_dim]` row-major weights `w` and a bias `b`
    /// that is either `[out_dim]` or empty.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the dimensions.
    pub fn new(w: &'a [f32], b: &'a [f32], in_dim: usize, out_dim: usize) -> Self {
        assert_eq!(w.len(), in_dim * out_dim, "weight length");
        assert!(b.is_empty() || b.len() == out_dim, "bias length");
        Dense {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `rows` contiguous input rows.
    pub fn apply(self, input: &[f32], rows: usize, out: &mut [f32], wide: &mut Vec<f32>) {
        let row_of = |r: usize| &input[r * self.in_dim..][..self.in_dim];
        self.apply_rows(row_of, rows, out, wide);
    }

    /// Applies the layer to rows of `arena` selected by `idx` — the fused
    /// gather + GEMM walk of the CSR kernel.
    pub fn apply_gathered(self, arena: &[f32], idx: &[u32], out: &mut [f32], wide: &mut Vec<f32>) {
        let row_of = |r: usize| &arena[idx[r] as usize * self.in_dim..][..self.in_dim];
        self.apply_rows(row_of, idx.len(), out, wide);
    }

    /// The one row walk behind [`Dense::apply`] and [`Dense::apply_gathered`];
    /// `row_of(r)` hands out input row `r`. Dispatches on the output width
    /// once per call, not once per row: score layers to
    /// [`Dense::scores_blocked`], the common widths to register-resident
    /// fixed-width banks ([`accum1`]), anything else to the runtime-width
    /// loop, whose heap accumulator for layers wider than [`ACC_WIDTH`] is
    /// `wide`.
    fn apply_rows<'r>(
        self,
        row_of: impl Fn(usize) -> &'r [f32],
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
                for ((o, &s), &bv) in out.iter_mut().zip(acc.iter()).zip(self.b) {
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
    fn scores_blocked<'r>(self, row_of: impl Fn(usize) -> &'r [f32], rows: usize, out: &mut [f32]) {
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
/// exactly like [`Dense::apply_rows`].
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
/// [`Dense::apply_rows`], so the fusion is bit-exact — it only changes how
/// many partial sums are alive at once, not the order within any one of
/// them.
#[allow(clippy::too_many_arguments)]
fn apply_fused3(
    la: Dense,
    lb: Dense,
    lc: Dense,
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
    la: Dense,
    lb: Dense,
    lc: Dense,
    input: &[f32],
    rows: usize,
    oa: &mut [f32],
    ob: &mut [f32],
    oc: &mut [f32],
) {
    let din = la.in_dim;
    let (wa, wb, wc) = (&la.w[..din * D], &lb.w[..din * D], &lc.w[..din * D]);
    let mut write = |r: usize, aa: &[f32; D], ab: &[f32; D], ac: &[f32; D]| {
        write_f32::<D>(la.b, aa, &mut oa[r * D..(r + 1) * D]);
        write_f32::<D>(lb.b, ab, &mut ob[r * D..(r + 1) * D]);
        write_f32::<D>(lc.b, ac, &mut oc[r * D..(r + 1) * D]);
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
    la: Dense,
    lb: Dense,
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
fn rows1_fixed<'r, const D: usize>(
    l: Dense,
    row_of: impl Fn(usize) -> &'r [f32],
    rows: usize,
    out: &mut [f32],
) {
    for r in 0..rows {
        let mut acc = [0.0f32; D];
        accum1::<D>(row_of(r), l.w, &mut acc);
        write_f32::<D>(l.b, &acc, &mut out[r * D..(r + 1) * D]);
    }
}

#[inline(never)]
fn fused2_fixed<const D: usize>(
    la: Dense,
    lb: Dense,
    input: &[f32],
    rows: usize,
    oa: &mut [f32],
    ob: &mut [f32],
) {
    let din = la.in_dim;
    for r in 0..rows {
        let row = &input[r * din..(r + 1) * din];
        let (mut aa, mut ab) = ([0.0f32; D], [0.0f32; D]);
        accum2::<D>(row, la.w, lb.w, &mut aa, &mut ab);
        write_f32::<D>(la.b, &aa, &mut oa[r * D..(r + 1) * D]);
        write_f32::<D>(lb.b, &ab, &mut ob[r * D..(r + 1) * D]);
    }
}

/// One GRU update (paper Eq. 6) of `m` hidden rows `h`, in place:
///
/// ```text
/// r = σ(x W_xr + b_r + h W_hr)      z = σ(x W_xz + b_z + h W_hz)
/// n = tanh(x W_xn + b_n + (r ⊙ h) W_hn)      h' = (1 - z) ⊙ n + z ⊙ h
/// ```
///
/// `gates` are the six projections in [`crate::GruCell::gates`] order
/// (`[xr, hr, xz, hz, xn, hn]`), `input` is `[m, in]`, and `g` is five
/// `[m, d]` arenas. With `SAVE_GATES` they hold `[r, r ⊙ h, z,
/// (r ⊙ h) W_hn, n]` on return — the tape keeps `r`, `z` and `n` for its
/// backward; without it (the kernel) `r` and `n` are never stored. The flag
/// is a compile-time constant: neither instance branches on it.
pub fn gru_step<const SAVE_GATES: bool>(
    gates: [Dense; 6],
    input: &[f32],
    h: &mut [f32],
    m: usize,
    g: [&mut [f32]; 5],
    wide: &mut Vec<f32>,
) {
    let [xr_w, hr_w, xz_w, hz_w, xn_w, hn_w] = gates;
    let [xr, hr, xz, hz, xn] = g;
    // The three x-side gate sums share `input`; the two h-side sums share
    // the hidden rows. Fused multi-accumulator passes compute them with one
    // walk over each shared operand.
    apply_fused3(xr_w, xz_w, xn_w, input, m, xr, xz, xn, wide);
    apply_fused2(hr_w, hz_w, h, m, hr, hz, wide);
    // z → xz, r ⊙ h → hr (and r → xr when saving): one sweep, which
    // `nn::math` lets the compiler run a vector wide.
    let len = h.len();
    let (xr, hr, xz) = (&mut xr[..len], &mut hr[..len], &mut xz[..len]);
    let (hz, xn) = (&mut hz[..len], &mut xn[..len]);
    for i in 0..len {
        let r = math::sigmoid(xr[i] + hr[i]);
        xz[i] = math::sigmoid(xz[i] + hz[i]);
        if SAVE_GATES {
            xr[i] = r;
        }
        hr[i] = r * h[i];
    }
    // n = tanh(x W_xn + (r ⊙ h) W_hn) (→ xn when saving), with `hz` free to
    // take the h side; h' = (1 - z) ⊙ n + z ⊙ h goes straight into `h`.
    hn_w.apply(hr, m, hz, wide);
    for i in 0..len {
        let n = math::tanh(xn[i] + hz[i]);
        if SAVE_GATES {
            xn[i] = n;
        }
        h[i] = (1.0 - xz[i]) * n + xz[i] * h[i];
    }
}

/// DeepGate's additive attention (paper Eq. 5) over one batch of edges:
/// scores, then a softmax over each target's edges, then the weighted sum
/// of the source rows.
///
/// Edge `e` reads source row `source(e)` and belongs to target `seg[e]`, a
/// row of the `[m, d]` `targets`. A score is `key(source) + query(target)`
/// plus `attr_bias[e]` when given, in that order. Segments need not be
/// contiguous or sorted (the GCN baseline's undirected edges are not), but
/// every per-target reduction runs in edge order, so a CSR row — the
/// kernel's level layout — gives the same bits as any other listing of the
/// same edges in the same order. Writes the softmax weights to `alpha`
/// (`[E]`) and accumulates the messages into `msg` (`[m, d]`, zeroed by the
/// caller); `tq` and `sum` are `[m]` scratch.
#[allow(clippy::too_many_arguments)]
pub fn attention<'s>(
    query: Dense,
    key: Dense,
    source: impl Fn(usize) -> &'s [f32] + Copy,
    targets: &[f32],
    seg: &[u32],
    attr_bias: Option<&[f32]>,
    alpha: &mut [f32],
    tq: &mut [f32],
    sum: &mut [f32],
    msg: &mut [f32],
    wide: &mut Vec<f32>,
) {
    let d = key.in_dim;
    let (edges, m) = (seg.len(), tq.len());
    let alpha = &mut alpha[..edges];
    key.apply_rows(source, edges, alpha, wide);
    // One query score per target, shared by all of its edges.
    query.apply(targets, m, tq, wide);
    for (s, &t) in alpha.iter_mut().zip(seg) {
        *s += tq[t as usize];
    }
    if let Some(bias) = attr_bias {
        for (s, &bv) in alpha.iter_mut().zip(bias) {
            *s += bv;
        }
    }
    // Segment softmax; `tq` now holds each target's maximum score.
    let max = tq;
    max.fill(f32::NEG_INFINITY);
    for (&s, &t) in alpha.iter().zip(seg) {
        max[t as usize] = max[t as usize].max(s);
    }
    sum.fill(0.0);
    for (s, &t) in alpha.iter_mut().zip(seg) {
        *s = math::exp(*s - max[t as usize]);
        sum[t as usize] += *s;
    }
    for (s, &t) in alpha.iter_mut().zip(seg) {
        *s /= sum[t as usize];
    }
    for (e, (&a, &t)) in alpha.iter().zip(seg).enumerate() {
        let row = &mut msg[t as usize * d..][..d];
        for (o, &sv) in row.iter_mut().zip(source(e)) {
            *o += a * sv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

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
            let weights = |salt: usize| {
                let value = |i: usize| ((i * 37 + salt * 11) % 23) as f32 * 0.173 - 1.9;
                let mut w: Vec<f32> = (0..DIN * d).map(value).collect();
                w[d + salt] = f32::INFINITY;
                w[3 * d + salt + 1] = f32::INFINITY;
                w[5 * d..6 * d].fill(f32::INFINITY);
                w
            };
            let ws = [weights(0), weights(1), weights(2)];
            let [la, lb, lc] = [0, 1, 2].map(|i| Dense::new(&ws[i], &[], DIN, d));
            for rows in [1usize, 2, 3, 5] {
                let value = |i: usize| ((i * 29) % 17) as f32 * 0.31 + 0.07;
                let mut input: Vec<f32> = (0..rows * DIN).map(value).collect();
                for r in 0..rows {
                    input[r * DIN + 1 + 2 * (r % 2)] = 0.0;
                    input[r * DIN + 5] = 0.0;
                }
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
                for (w, got) in ws.iter().zip([&oa, &ob, &oc]) {
                    let want = x.matmul(&Tensor::from_vec(DIN, d, w.clone()));
                    assert!(want.as_slice().contains(&f32::INFINITY));
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
                    assert_eq!(bits(want.as_slice()), bits(got), "d = {d}, {rows} rows");
                }
            }
        }
    }
}
