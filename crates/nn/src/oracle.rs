//! The GRU as the tape recorded it before [`GruCell::forward`] fused it:
//! twenty generic entries (`1 - z` as `-z + 1`, the same bits), after a
//! `concat_cols` entry for fixed input columns, as DeepGate recorded its
//! gate-type one-hot before [`GruCell::forward`] read them in place.
//!
//! Test support, compiled under `cfg(test)` only. One copy serves both
//! oracles that need it: the fused op's unit test here and the whole-model
//! gradient tests of `deepgate-gnn`, which include this file by `#[path]`
//! (the crate's tests cannot see another crate's `cfg(test)` items). The
//! includer brings the four names below into scope.

use super::{Graph, GruCell, ParamStore, Var};

pub(crate) fn generic_gru(
    cell: &GruCell,
    g: &mut Graph,
    store: &ParamStore,
    input: Var,
    fixed: Option<Var>,
    hidden: Var,
) -> Var {
    let input = match fixed {
        Some(fixed) => g.concat_cols(input, fixed),
        None => input,
    };
    let [w_xr, w_hr, w_xz, w_hz, w_xn, w_hn] = cell.gates();
    let xr = w_xr.forward(g, store, input);
    let hr = w_hr.forward(g, store, hidden);
    let pre_r = g.add(xr, hr);
    let r = g.sigmoid(pre_r);

    let xz = w_xz.forward(g, store, input);
    let hz = w_hz.forward(g, store, hidden);
    let pre_z = g.add(xz, hz);
    let z = g.sigmoid(pre_z);

    let gated_h = g.mul(r, hidden);
    let xn = w_xn.forward(g, store, input);
    let hn = w_hn.forward(g, store, gated_h);
    let pre_n = g.add(xn, hn);
    let n = g.tanh(pre_n);

    let minus_z = g.scale(z, -1.0);
    let one_minus_z = g.add_scalar(minus_z, 1.0);
    let new_part = g.mul(one_minus_z, n);
    let old_part = g.mul(z, hidden);
    g.add(new_part, old_part)
}
