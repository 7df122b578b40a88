//! Neural-network layers used by the DeepGate models: linear projections,
//! multi-layer perceptrons and gated recurrent unit cells.

use crate::dense::Dense;
use crate::{Graph, ParamId, ParamStore, Tensor, Var};

/// A dense affine layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Registers a new linear layer in `store`. Weights use Xavier-uniform
    /// initialisation seeded with `seed`; the bias starts at zero.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Self {
        let weight = store.add(
            format!("{name}.weight"),
            Tensor::xavier_uniform(in_features, out_features, seed),
        );
        let bias = Some(store.add(format!("{name}.bias"), Tensor::zeros(1, out_features)));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Registers a linear layer without a bias term.
    pub fn new_without_bias(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Self {
        let weight = store.add(
            format!("{name}.weight"),
            Tensor::xavier_uniform(in_features, out_features, seed),
        );
        Linear {
            weight,
            bias: None,
            in_features,
            out_features,
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the layer to a `[n, in_features]` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, input: Var) -> Var {
        let w = g.param(store, self.weight);
        let projected = g.matmul(input, w);
        match self.bias {
            Some(bias) => {
                let b = g.param(store, bias);
                g.add_row(projected, b)
            }
            None => projected,
        }
    }

    /// The layer's `[in_features, out_features]` weights and bias read in
    /// place out of `store`, as the row code of [`crate::dense`] takes them
    /// — the one way the tape's fused ops and the CSR kernel read a layer.
    pub fn dense<'a>(&self, store: &'a ParamStore) -> Dense<'a> {
        let bias = self.bias.map_or(&[][..], |b| store.value(b).as_slice());
        let weight = store.value(self.weight).as_slice();
        Dense::new(weight, bias, self.in_features, self.out_features)
    }

    pub(crate) fn weight_id(&self) -> ParamId {
        self.weight
    }

    pub(crate) fn bias_id(&self) -> Option<ParamId> {
        self.bias
    }
}

/// A multi-layer perceptron with a ReLU on hidden layers and a linear final
/// layer (optionally followed by a sigmoid, as used by the probability
/// regressor of DeepGate).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    sigmoid_output: bool,
}

impl Mlp {
    /// Registers an MLP with the given layer sizes, e.g. `[64, 32, 1]` builds
    /// two linear layers 64→32→1.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        sizes: &[usize],
        sigmoid_output: bool,
        seed: u64,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least two layer sizes");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Linear::new(
                    store,
                    &format!("{name}.layer{i}"),
                    w[0],
                    w[1],
                    seed.wrapping_add(i as u64),
                )
            })
            .collect();
        Mlp {
            layers,
            sigmoid_output,
        }
    }

    /// The linear layers in application order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Whether a sigmoid follows the final linear layer.
    pub fn has_sigmoid_output(&self) -> bool {
        self.sigmoid_output
    }

    /// Applies the MLP to a `[n, sizes[0]]` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, input: Var) -> Var {
        let mut x = input;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(g, store, x);
            if i < last {
                x = g.relu(x);
            }
        }
        if self.sigmoid_output {
            x = g.sigmoid(x);
        }
        x
    }
}

/// A gated recurrent unit cell operating on row-batched states.
///
/// Follows the standard GRU formulation:
///
/// ```text
/// r = σ(x W_xr + h W_hr + b_r)
/// z = σ(x W_xz + h W_hz + b_z)
/// n = tanh(x W_xn + (r ⊙ h) W_hn + b_n)
/// h' = (1 - z) ⊙ n + z ⊙ h
/// ```
///
/// DeepGate uses a GRU as the COMBINE function (Eq. 6): the aggregated
/// message followed by the gate-type one-hot is the input `x` (the one-hot
/// as fixed columns of [`GruCell::forward`]), and the node's
/// previous hidden state is `h`.
#[derive(Debug, Clone)]
pub struct GruCell {
    w_xr: Linear,
    w_hr: Linear,
    w_xz: Linear,
    w_hz: Linear,
    w_xn: Linear,
    w_hn: Linear,
    input_size: usize,
    hidden_size: usize,
}

impl GruCell {
    /// Registers a GRU cell with the given input and hidden sizes.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_size: usize,
        hidden_size: usize,
        seed: u64,
    ) -> Self {
        GruCell {
            w_xr: Linear::new(
                store,
                &format!("{name}.w_xr"),
                input_size,
                hidden_size,
                seed,
            ),
            w_hr: Linear::new_without_bias(
                store,
                &format!("{name}.w_hr"),
                hidden_size,
                hidden_size,
                seed.wrapping_add(1),
            ),
            w_xz: Linear::new(
                store,
                &format!("{name}.w_xz"),
                input_size,
                hidden_size,
                seed.wrapping_add(2),
            ),
            w_hz: Linear::new_without_bias(
                store,
                &format!("{name}.w_hz"),
                hidden_size,
                hidden_size,
                seed.wrapping_add(3),
            ),
            w_xn: Linear::new(
                store,
                &format!("{name}.w_xn"),
                input_size,
                hidden_size,
                seed.wrapping_add(4),
            ),
            w_hn: Linear::new_without_bias(
                store,
                &format!("{name}.w_hn"),
                hidden_size,
                hidden_size,
                seed.wrapping_add(5),
            ),
            input_size,
            hidden_size,
        }
    }

    /// Input feature dimension.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden state dimension.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// The six gate projections in `[xr, hr, xz, hz, xn, hn]` order — the
    /// reset, update and candidate gates' input-side and hidden-side layers.
    pub fn gates(&self) -> [&Linear; 6] {
        [
            &self.w_xr, &self.w_hr, &self.w_xz, &self.w_hz, &self.w_xn, &self.w_hn,
        ]
    }

    /// Computes the next hidden state for a batch of rows, recorded as one
    /// fused tape entry whose forward is [`crate::dense::gru_step`] — the
    /// CSR inference kernel's GRU.
    ///
    /// The input rows are `[input | fixed]`: `input` is `[n, k]`, and
    /// `fixed`, when given, is a constant `[n, input_size - k]` — DeepGate's
    /// gate-type one-hot, the same on every update. The fused entry reads
    /// `fixed` in place: no concatenation is recorded, `input`'s gradient
    /// covers its own columns only, and none is computed for `fixed`.
    /// `hidden` is `[n, hidden_size]`; the result is `[n, hidden_size]`.
    /// The cell's weights get their gradients whatever the inputs are.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not match the cell, or if `fixed` is not a
    /// constant ([`Graph::input`], or an entry other than a fused op that
    /// reads only constants).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        input: Var,
        fixed: Option<Var>,
        hidden: Var,
    ) -> Var {
        g.gru(store, self, input, fixed, hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;

    #[test]
    fn linear_shapes_and_forward() {
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "l", 3, 2, 1);
        assert_eq!(layer.in_features(), 3);
        assert_eq!(layer.out_features(), 2);
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(4, 3));
        let y = layer.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), [4, 2]);
        // Without bias there are fewer parameters.
        let mut store2 = ParamStore::new();
        let _ = Linear::new_without_bias(&mut store2, "l", 3, 2, 1);
        assert_eq!(store2.len(), 1);
    }

    #[test]
    fn mlp_forward_shapes_and_sigmoid_range() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 8, 1], true, 3);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(5, 4, 1.0, 9));
        let y = mlp.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), [5, 1]);
        assert!(g
            .value(y)
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "at least two layer sizes")]
    fn mlp_rejects_single_size() {
        let mut store = ParamStore::new();
        let _ = Mlp::new(&mut store, "m", &[4], false, 0);
    }

    #[test]
    fn gru_preserves_shape_and_gates_interpolate() {
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "gru", 3, 4, 7);
        assert_eq!(gru.input_size(), 3);
        assert_eq!(gru.hidden_size(), 4);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(6, 3, 1.0, 1));
        let h = g.input(Tensor::randn(6, 4, 1.0, 2));
        let h2 = gru.forward(&mut g, &store, x, None, h);
        assert_eq!(g.value(h2).shape(), [6, 4]);
        // The GRU output is an interpolation between h and tanh(...) so it is
        // bounded by max(|h|, 1).
        let bound = g
            .value(h)
            .as_slice()
            .iter()
            .fold(1.0f32, |acc, &v| acc.max(v.abs()));
        assert!(g
            .value(h2)
            .as_slice()
            .iter()
            .all(|&v| v.abs() <= bound + 1e-5));
    }

    #[test]
    fn linear_learns_linear_function() {
        // y = 2 x1 - x2, trained with Adam.
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fit", 2, 1, 5);
        let mut adam = Adam::with_defaults(0.05);
        let x = Tensor::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
            &[0.5, 2.0],
        ]);
        let target = Tensor::from_rows(&[&[2.0], &[-1.0], &[1.0], &[3.0], &[-1.0]]);
        let mut last_loss = f32::MAX;
        for _ in 0..300 {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let pred = layer.forward(&mut g, &store, xv);
            let loss = g.mse_loss(pred, &target);
            last_loss = g.value(loss).get(0, 0);
            g.backward(loss, &mut store);
            adam.step(&mut store);
            store.zero_grad();
        }
        assert!(last_loss < 1e-3, "loss did not converge: {last_loss}");
    }

    #[test]
    fn gru_can_learn_to_copy_input_sign() {
        // Train a tiny GRU + readout to output 1 for positive inputs and 0
        // for negative inputs after one step; checks end-to-end gradients.
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "gru", 1, 4, 11);
        let readout = Linear::new(&mut store, "ro", 4, 1, 13);
        let mut adam = Adam::with_defaults(0.05);
        let inputs = Tensor::from_rows(&[&[1.0], &[-1.0], &[0.5], &[-0.5]]);
        let target = Tensor::from_rows(&[&[1.0], &[0.0], &[1.0], &[0.0]]);
        let mut last_loss = f32::MAX;
        for step in 0..400 {
            let mut g = Graph::new();
            let x = g.input(inputs.clone());
            let h0 = g.input(Tensor::zeros(4, 4));
            let h1 = gru.forward(&mut g, &store, x, None, h0);
            let logits = readout.forward(&mut g, &store, h1);
            let pred = g.sigmoid(logits);
            let loss = g.mse_loss(pred, &target);
            last_loss = g.value(loss).get(0, 0);
            g.backward(loss, &mut store);
            if step == 0 {
                // x and h0 are constants, yet the GRU trains: the update
                // and candidate gates' input-side weights and biases have a
                // gradient (whatever reads h0 = 0, the reset gate too, has
                // none).
                let [_, _, xz, _, xn, _] = gru.gates();
                for layer in [xz, xn] {
                    let ids = [Some(layer.weight_id()), layer.bias_id()];
                    for id in ids.into_iter().flatten() {
                        assert!(store.grad(id).norm() > 0.0, "{}", store.name(id));
                    }
                }
            }
            adam.step(&mut store);
            store.zero_grad();
        }
        assert!(last_loss < 0.05, "gru failed to learn: {last_loss}");
    }
}
