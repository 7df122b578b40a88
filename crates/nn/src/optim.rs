//! The Adam optimiser over a [`ParamStore`].

use crate::{ParamStore, Tensor};

/// The Adam optimiser (Kingma & Ba), used by the paper with a learning rate
/// of `1e-4`.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    first_moment: Vec<Tensor>,
    second_moment: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimiser with explicit hyper-parameters.
    pub fn new(learning_rate: f32, beta1: f32, beta2: f32, epsilon: f32) -> Self {
        Adam {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            step_count: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Creates an Adam optimiser with the standard β/ε defaults
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn with_defaults(learning_rate: f32) -> Self {
        Adam::new(learning_rate, 0.9, 0.999, 1e-8)
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Number of update steps applied so far.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Applies one Adam update step using the gradients accumulated in
    /// `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        let ids: Vec<_> = store.ids().collect();
        if self.first_moment.len() != ids.len() {
            self.first_moment = ids
                .iter()
                .map(|&id| {
                    let v = store.value(id);
                    Tensor::zeros(v.rows(), v.cols())
                })
                .collect();
            self.second_moment = self.first_moment.clone();
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (slot, id) in ids.into_iter().enumerate() {
            // A parameter without a gradient (`[0, 0]`) zips to nothing.
            let (value, grad) = store.value_and_grad_mut(id);
            let m = self.first_moment[slot].as_mut_slice();
            let v = self.second_moment[slot].as_mut_slice();
            let elements = value.as_mut_slice().iter_mut().zip(m).zip(v);
            for (((x, m), v), &g) in elements.zip(grad.as_slice()) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *x -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, ParamStore};

    fn quadratic_loss(store: &ParamStore, id: crate::ParamId) -> (Graph, crate::Var) {
        // loss = mean((w - 3)^2): minimised at w = 3.
        let mut g = Graph::new();
        let w = g.param(store, id);
        let target = Tensor::full(1, 4, 3.0);
        let loss = g.mse_loss(w, &target);
        (g, loss)
    }

    #[test]
    fn adam_minimises_quadratic() {
        let mut store_adam = ParamStore::new();
        let id_adam = store_adam.add("w", Tensor::zeros(1, 4));
        let mut adam = Adam::with_defaults(0.2);
        for _ in 0..100 {
            let (mut g, loss) = quadratic_loss(&store_adam, id_adam);
            g.backward(loss, &mut store_adam);
            adam.step(&mut store_adam);
            store_adam.zero_grad();
        }
        assert_eq!(adam.step_count(), 100);
        for &v in store_adam.value(id_adam).as_slice() {
            assert!((v - 3.0).abs() < 0.05, "adam value {v}");
        }
    }

    /// Zeroed tensors shaped like every parameter — how the optimiser sizes
    /// its state on the first step.
    fn zeros_like(store: &ParamStore) -> Vec<Tensor> {
        let zeros = |id| Tensor::zeros(store.value(id).rows(), store.value(id).cols());
        store.ids().map(zeros).collect()
    }

    /// `Adam::step` as it was before it updated in place: a clone of every
    /// gradient, indexed element by element.
    fn reference_adam_step(adam: &mut Adam, store: &mut ParamStore) {
        if adam.first_moment.len() != store.len() {
            adam.first_moment = zeros_like(store);
            adam.second_moment = zeros_like(store);
        }
        adam.step_count += 1;
        let t = adam.step_count as f32;
        let bias1 = 1.0 - adam.beta1.powf(t);
        let bias2 = 1.0 - adam.beta2.powf(t);
        for (slot, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let grad = store.grad(id).clone();
            if grad.is_empty() {
                continue;
            }
            let m = &mut adam.first_moment[slot];
            let v = &mut adam.second_moment[slot];
            let value = store.value_mut(id);
            for i in 0..grad.len() {
                let g = grad.as_slice()[i];
                let mi = adam.beta1 * m.as_slice()[i] + (1.0 - adam.beta1) * g;
                let vi = adam.beta2 * v.as_slice()[i] + (1.0 - adam.beta2) * g * g;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let m_hat = mi / bias1;
                let v_hat = vi / bias2;
                value.as_mut_slice()[i] -=
                    adam.learning_rate * m_hat / (v_hat.sqrt() + adam.epsilon);
            }
        }
    }

    /// `ParamStore::clip_grad_norm` before it scaled in place.
    fn reference_clip(store: &mut ParamStore, max_norm: f32) {
        let norm = store.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for id in store.ids().collect::<Vec<_>>() {
                if !store.grad(id).is_empty() {
                    *store.grad_mut(id) = store.grad(id).map(|v| v * scale);
                }
            }
        }
    }

    fn bits<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> Vec<u32> {
        let values = tensors.into_iter().flat_map(|t| t.as_slice());
        values.map(|v| v.to_bits()).collect()
    }

    /// Three parameters loaded from a checkpoint, so none has a gradient
    /// (`[0, 0]`) until one is set.
    fn loaded_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.add("a", Tensor::randn(3, 5, 1.0, 1));
        store.add("b", Tensor::randn(1, 5, 1.0, 2));
        store.add("c", Tensor::randn(2, 2, 1.0, 3));
        let json = serde_json::to_string(&store).unwrap();
        serde_json::from_str(&json).unwrap()
    }

    /// Random gradients, one entry exactly zero, for all but the last
    /// parameter, which keeps the `[0, 0]` it was loaded with.
    fn set_random_grads(store: &mut ParamStore, seed: u64) {
        let ids: Vec<_> = store.ids().collect();
        for &id in &ids[..ids.len() - 1] {
            let [rows, cols] = store.value(id).shape();
            let mut grad = Tensor::randn(rows, cols, 2.0, seed + id.0 as u64);
            grad.as_mut_slice()[0] = 0.0;
            *store.grad_mut(id) = grad;
        }
        assert!(store.grad(ids[ids.len() - 1]).is_empty());
    }

    #[test]
    fn in_place_steps_equal_the_cloning_reference_bit_for_bit() {
        let (mut store, mut want) = (loaded_store(), loaded_store());
        let (mut adam, mut adam_ref) = (Adam::with_defaults(0.01), Adam::with_defaults(0.01));
        for step in 0..3u64 {
            set_random_grads(&mut store, 10 * step);
            set_random_grads(&mut want, 10 * step);
            // The gradients' norm is ~12, so the clip scales every step.
            store.clip_grad_norm(1.0);
            reference_clip(&mut want, 1.0);
            adam.step(&mut store);
            reference_adam_step(&mut adam_ref, &mut want);
        }
        let values = |s: &ParamStore| bits(s.ids().map(|id| s.value(id)));
        let grads = |s: &ParamStore| bits(s.ids().map(|id| s.grad(id)));
        assert_eq!(values(&store), values(&want), "values");
        assert_eq!(grads(&store), grads(&want), "clipped gradients");
        assert_eq!(bits(&adam.first_moment), bits(&adam_ref.first_moment));
        assert_eq!(bits(&adam.second_moment), bits(&adam_ref.second_moment));
        let last = store.ids().last().unwrap();
        assert_eq!(
            store.value(last),
            loaded_store().value(last),
            "no gradient, no update"
        );
    }

    #[test]
    fn optimisers_skip_parameters_without_gradients() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::ones(1, 2));
        let mut adam = Adam::with_defaults(0.1);
        // No backward pass ran; values must stay unchanged.
        adam.step(&mut store);
        assert_eq!(store.value(id).as_slice(), &[1.0, 1.0]);
    }
}
