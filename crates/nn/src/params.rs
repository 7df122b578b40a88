use crate::{NnError, Tensor};
use std::collections::HashMap;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

#[derive(Debug, Clone)]
struct Parameter {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A flat store of named, trainable parameters.
///
/// Models register their weights here once at construction time and reference
/// them by [`ParamId`] on every forward pass; [`crate::Graph::backward`]
/// accumulates gradients into the store and the optimiser ([`crate::Adam`])
/// updates the values in place.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Parameter>,
}

impl ParamStore {
    /// Creates an empty parameter store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Registers a parameter and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.params.push(Parameter {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalar weights).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// The value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable access to the value of a parameter.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Mutable access to the gradient of a parameter — where the fused ops'
    /// backwards add their weight gradients.
    pub(crate) fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].grad
    }

    /// A parameter's value and gradient at once, for the optimisers' in-place
    /// updates.
    pub(crate) fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        let p = &mut self.params[id.0];
        (&mut p.value, &p.grad)
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Adds `delta` to the gradient of a parameter (used by
    /// [`crate::Graph::backward`]).
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the parameter shape.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.params[id.0].grad.axpy(1.0, delta);
    }

    /// Resets all gradients to zero.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Global L2 norm of all gradients (useful for gradient clipping and
    /// debugging training).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.norm().powi(2))
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                p.grad.as_mut_slice().iter_mut().for_each(|v| *v *= scale);
            }
        }
    }

    /// Every parameter's value by name — the weights of a model checkpoint.
    pub fn to_map(&self) -> HashMap<String, Tensor> {
        let named = |p: &Parameter| (p.name.clone(), p.value.clone());
        self.params.iter().map(named).collect()
    }

    /// Loads parameter values from a map produced by [`ParamStore::to_map`]
    /// (typically deserialised from a checkpoint). Every parameter in the
    /// store must be present with a matching shape and exactly
    /// `rows × cols` values.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingParameter`] for an absent parameter and
    /// [`NnError::ShapeMismatch`] for a shape — or a value count — that
    /// does not match the store.
    pub fn load_map(&mut self, mut values: HashMap<String, Tensor>) -> Result<(), NnError> {
        for p in &mut self.params {
            let loaded = values
                .remove(&p.name)
                .ok_or_else(|| NnError::MissingParameter(p.name.clone()))?;
            let mismatch = |expected, got| NnError::ShapeMismatch {
                name: p.name.clone(),
                expected,
                got,
            };
            if loaded.shape() != p.value.shape() {
                return Err(mismatch(p.value.shape().to_vec(), loaded.shape().to_vec()));
            }
            // A deserialised header can agree while its data is short.
            if loaded.len() != p.value.len() {
                return Err(mismatch(vec![p.value.len()], vec![loaded.len()]));
            }
            p.value = loaded;
            p.grad = Tensor::zeros(p.value.rows(), p.value.cols());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(2, 3));
        let b = store.add("b", Tensor::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_weights(), 9);
        assert_eq!(store.name(w), "w");
        assert_eq!(store.value(b).shape(), [1, 3]);
        assert_eq!(store.ids().count(), 2);
    }

    #[test]
    fn gradient_accumulation_and_reset() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(2, 2));
        store.accumulate_grad(w, &Tensor::ones(2, 2));
        store.accumulate_grad(w, &Tensor::ones(2, 2));
        assert_eq!(store.grad(w).get(0, 0), 2.0);
        assert!((store.grad_norm() - 4.0).abs() < 1e-6);
        store.zero_grad();
        assert_eq!(store.grad(w).get(0, 0), 0.0);
    }

    #[test]
    fn gradient_clipping() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        store.accumulate_grad(w, &Tensor::from_rows(&[&[3.0, 4.0]]));
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping below the max is a no-op.
        store.clip_grad_norm(10.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut store2 = ParamStore::new();
        let w2 = store2.add("w", Tensor::zeros(2, 2));
        store2.load_map(store.to_map()).unwrap();
        assert_eq!(store2.value(w2), store.value(w));
    }

    #[test]
    fn checkpoint_errors() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(2, 2));
        assert!(matches!(
            store.load_map(HashMap::new()),
            Err(NnError::MissingParameter(_))
        ));
        let mut other = ParamStore::new();
        other.add("w", Tensor::zeros(3, 3));
        assert!(matches!(
            store.load_map(other.to_map()),
            Err(NnError::ShapeMismatch { .. })
        ));
        // A [2, 2] header over one value: the shape matches, the data does not.
        let short: Tensor = serde_json::from_str(r#"{"rows":2,"cols":2,"data":[1.0]}"#).unwrap();
        let err = store
            .load_map(HashMap::from([("w".to_string(), short)]))
            .unwrap_err();
        assert_eq!(
            err,
            NnError::ShapeMismatch {
                name: "w".to_string(),
                expected: vec![4],
                got: vec![1],
            }
        );
    }
}
