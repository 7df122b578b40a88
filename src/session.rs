//! [`InferenceSession`] — the batched, allocation-reusing serving hot path.

use crate::fan_out::fan_out;
use crate::{DeepGateError, EngineMetrics};
use deepgate_core::DeepGate;
use deepgate_gnn::{check_encoding, CircuitGraph, InferencePlan};
use std::sync::Arc;
use std::time::Instant;

/// A circuit packaged with its precomputed [`InferencePlan`], ready for
/// repeated low-overhead prediction (see [`InferenceSession::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedCircuit {
    circuit: CircuitGraph,
    plan: InferencePlan,
}

impl PreparedCircuit {
    /// The wrapped circuit graph.
    pub fn circuit(&self) -> &CircuitGraph {
        &self.circuit
    }
}

/// A serving session: a model snapshot plus reusable inference state.
///
/// The session owns the model — its one copy of the weights, cloned from
/// the [`crate::Engine`] or moved out of it — so it is `Send + Sync` and can
/// be shared across serving threads. The CSR kernel reads those weights in
/// place out of the model's `ParamStore`. Three mechanisms keep the hot path
/// fast:
///
/// 1. **Parallel fan-out** — a batch is a list of independent circuits;
///    [`InferenceSession::predict_batch`] runs them side by side, one
///    scoped thread per core, each on its own plan.
/// 2. **Plan and buffer reuse** — the CSR arena layout ([`InferencePlan`])
///    is compiled once per circuit and reused across all `T` iterations;
///    [`InferenceSession::prepare`] / [`InferenceSession::prepare_batch`]
///    pin plans across calls and [`InferenceSession::predict_into`] writes
///    into a caller-owned buffer, so a steady-state serving loop performs no
///    per-request plan rebuilds.
/// 3. **Split levels** — one prediction of a circuit with 2 048 nodes or
///    more starts one helper thread and cuts each level of 4 rows or more
///    in half between it and the calling thread. A half the helper has not
///    claimed when the caller is done with its own, the caller runs itself,
///    so a batch's fan-out or a second serving worker on the same cores
///    never waits on a helper that is not running. The output bits are
///    those of one thread.
///
/// There is one scoring mode: the kernel's probabilities are bit-identical
/// to the training forward (`ProbabilityModel::try_forward`), which
/// `crates/gnn/tests/csr_parity.rs` holds it to. Every prediction runs the
/// model's own `num_iterations` recurrence steps; a sweep over `T` (the
/// paper's Section IV-D2) calls `DagRecGnn::predict_planned` with each `T`
/// directly.
#[derive(Debug)]
pub struct InferenceSession {
    model: DeepGate,
    metrics: Option<Arc<EngineMetrics>>,
}

impl InferenceSession {
    /// Wraps a model in a session.
    pub fn new(model: DeepGate) -> Self {
        InferenceSession {
            model,
            metrics: None,
        }
    }

    /// Attaches telemetry: plan builds and every planned prediction record
    /// stage timings into the given [`EngineMetrics`] handles. Sessions
    /// opened via [`crate::Engine::session`] inherit the engine's handles
    /// automatically.
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The underlying model.
    pub fn model(&self) -> &DeepGate {
        &self.model
    }

    /// Precomputes a circuit's reusable inference state.
    pub fn prepare(&self, circuit: CircuitGraph) -> PreparedCircuit {
        let plan_start = self.metrics.as_ref().map(|_| Instant::now());
        let plan = self.model.model().plan(&circuit);
        if let (Some(m), Some(start)) = (self.metrics.as_deref(), plan_start) {
            m.plan_ns.record_duration(start.elapsed());
        }
        PreparedCircuit { circuit, plan }
    }

    /// Prepares every circuit of a batch ([`InferenceSession::prepare`],
    /// side by side, one scoped thread per core) — the setup step of the
    /// steady-state serving loop.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::EmptyBatch`] for an empty batch.
    pub fn prepare_batch(
        &self,
        circuits: &[CircuitGraph],
    ) -> Result<Vec<PreparedCircuit>, DeepGateError> {
        if circuits.is_empty() {
            return Err(DeepGateError::EmptyBatch);
        }
        fan_out(circuits, |circuit| Ok(self.prepare(circuit.clone())))
    }

    /// Predicts per-node signal probabilities for one circuit.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] if the circuit's feature encoding does
    /// not match the model.
    pub fn predict(&self, circuit: &CircuitGraph) -> Result<Vec<f32>, DeepGateError> {
        let plan = self.model.model().plan(circuit);
        let mut out = Vec::new();
        self.predict_planned_into(circuit, &plan, &mut out)?;
        Ok(out)
    }

    /// Predicts one prepared circuit into a caller-owned buffer (cleared
    /// first) — the minimal-allocation single-request path.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] if the circuit's feature encoding does
    /// not match the model.
    pub fn predict_into(
        &self,
        prepared: &PreparedCircuit,
        out: &mut Vec<f32>,
    ) -> Result<(), DeepGateError> {
        self.predict_planned_into(&prepared.circuit, &prepared.plan, out)
    }

    /// Predicts a batch of circuits side by side, one scoped thread per
    /// core: each circuit is prepared, then predicted through
    /// [`InferenceSession::predict_into`] on its own plan. Returns one
    /// probability vector per circuit, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::EmptyBatch`] for an empty batch and
    /// [`DeepGateError::Gnn`] if any circuit is incompatible with the model
    /// — the first in input order.
    pub fn predict_batch(&self, circuits: &[CircuitGraph]) -> Result<Vec<Vec<f32>>, DeepGateError> {
        if circuits.is_empty() {
            return Err(DeepGateError::EmptyBatch);
        }
        fan_out(circuits, |circuit| {
            let mut out = Vec::new();
            self.predict_into(&self.prepare(circuit.clone()), &mut out)
                .map(|()| out)
        })
    }

    fn predict_planned_into(
        &self,
        circuit: &CircuitGraph,
        plan: &InferencePlan,
        out: &mut Vec<f32>,
    ) -> Result<(), DeepGateError> {
        // A plan is always built from its own circuit; the kernel checks it
        // against the model (`PlanMismatch`). The circuit-level check, and
        // its error, stay here.
        check_encoding(circuit, self.model.config().feature_dim)?;
        let metrics = self.metrics.as_deref();
        let predict_start = metrics.map(|_| Instant::now());
        let (model, store) = (self.model.model(), self.model.store());
        let iterations = self.model.config().num_iterations;
        model.predict_planned(store, plan, iterations, out, metrics.map(|m| &m.gnn))?;
        if let (Some(m), Some(start)) = (metrics, predict_start) {
            m.predict_ns.record_duration(start.elapsed());
        }
        Ok(())
    }
}
