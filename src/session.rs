//! [`InferenceSession`] — the batched, allocation-reusing serving hot path.

use crate::{DeepGateError, EngineMetrics};
use deepgate_core::DeepGate;
use deepgate_gnn::{CircuitGraph, CompiledKernel, GnnError, InferencePlan};
use rayon::prelude::*;
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

    /// Unwraps the circuit graph, discarding the plan.
    pub fn into_circuit(self) -> CircuitGraph {
        self.circuit
    }
}

/// A batch of circuits fused for serving: disjoint-union graphs (one per
/// worker chunk) with their plans and the bookkeeping to split predictions
/// back out per circuit. Built once via [`InferenceSession::prepare_batch`],
/// reused across every [`InferenceSession::predict_batch_into`] call.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    chunks: Vec<BatchChunk>,
    num_circuits: usize,
}

#[derive(Debug, Clone)]
struct BatchChunk {
    union: CircuitGraph,
    plan: InferencePlan,
    /// Node count of each member circuit, in order.
    sizes: Vec<usize>,
}

impl PreparedBatch {
    /// Number of circuits in the batch.
    pub fn len(&self) -> usize {
        self.num_circuits
    }

    /// Returns `true` if the batch holds no circuits.
    pub fn is_empty(&self) -> bool {
        self.num_circuits == 0
    }
}

/// A serving session: a model snapshot plus reusable inference state.
///
/// The session owns its weights (cloned from the [`crate::Engine`] or moved
/// out of it), so it is `Send + Sync` and can be shared across serving
/// threads. Three mechanisms keep the hot path fast:
///
/// 1. **Graph fusion** — a batch is merged into per-worker disjoint-union
///    graphs ([`CircuitGraph::disjoint_union`]), so same-level nodes of
///    different circuits share one kernel level pass: `max(levels)`
///    dispatches per recurrence iteration instead of `sum(levels)`. This
///    wins even on a single core.
/// 2. **Parallel fan-out** — union chunks run rayon-parallel, one per
///    worker thread.
/// 3. **Plan, kernel and buffer reuse** — the CSR arena layout
///    ([`InferencePlan`]) is compiled once per circuit/union and reused
///    across all `T` iterations, the model's weights are baked once into a
///    [`CompiledKernel`]; [`InferenceSession::prepare`] /
///    [`InferenceSession::prepare_batch`] pin plans across calls, and the
///    `_into` variants write into caller-owned buffers, so a steady-state
///    serving loop performs no per-request plan or kernel rebuilds.
///
/// There is one scoring mode: the kernel's probabilities are bit-identical
/// to the training forward (`ProbabilityModel::try_forward`), which
/// `crates/gnn/tests/csr_parity.rs` holds it to.
#[derive(Debug)]
pub struct InferenceSession {
    model: DeepGate,
    iterations: usize,
    metrics: Option<Arc<EngineMetrics>>,
    kernel: CompiledKernel,
}

impl InferenceSession {
    /// Wraps a model in a session, baking the weights into a CSR kernel.
    pub fn new(model: DeepGate) -> Self {
        let iterations = model.config().num_iterations;
        let kernel = model.compile();
        InferenceSession {
            model,
            iterations,
            metrics: None,
            kernel,
        }
    }

    /// Overrides the recurrence iteration count `T` used at inference time
    /// (the paper's Section IV-D2 sweeps this without retraining).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// Attaches telemetry: plan builds, batch fusion and every planned
    /// prediction record stage timings into the given [`EngineMetrics`]
    /// handles. Sessions opened via [`crate::Engine::session`] inherit the
    /// engine's handles automatically.
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
        let plan = self.model.plan(&circuit);
        if let (Some(m), Some(start)) = (self.metrics.as_deref(), plan_start) {
            m.plan_ns.record_duration(start.elapsed());
        }
        PreparedCircuit { circuit, plan }
    }

    /// Fuses a batch into per-worker union graphs with precomputed plans —
    /// the setup step of the steady-state serving loop.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::EmptyBatch`] for an empty batch and
    /// [`DeepGateError::Gnn`] if the circuits do not share one feature
    /// encoding.
    pub fn prepare_batch(&self, circuits: &[CircuitGraph]) -> Result<PreparedBatch, DeepGateError> {
        let refs: Vec<&CircuitGraph> = circuits.iter().collect();
        self.prepare_batch_refs(&refs)
    }

    /// [`InferenceSession::prepare_batch`] over borrowed circuits — the
    /// serving layer batches cached `Arc<CircuitGraph>`s without cloning
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::EmptyBatch`] for an empty batch and
    /// [`DeepGateError::Gnn`] if the circuits do not share one feature
    /// encoding.
    pub fn prepare_batch_refs(
        &self,
        circuits: &[&CircuitGraph],
    ) -> Result<PreparedBatch, DeepGateError> {
        if circuits.is_empty() {
            return Err(DeepGateError::EmptyBatch);
        }
        let chunk_size = circuits.len().div_ceil(rayon::current_num_threads());
        let metrics = self.metrics.as_deref();
        let chunks: Result<Vec<BatchChunk>, DeepGateError> = circuits
            .chunks(chunk_size)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|chunk| {
                let fuse_start = metrics.map(|_| Instant::now());
                let (union, _) = CircuitGraph::disjoint_union(chunk)?;
                if let (Some(m), Some(start)) = (metrics, fuse_start) {
                    m.fuse_ns.record_duration(start.elapsed());
                }
                let plan_start = metrics.map(|_| Instant::now());
                let plan = self.model.plan(&union);
                if let (Some(m), Some(start)) = (metrics, plan_start) {
                    m.plan_ns.record_duration(start.elapsed());
                }
                Ok(BatchChunk {
                    plan,
                    union,
                    sizes: chunk.iter().map(|c| c.num_nodes).collect(),
                })
            })
            .collect();
        Ok(PreparedBatch {
            chunks: chunks?,
            num_circuits: circuits.len(),
        })
    }

    /// Predicts per-node signal probabilities for one circuit.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] if the circuit's feature encoding does
    /// not match the model.
    pub fn predict(&self, circuit: &CircuitGraph) -> Result<Vec<f32>, DeepGateError> {
        let plan = self.model.plan(circuit);
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

    /// Predicts a batch of circuits: circuits are fused into per-worker
    /// union graphs and the chunks run rayon-parallel. Returns one
    /// probability vector per circuit, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::EmptyBatch`] for an empty batch and
    /// [`DeepGateError::Gnn`] if any circuit is incompatible with the model.
    pub fn predict_batch(&self, circuits: &[CircuitGraph]) -> Result<Vec<Vec<f32>>, DeepGateError> {
        let prepared = self.prepare_batch(circuits)?;
        let mut out = Vec::new();
        self.predict_batch_into(&prepared, &mut out)?;
        Ok(out)
    }

    /// Predicts a prepared batch into caller-owned buffers — the
    /// steady-state serving hot path: no plan rebuilds, no union rebuilds,
    /// and `out`'s buffers keep their allocations across calls. `out` is
    /// resized to the batch length.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::EmptyBatch`] for an empty batch and
    /// [`DeepGateError::Gnn`] if any circuit is incompatible with the model.
    /// On error the contents of `out` are unspecified but safe to reuse.
    pub fn predict_batch_into(
        &self,
        prepared: &PreparedBatch,
        out: &mut Vec<Vec<f32>>,
    ) -> Result<(), DeepGateError> {
        if prepared.is_empty() {
            return Err(DeepGateError::EmptyBatch);
        }
        // Hand each chunk its slice of reusable output buffers.
        let mut buffers = std::mem::take(out);
        buffers.resize_with(prepared.num_circuits, Vec::new);
        let mut tasks: Vec<(&BatchChunk, Vec<Vec<f32>>)> =
            Vec::with_capacity(prepared.chunks.len());
        let mut rest = buffers;
        for chunk in &prepared.chunks {
            let tail = rest.split_off(chunk.sizes.len());
            tasks.push((chunk, rest));
            rest = tail;
        }
        let results: Result<Vec<Vec<Vec<f32>>>, DeepGateError> = tasks
            .into_par_iter()
            .map(|(chunk, mut outputs)| {
                let mut merged = Vec::new();
                self.predict_planned_into(&chunk.union, &chunk.plan, &mut merged)?;
                let mut offset = 0;
                for (size, buffer) in chunk.sizes.iter().zip(outputs.iter_mut()) {
                    buffer.clear();
                    buffer.extend_from_slice(&merged[offset..offset + size]);
                    offset += size;
                }
                Ok(outputs)
            })
            .collect();
        *out = results?.into_iter().flatten().collect();
        Ok(())
    }

    fn predict_planned_into(
        &self,
        circuit: &CircuitGraph,
        plan: &InferencePlan,
        out: &mut Vec<f32>,
    ) -> Result<(), DeepGateError> {
        // The kernel validates dimensions, not encodings — keep the
        // circuit-level check (and its error) here.
        let expected = self.model.config().feature_dim;
        let got = circuit.encoding.dimension();
        if got != expected {
            return Err(GnnError::EncodingMismatch { expected, got }.into());
        }
        if !plan.matches(circuit, self.model.model().config().edge_attr_dim()) {
            return Err(GnnError::PlanMismatch.into());
        }
        let metrics = self.metrics.as_deref();
        let predict_start = metrics.map(|_| Instant::now());
        self.kernel
            .predict_into(plan, self.iterations, out, metrics.map(|m| &m.gnn))?;
        if let (Some(m), Some(start)) = (metrics, predict_start) {
            m.predict_ns.record_duration(start.elapsed());
        }
        Ok(())
    }
}
