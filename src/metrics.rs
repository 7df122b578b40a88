//! [`EngineMetrics`] — telemetry handles for the engine facade's
//! preparation and inference stages.

use deepgate_gnn::GnnMetrics;
use deepgate_telemetry::{Histogram, Registry};
use std::sync::Arc;

/// Shared handles to the engine-stage metric series.
///
/// Attach a set to an [`crate::Engine`] (builder
/// [`crate::EngineBuilder::metrics`] or [`crate::Engine::set_metrics`]) and
/// every circuit it ingests and every planned prediction its sessions run
/// records stage timings; without one the facade records nothing. All series
/// live in the [`Registry`] the set was registered in, so a serving layer
/// reads engine and scheduler telemetry from one snapshot.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Per-circuit ingestion wall time in nanoseconds (`engine_ingest_ns`):
    /// AIG transformation, optimisation and graph encoding — and, on the
    /// labelled path, simulation labelling.
    pub ingest_ns: Arc<Histogram>,
    /// Per-circuit inference-plan build wall time in nanoseconds
    /// (`engine_plan_ns`).
    pub plan_ns: Arc<Histogram>,
    /// Per-circuit planned-prediction wall time in nanoseconds
    /// (`engine_predict_ns`).
    pub predict_ns: Arc<Histogram>,
    /// The inference-kernel series (per-level aggregation time, regressor
    /// time, circuit size buckets) recorded beneath every prediction.
    pub gnn: GnnMetrics,
}

impl EngineMetrics {
    /// Registers the engine's series in `registry` (get-or-create).
    pub fn registered(registry: &Registry) -> Self {
        EngineMetrics {
            ingest_ns: registry.histogram("engine_ingest_ns"),
            plan_ns: registry.histogram("engine_plan_ns"),
            predict_ns: registry.histogram("engine_predict_ns"),
            gnn: GnnMetrics::registered(registry),
        }
    }
}
