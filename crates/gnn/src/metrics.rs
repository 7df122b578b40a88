//! Telemetry handles for the GNN inference kernel.

use deepgate_telemetry::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Shared handles to the inference-kernel metric series.
///
/// The kernel ([`crate::DagRecGnn::predict_planned`]) records into these
/// when given a set; called with `None` it skips telemetry entirely, so
/// training and offline benchmarking pay nothing.
#[derive(Debug, Clone)]
pub struct GnnMetrics {
    /// Wall time of one level batch's aggregation (gather, attention or
    /// sum, message build), in nanoseconds (`gnn_level_agg_ns`). Forward and
    /// reverse batches both record here; with `gnn_level_gru_ns` this is
    /// the per-level cost profile of the recurrence. For a level split
    /// between the calling thread and its helper, this is the *caller's*
    /// aggregation of its half.
    pub level_agg_ns: Arc<Histogram>,
    /// Wall time of the same level batch's GRU update — five matvecs and
    /// the elementwise tail — in nanoseconds (`gnn_level_gru_ns`); one
    /// sample per level batch, like `gnn_level_agg_ns`. For a split level
    /// it is the rest of the caller's wall time — its GRU, the helper's
    /// half (waited for, or run by the caller itself) and the write-back —
    /// so agg + GRU still add up to the level's wall time.
    pub level_gru_ns: Arc<Histogram>,
    /// Wall time of the regressor head over the final embeddings, in
    /// nanoseconds (`gnn_regress_ns`).
    pub regress_ns: Arc<Histogram>,
    /// Circuit sizes (node counts) seen by the inference path
    /// (`gnn_circuit_nodes`) — the size-bucket profile of the workload.
    pub circuit_nodes: Arc<Histogram>,
    /// Total level batches processed across all iterations
    /// (`gnn_levels_total`).
    pub levels_total: Arc<Counter>,
    /// Target-node counts of the CSR kernel's level slices
    /// (`gnn_csr_level_width`) — the density profile of the packed layout;
    /// wide levels amortise the per-level dispatch, narrow ones do not.
    pub csr_level_width: Arc<Histogram>,
    /// Level batches cut in half between the calling thread and its helper
    /// (`gnn_levels_split_total`) — wide levels of large plans.
    pub levels_split_total: Arc<Counter>,
    /// Halves of split levels the calling thread ran itself because the
    /// helper had not claimed them, or there was none
    /// (`gnn_level_halves_reclaimed_total`). Near `gnn_levels_split_total`
    /// the second core did no work: it was busy elsewhere, or absent.
    pub level_halves_reclaimed_total: Arc<Counter>,
}

impl GnnMetrics {
    /// Registers the kernel's series in `registry` (get-or-create, so many
    /// models can share one registry).
    pub fn registered(registry: &Registry) -> Self {
        GnnMetrics {
            level_agg_ns: registry.histogram("gnn_level_agg_ns"),
            level_gru_ns: registry.histogram("gnn_level_gru_ns"),
            regress_ns: registry.histogram("gnn_regress_ns"),
            circuit_nodes: registry.histogram("gnn_circuit_nodes"),
            levels_total: registry.counter("gnn_levels_total"),
            csr_level_width: registry.histogram("gnn_csr_level_width"),
            levels_split_total: registry.counter("gnn_levels_split_total"),
            level_halves_reclaimed_total: registry.counter("gnn_level_halves_reclaimed_total"),
        }
    }
}
