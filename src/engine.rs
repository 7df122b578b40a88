//! The [`Engine`]: one coherent surface over dataset preparation, training,
//! evaluation, checkpointing and inference.

use crate::fan_out::fan_out;
use crate::{CircuitSource, DeepGateError, EngineMetrics, InferenceSession};
use deepgate_aig::{opt, Aig};
use deepgate_core::{
    average_prediction_error, DeepGate, DeepGateConfig, Trainer, TrainerConfig, TrainingHistory,
};
use deepgate_dataset::labelled_circuit_from_netlist;
use deepgate_gnn::{check_encoding, CircuitGraph, FeatureEncoding, ProbabilityModel};
use deepgate_netlist::Netlist;
use deepgate_nn::Tensor;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Labelling and transformation settings shared by every circuit the engine
/// prepares.
#[derive(Debug, Clone, Copy)]
struct PipelineConfig {
    num_patterns: usize,
    label_seed: u64,
    transform_to_aig: bool,
}

impl PipelineConfig {
    /// One netlist through the pipeline: AIG transformation and optimisation
    /// (when configured), then graph encoding — labelled by simulation under
    /// `label_seed` when one is given. A successful ingest records its time
    /// in `ingest_ns`.
    fn ingest(
        self,
        netlist: &Netlist,
        label_seed: Option<u64>,
        metrics: Option<&EngineMetrics>,
    ) -> Result<CircuitGraph, DeepGateError> {
        let start = metrics.map(|_| Instant::now());
        let aig_netlist;
        let (netlist, encoding) = if self.transform_to_aig {
            aig_netlist = opt::optimize(&Aig::from_netlist(netlist)?, 2).to_netlist();
            (&aig_netlist, FeatureEncoding::AigGates)
        } else {
            (netlist, FeatureEncoding::AllGates)
        };
        let graph = match label_seed {
            Some(seed) => {
                labelled_circuit_from_netlist(netlist, encoding, self.num_patterns, seed)?
            }
            None => CircuitGraph::from_netlist(netlist, encoding, None),
        };
        if let (Some(m), Some(start)) = (metrics, start) {
            m.ingest_ns.record_duration(start.elapsed());
        }
        Ok(graph)
    }
}

/// Builder for an [`Engine`].
///
/// ```rust
/// use deepgate::{Engine, EngineBuilder};
/// use deepgate::core::DeepGateConfig;
///
/// let engine = Engine::builder()
///     .model(DeepGateConfig { hidden_dim: 16, num_iterations: 2, ..DeepGateConfig::default() })
///     .num_patterns(1024)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(engine.model_config().hidden_dim, 16);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    model: DeepGateConfig,
    trainer: TrainerConfig,
    pipeline: PipelineConfig,
    checkpoint_json: Option<String>,
    metrics: Option<Arc<EngineMetrics>>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            model: DeepGateConfig::default(),
            trainer: TrainerConfig::default(),
            pipeline: PipelineConfig {
                num_patterns: 8_192,
                label_seed: 7,
                transform_to_aig: true,
            },
            checkpoint_json: None,
            metrics: None,
        }
    }
}

impl EngineBuilder {
    /// Creates a builder with the paper's defaults.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Sets the model hyper-parameters (ignored when restoring from a
    /// checkpoint, which carries its own configuration).
    pub fn model(mut self, config: DeepGateConfig) -> Self {
        self.model = config;
        self
    }

    /// Sets the training hyper-parameters.
    pub fn trainer(mut self, config: TrainerConfig) -> Self {
        self.trainer = config;
        self
    }

    /// Sets the number of random simulation patterns used to label every
    /// circuit (default 8192).
    pub fn num_patterns(mut self, patterns: usize) -> Self {
        self.pipeline.num_patterns = patterns;
        self
    }

    /// Sets the labelling seed (default 7).
    pub fn label_seed(mut self, seed: u64) -> Self {
        self.pipeline.label_seed = seed;
        self
    }

    /// Selects whether circuits are normalised to AIG form before learning
    /// (default `true`, the DeepGate flow; `false` reproduces the Table IV
    /// ablation on raw gate types).
    pub fn transform_to_aig(mut self, transform: bool) -> Self {
        self.pipeline.transform_to_aig = transform;
        self
    }

    /// Attaches telemetry: every circuit the engine prepares and every
    /// planned prediction its sessions run records stage timings into the
    /// given [`EngineMetrics`] handles (see [`crate::telemetry`]). Without
    /// this the engine records nothing.
    pub fn metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Restores model weights and configuration from a checkpoint produced
    /// by [`Engine::checkpoint_json`].
    pub fn from_checkpoint_json(mut self, json: impl Into<String>) -> Self {
        self.checkpoint_json = Some(json.into());
        self
    }

    /// Restores model weights and configuration from a checkpoint file
    /// written by [`Engine::save_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Io`] if the file cannot be read.
    pub fn from_checkpoint_file(self, path: impl AsRef<Path>) -> Result<Self, DeepGateError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| DeepGateError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(self.from_checkpoint_json(json))
    }

    /// Validates the configuration and constructs the engine.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Config`] for inconsistent settings and
    /// [`DeepGateError::Nn`] for malformed checkpoints.
    pub fn build(self) -> Result<Engine, DeepGateError> {
        if self.pipeline.num_patterns == 0 {
            return Err(DeepGateError::Config(
                "num_patterns must be at least 1".to_string(),
            ));
        }
        let (model, origin) = match self.checkpoint_json {
            Some(json) => (DeepGate::from_checkpoint(&json)?, "checkpoint "),
            None => (DeepGate::new(self.model), ""),
        };
        // The same checks whichever origin the configuration came from.
        let config = model.config();
        let (expected_dim, flow) = if self.pipeline.transform_to_aig {
            (FeatureEncoding::AigGates.dimension(), "AIG")
        } else {
            (FeatureEncoding::AllGates.dimension(), "raw-netlist")
        };
        let problem = if config.hidden_dim == 0 {
            "hidden_dim must be at least 1".to_string()
        } else if config.num_iterations == 0 {
            "num_iterations must be at least 1".to_string()
        } else if config.feature_dim != expected_dim {
            format!(
                "feature_dim {} does not match the {flow} pipeline (expected {expected_dim})",
                config.feature_dim
            )
        } else {
            return Ok(Engine {
                model,
                trainer: self.trainer,
                pipeline: self.pipeline,
                metrics: self.metrics,
            });
        };
        Err(DeepGateError::Config(format!("{origin}{problem}")))
    }
}

/// The unified DeepGate engine: circuit ingestion, labelling, training,
/// evaluation, checkpointing and inference behind one API.
///
/// Construct it with [`Engine::builder`]; feed it circuits through any
/// [`CircuitSource`]; hand the trained model to an [`InferenceSession`] for
/// batched serving.
#[derive(Debug)]
pub struct Engine {
    model: DeepGate,
    trainer: TrainerConfig,
    pipeline: PipelineConfig,
    metrics: Option<Arc<EngineMetrics>>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Restores an engine (default pipeline settings) from a checkpoint file
    /// written by [`Engine::save_checkpoint`] — the one-call loading path of
    /// the `deepgate-serve` CLI.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Io`] if the file cannot be read,
    /// [`DeepGateError::Nn`] for malformed checkpoints and
    /// [`DeepGateError::Config`] if the checkpoint does not fit the default
    /// (AIG-transforming) pipeline.
    pub fn from_checkpoint_file(path: impl AsRef<Path>) -> Result<Engine, DeepGateError> {
        Engine::builder().from_checkpoint_file(path)?.build()
    }

    /// The model hyper-parameters.
    pub fn model_config(&self) -> DeepGateConfig {
        self.model.config()
    }

    /// The training hyper-parameters.
    pub fn trainer_config(&self) -> TrainerConfig {
        self.trainer
    }

    /// The underlying model (weights included).
    pub fn model(&self) -> &DeepGate {
        &self.model
    }

    /// Attaches (or replaces) the telemetry handles after construction —
    /// the serving layer registers its registry once and hands the engine
    /// its slice of it. Sessions opened *after* this call inherit the
    /// handles.
    pub fn set_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The attached telemetry handles, if any.
    pub fn engine_metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// Ingests circuits from a source and prepares them for learning:
    /// (optional) AIG transformation and optimisation, signal-probability
    /// labelling by logic simulation, and circuit-graph encoding. Circuits
    /// are prepared one after another in input order; the labelling of a
    /// circuit large enough to pay for a thread (nodes × pattern rows, see
    /// `deepgate_sim::SignalProbability`) spreads its rows across the cores,
    /// and a small one runs on the caller.
    ///
    /// # Errors
    ///
    /// Propagates source, AIG and simulation errors as [`DeepGateError`].
    pub fn prepare(&self, source: &dyn CircuitSource) -> Result<Vec<CircuitGraph>, DeepGateError> {
        let netlists = source.netlists()?;
        let pipeline = self.pipeline;
        let metrics = self.metrics.as_deref();
        netlists
            .iter()
            .enumerate()
            .map(|(index, netlist)| {
                let seed = pipeline.label_seed ^ ((index as u64 + 1) << 20);
                pipeline.ingest(netlist, Some(seed), metrics)
            })
            .collect()
    }

    /// Ingests circuits from a source for *serving*: the same (optional) AIG
    /// transformation, optimisation and graph encoding as [`Engine::prepare`],
    /// but without the simulation labelling pass — predictions do not need
    /// labels, and skipping simulation keeps request preparation cheap. This
    /// is the ingestion path of the `deepgate-serve` subsystem. Several
    /// circuits are ingested side by side, one per core; results keep input
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates source and AIG errors as [`DeepGateError`] — the first in
    /// input order.
    pub fn prepare_unlabelled(
        &self,
        source: &dyn CircuitSource,
    ) -> Result<Vec<CircuitGraph>, DeepGateError> {
        let netlists = source.netlists()?;
        let pipeline = self.pipeline;
        let metrics = self.metrics.as_deref();
        fan_out(&netlists, |netlist| pipeline.ingest(netlist, None, metrics))
    }

    /// Trains the model on prepared circuits (fresh Adam state per call),
    /// evaluating on `valid` per the trainer configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] for unlabelled or incompatible
    /// circuits — both checked before any optimiser step runs, so the model
    /// weights are untouched on error.
    pub fn train(
        &mut self,
        train: &[CircuitGraph],
        valid: &[CircuitGraph],
    ) -> Result<TrainingHistory, DeepGateError> {
        // The trainer pre-checks labels; the encoding check needs the model
        // configuration, so it lives here — also before any step runs.
        let feature_dim = self.model.config().feature_dim;
        for circuit in train.iter().chain(valid) {
            check_encoding(circuit, feature_dim)?;
        }
        let inner = self.model.model().clone();
        let mut trainer = Trainer::new(self.trainer);
        Ok(trainer.train(&inner, self.model.store_mut(), train, valid)?)
    }

    /// Convenience: [`Engine::prepare`] then [`Engine::train`] on everything
    /// the source yields (no validation split).
    ///
    /// # Errors
    ///
    /// Propagates preparation and training errors.
    pub fn fit(&mut self, source: &dyn CircuitSource) -> Result<TrainingHistory, DeepGateError> {
        let circuits = self.prepare(source)?;
        if circuits.is_empty() {
            return Err(DeepGateError::EmptyBatch);
        }
        self.train(&circuits, &[])
    }

    /// Average prediction error (Eq. 8) over labelled circuits.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] for unlabelled or incompatible
    /// circuits.
    pub fn evaluate(&self, circuits: &[CircuitGraph]) -> Result<f64, DeepGateError> {
        Ok(average_prediction_error(
            &self.model,
            self.model.store(),
            circuits,
        )?)
    }

    /// Predicts per-node signal probabilities for one circuit.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] if the circuit's feature encoding does
    /// not match the model.
    pub fn predict(&self, circuit: &CircuitGraph) -> Result<Vec<f32>, DeepGateError> {
        Ok(self.model.try_predict(self.model.store(), circuit)?)
    }

    /// Returns the learned per-gate embeddings `h_v^T` of a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Gnn`] if the circuit's feature encoding does
    /// not match the model.
    pub fn embeddings(&self, circuit: &CircuitGraph) -> Result<Tensor, DeepGateError> {
        let (dag, store) = (self.model.model(), self.model.store());
        check_encoding(circuit, dag.config().feature_dim)?;
        let iterations = dag.config().num_iterations;
        Ok(dag.embed_planned(store, &dag.plan(circuit), iterations)?)
    }

    /// Serialises the model (configuration + weights) to a JSON checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Nn`] if serialisation fails.
    pub fn checkpoint_json(&self) -> Result<String, DeepGateError> {
        Ok(self.model.to_checkpoint()?)
    }

    /// Writes the checkpoint to a file.
    ///
    /// # Errors
    ///
    /// Returns [`DeepGateError::Nn`] for serialisation failures and
    /// [`DeepGateError::Io`] for filesystem failures.
    pub fn save_checkpoint(&self, path: impl AsRef<Path>) -> Result<(), DeepGateError> {
        let path = path.as_ref();
        let json = self.checkpoint_json()?;
        std::fs::write(path, json).map_err(|e| DeepGateError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Opens an inference session over a clone of the current weights (the
    /// engine stays available for further training). The session inherits
    /// the engine's telemetry handles.
    pub fn session(&self) -> InferenceSession {
        let session = InferenceSession::new(self.model.clone());
        match &self.metrics {
            Some(metrics) => session.with_metrics(Arc::clone(metrics)),
            None => session,
        }
    }

    /// Consumes the engine into an inference session without cloning the
    /// weights. The session inherits the engine's telemetry handles.
    pub fn into_session(self) -> InferenceSession {
        let session = InferenceSession::new(self.model);
        match self.metrics {
            Some(metrics) => session.with_metrics(metrics),
            None => session,
        }
    }
}
