//! `train_epoch`: one operation = `Engine::train(set, &[])` with
//! `epochs: 1`. The weights carry over from call to call, so the loss must
//! fall over the phase; the optimiser state is fresh per call, as the
//! facade defines.

use crate::inputs::INFER_POOL;
use crate::phase::{OpSample, Phase, PhaseClock};
use crate::spans::Tracer;
use deepgate::core::TrainerConfig;
use deepgate::dataset::SuiteKind;
use deepgate::gnn::CircuitGraph;
use deepgate::{Engine, LargeDesignSource, SuiteSource};
use std::time::{Duration, Instant};

/// Simulation patterns per circuit — the paper's labelling budget.
pub const NUM_PATTERNS: usize = 15_000;

/// Limit of `within_limit_share`: 2 ms per node of the training set.
pub fn limit_s(set_nodes: u64) -> f64 {
    set_nodes as f64 * 2e-3
}

/// How many of the labelled `infer_large` designs the end check evaluates:
/// the two smallest (arbiter@1.0 and 80386@1.0, ~7.4k nodes). Set-up labels
/// all five; evaluating all five would add 2.7 s to every run.
pub const EVAL_DESIGNS: usize = 2;

/// Everything `train_epoch` measures with.
pub struct TrainState {
    /// The engine whose weights the phase trains.
    pub engine: Engine,
    /// The training set: eight EPFL-style designs at scale 0.25.
    pub set: Vec<CircuitGraph>,
    /// The `infer_large` pool, labelled; the end check evaluates the first
    /// [`EVAL_DESIGNS`] of it.
    pub eval_pool: Vec<CircuitGraph>,
    /// Mean training loss of every epoch run so far, in order.
    pub losses: Vec<f64>,
}

/// The training-set source. Its generator seed is fixed: the workload seed
/// must not change how much work an epoch is.
pub fn train_source() -> SuiteSource {
    SuiteSource::new(SuiteKind::Epfl, 8)
        .seed(7)
        .size_scale(0.25)
}

impl TrainState {
    /// Cold start to ready-to-measure — the paper's dataset pipeline (AIG
    /// transform → optimise → simulate → encode) over the training set and
    /// the evaluation designs. The workload seed picks the simulation
    /// patterns and the epoch shuffle.
    pub fn start(seed: u64) -> TrainState {
        let engine = Engine::builder()
            .num_patterns(NUM_PATTERNS)
            .label_seed(seed)
            .trainer(TrainerConfig {
                epochs: 1,
                shuffle_seed: seed,
                ..TrainerConfig::default()
            })
            .build()
            .expect("the default configuration is valid");
        let set = engine
            .prepare(&train_source())
            .expect("suite designs prepare");
        let eval_pool = INFER_POOL
            .iter()
            .map(|spec| {
                engine
                    .prepare(&LargeDesignSource::new(spec.design, spec.scale))
                    .expect("large designs prepare")
                    .pop()
                    .expect("one design per source")
            })
            .collect();
        TrainState {
            engine,
            set,
            eval_pool,
            losses: Vec::new(),
        }
    }

    /// Graph nodes of the training set (the work of one epoch).
    pub fn set_nodes(&self) -> u64 {
        self.set.iter().map(|c| c.num_nodes as u64).sum()
    }

    fn epoch(&mut self) -> Result<f64, String> {
        let history = self
            .engine
            .train(&self.set, &[])
            .map_err(|e| e.to_string())?;
        let loss = history
            .final_train_loss()
            .ok_or_else(|| "training returned no epoch".to_string())?;
        self.losses.push(loss);
        if loss.is_finite() {
            Ok(loss)
        } else {
            Err(format!("loss is {loss}"))
        }
    }

    /// Runs `epochs` untimed epochs (their losses still count: epoch 1 of
    /// the loss check is the very first update).
    pub fn warm_up(&mut self, epochs: usize) {
        for _ in 0..epochs {
            let _ = self.epoch();
        }
    }

    /// Runs whole epochs until `duration` is over. Each is one
    /// `engine.train` span when traced.
    pub fn run_phase(&mut self, duration: Duration, tracer: &mut Tracer) -> Phase {
        let clock = PhaseClock::start();
        let epoch = clock.epoch;
        let nodes = self.set_nodes();
        let mut phase = Phase::default();
        let mut op_id = 0u64;
        while epoch.elapsed() < duration {
            let start = Instant::now();
            let result = tracer.span("engine.train", op_id, |_| self.epoch());
            let seconds = start.elapsed().as_secs_f64();
            op_id += 1;
            if let Err(message) = &result {
                if phase.failures.len() < 8 {
                    phase.failures.push(message.clone());
                }
            }
            phase.ops.push(OpSample {
                start_s: start.duration_since(epoch).as_secs_f64(),
                seconds,
                nodes,
                ok: result.is_ok(),
            });
        }
        clock.finish(&mut phase);
        phase
    }
}
