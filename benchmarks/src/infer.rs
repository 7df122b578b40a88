//! `infer_large`: offline `InferenceSession::predict_into` cycling the five
//! Table III designs. One operation = one design predicted.

use crate::inputs::{self, DesignSpec, HUGE_DESIGN, INFER_POOL};
use crate::phase::{OpSample, Phase, PhaseClock};
use crate::serve::{bits_equal, default_engine, probs_in_range};
use crate::spans::Tracer;
use deepgate::{Engine, InferenceSession, LargeDesignSource, PreparedCircuit};
use std::time::{Duration, Instant};

/// Limit of `within_limit_share`: 150 µs per graph node.
pub fn limit_s(nodes: u64) -> f64 {
    nodes as f64 * 150e-6
}

/// A pool design, planned and with its first prediction kept as the
/// reference every later prediction of it must equal bit for bit.
pub struct PoolDesign {
    /// The design and scale.
    pub spec: DesignSpec,
    /// The planned circuit.
    pub prepared: PreparedCircuit,
    /// First prediction (empty until the warm-up ran).
    pub reference: Vec<f32>,
}

impl PoolDesign {
    /// Graph nodes.
    pub fn nodes(&self) -> usize {
        self.prepared.circuit().num_nodes
    }
}

/// Everything `infer_large` measures with.
pub struct InferState {
    seed: u64,
    /// The engine (kept for the probes).
    pub engine: Engine,
    /// The session under test.
    pub session: InferenceSession,
    /// The five planned designs.
    pub pool: Vec<PoolDesign>,
    /// The 83k-node design: ingested and planned in set-up (that cost is
    /// what `setup_s` and `peak_rss_mb` see), predicted only by the probes.
    pub huge: PreparedCircuit,
    out: Vec<f32>,
    cycle: u64,
}

/// Ingests and plans one design through the public serving ingest.
pub fn prepare_design(
    engine: &Engine,
    session: &InferenceSession,
    spec: DesignSpec,
) -> PreparedCircuit {
    let graph = engine
        .prepare_unlabelled(&LargeDesignSource::new(spec.design, spec.scale))
        .expect("generated designs ingest")
        .pop()
        .expect("one design per source");
    session.prepare(graph)
}

impl InferState {
    /// Cold start to ready-to-measure: engine, session, the pool and the
    /// 10^5-node design generated, ingested and planned.
    pub fn start(seed: u64) -> InferState {
        let engine = default_engine();
        let session = engine.session();
        let pool = INFER_POOL
            .iter()
            .map(|&spec| PoolDesign {
                spec,
                prepared: prepare_design(&engine, &session, spec),
                reference: Vec::new(),
            })
            .collect();
        let huge = prepare_design(&engine, &session, HUGE_DESIGN);
        InferState {
            seed,
            engine,
            session,
            pool,
            huge,
            out: Vec::new(),
            cycle: 0,
        }
    }

    /// Graph nodes of one pass over the pool.
    pub fn pool_nodes(&self) -> usize {
        self.pool.iter().map(PoolDesign::nodes).sum()
    }

    /// Predicts every design once, untimed, and keeps the outputs as the
    /// references. Returns whether every output was well-formed.
    pub fn warm_up(&mut self) -> bool {
        let mut fine = true;
        for design in &mut self.pool {
            self.session
                .predict_into(&design.prepared, &mut self.out)
                .expect("pool designs predict");
            fine &= self.out.len() == design.nodes() && probs_in_range(&self.out);
            design.reference = self.out.clone();
        }
        fine
    }

    /// Predicts designs in seeded order until `duration` is over; always
    /// finishes the operation in flight. Each operation is one
    /// `engine.session.predict_into` span when traced.
    pub fn run_phase(&mut self, duration: Duration, tracer: &mut Tracer) -> Phase {
        let clock = PhaseClock::start();
        let epoch = clock.epoch;
        let mut phase = Phase::default();
        let mut op_id = 0u64;
        'cycles: loop {
            let order = inputs::infer_order(self.seed, self.cycle, self.pool.len());
            self.cycle += 1;
            for index in order {
                if epoch.elapsed() >= duration {
                    break 'cycles;
                }
                let design = &self.pool[index];
                let out = &mut self.out;
                let session = &self.session;
                let start = Instant::now();
                let result = tracer.span("engine.session.predict_into", op_id, |_| {
                    session.predict_into(&design.prepared, out)
                });
                let seconds = start.elapsed().as_secs_f64();
                op_id += 1;
                let ok = match result {
                    Ok(()) => {
                        let same = bits_equal(out, &design.reference);
                        if !same && phase.failures.len() < 8 {
                            phase.failures.push(format!(
                                "{}: prediction differs from its first run",
                                design.spec.name
                            ));
                        }
                        same
                    }
                    Err(e) => {
                        if phase.failures.len() < 8 {
                            phase.failures.push(format!("{}: {e}", design.spec.name));
                        }
                        false
                    }
                };
                phase.ops.push(OpSample {
                    start_s: start.duration_since(epoch).as_secs_f64(),
                    seconds,
                    nodes: design.nodes() as u64,
                    ok,
                });
            }
        }
        clock.finish(&mut phase);
        phase
    }
}
