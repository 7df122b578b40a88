//! The request scheduler: a bounded queue drained by worker threads, each
//! popping one request at a time and predicting it through
//! [`deepgate::InferenceSession::predict_into`].

use crate::fault::{panic_message, FaultPlan};
use crate::metrics::SchedulerMetrics;
use crate::poll::Waker;
use crate::{ServeConfig, ServeError};
use deepgate::telemetry::{Registry, Stage};
use deepgate::{InferenceSession, PreparedCircuit};
use serde::Serialize;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One terminal scheduler result addressed back to the event loop by the
/// opaque token its submission carried.
pub(crate) struct Completion {
    /// The token passed to [`Scheduler::submit_async`].
    pub token: u64,
    /// The job's one terminal result.
    pub result: Result<Vec<f32>, ServeError>,
}

/// The nonblocking response path: workers push completions here and wake
/// the event loop, which drains the queue on its next iteration. The push
/// side never blocks on anything but this short mutex, so inference is
/// never coupled to socket backpressure.
pub(crate) struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    pub fn new(waker: Waker) -> CompletionQueue {
        CompletionQueue {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Completions can be pushed from a panicking worker's unwind (the
    /// [`Reply`] drop guard), so a poisoned mutex is recovered rather than
    /// propagated — the queued `Vec` is always structurally valid.
    fn push(&self, token: u64, result: Result<Vec<f32>, ServeError>) {
        let mut queue = match self.queue.lock() {
            Ok(queue) => queue,
            Err(poisoned) => poisoned.into_inner(),
        };
        queue.push(Completion { token, result });
        drop(queue);
        self.waker.wake();
    }

    /// Takes every queued completion.
    pub fn drain(&self) -> Vec<Completion> {
        let mut queue = match self.queue.lock() {
            Ok(queue) => queue,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::take(&mut *queue)
    }

    pub fn is_empty(&self) -> bool {
        match self.queue.lock() {
            Ok(queue) => queue.is_empty(),
            Err(poisoned) => poisoned.into_inner().is_empty(),
        }
    }
}

/// How a job's terminal result travels back to its submitter: the
/// blocking mpsc channel of [`Scheduler::predict`], or a completion-queue
/// push that wakes the event loop. Exactly one terminal response per job
/// is guaranteed on both paths — the async variant's drop guard converts
/// a job dropped without a reply (a worker death even panic recovery
/// missed) into an explicit internal error, mirroring what a dropped
/// `Sender` signals to a blocking `recv`.
enum Reply {
    Sync(Sender<Result<Vec<f32>, ServeError>>),
    Async {
        token: u64,
        queue: Arc<CompletionQueue>,
        sent: AtomicBool,
    },
}

impl Reply {
    fn send(&self, result: Result<Vec<f32>, ServeError>) {
        match self {
            Reply::Sync(tx) => {
                let _ = tx.send(result);
            }
            Reply::Async { token, queue, sent } => {
                if !sent.swap(true, Ordering::SeqCst) {
                    queue.push(*token, result);
                }
            }
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Reply::Async { token, queue, sent } = self {
            if !sent.swap(true, Ordering::SeqCst) {
                queue.push(
                    *token,
                    Err(ServeError::Internal(
                        "worker dropped the response channel without responding".into(),
                    )),
                );
            }
        }
    }
}

/// One queued prediction request: the prepared circuit, the reply path its
/// result is routed back through, and the instant after which the answer is
/// worthless.
struct Job {
    circuit: Arc<PreparedCircuit>,
    respond: Reply,
    /// Expired jobs are shed when popped, before inference.
    deadline: Option<Instant>,
    /// When the job entered the queue (`scheduler_queue_wait_ns`).
    enqueued: Instant,
}

/// Scheduler counters, as reported by the `stats` wire verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchedulerStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with predictions.
    pub completed: u64,
    /// Requests answered with an engine error.
    pub failed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_overloaded: u64,
    /// Queued requests flushed with [`ServeError::ShuttingDown`] during
    /// drain (plus submissions after the drain began).
    pub rejected_shutdown: u64,
    /// Requests whose deadline expired before inference, shed when popped
    /// with [`ServeError::DeadlineExceeded`].
    pub deadline_shed: u64,
    /// Inferences that panicked and were converted to internal errors; the
    /// worker survived and kept draining.
    pub worker_panics_recovered: u64,
    /// Worker threads that died anyway and were replaced.
    pub worker_respawns: u64,
}

impl SchedulerStats {
    /// Derives the stats from a registry [`Snapshot`] — the server's
    /// one-snapshot `stats` path, so these values are consistent with every
    /// other series read from the same snapshot.
    ///
    /// [`Snapshot`]: deepgate::telemetry::Snapshot
    pub fn from_snapshot(snapshot: &deepgate::telemetry::Snapshot) -> Self {
        SchedulerStats {
            submitted: snapshot.counter("scheduler_submitted_total"),
            completed: snapshot.counter("scheduler_completed_total"),
            failed: snapshot.counter("scheduler_failed_total"),
            rejected_overloaded: snapshot.counter("scheduler_rejected_overloaded_total"),
            rejected_shutdown: snapshot.counter("scheduler_rejected_shutdown_total"),
            deadline_shed: snapshot.counter("scheduler_deadline_shed_total"),
            worker_panics_recovered: snapshot.counter("worker_panics_recovered_total"),
            worker_respawns: snapshot.counter("worker_respawns_total"),
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    session: InferenceSession,
    queue_depth: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
    metrics: SchedulerMetrics,
    faults: Option<Arc<FaultPlan>>,
    /// Handles of workers respawned after a thread death; joined (and
    /// re-drained, since a respawned worker can die too) during shutdown.
    respawned: Mutex<Vec<JoinHandle<()>>>,
}

/// The request scheduler: one job per worker.
///
/// Requests enter through [`Scheduler::submit`] into a bounded queue. Each
/// worker thread pops one request, predicts it on the plan it was cached
/// with and routes the result back to its submitter, so concurrent requests
/// share the cores one circuit per worker and no request ever waits for
/// others to arrive.
///
/// Backpressure is explicit: a full queue rejects with
/// [`ServeError::Overloaded`] rather than queueing unboundedly. Shutdown is
/// graceful: jobs already executing complete and respond, still-queued
/// requests are flushed with [`ServeError::ShuttingDown`], and
/// [`Scheduler::shutdown`] joins every worker.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `config.workers` workers over a session.
    ///
    /// `config.workers == 0` is allowed and starts none: requests queue up
    /// (and are rejected / flushed per the normal rules) without ever being
    /// served — useful for exercising backpressure and drain behaviour in
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `queue_depth` is 0.
    pub fn new(session: InferenceSession, config: &ServeConfig) -> Result<Scheduler, ServeError> {
        // Standalone schedulers (tests, embedding without a Server) get a
        // private registry; the Server shares one via `with_metrics`.
        Scheduler::with_metrics(
            session,
            config,
            SchedulerMetrics::registered(&Registry::new()),
        )
    }

    /// [`Scheduler::new`] recording into externally registered telemetry
    /// handles, so the scheduler's series share a registry (and therefore a
    /// snapshot) with the rest of the serving stack.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `queue_depth` is 0.
    pub fn with_metrics(
        session: InferenceSession,
        config: &ServeConfig,
        metrics: SchedulerMetrics,
    ) -> Result<Scheduler, ServeError> {
        if config.queue_depth == 0 {
            return Err(ServeError::Config("queue_depth must be at least 1".into()));
        }
        let shared = Arc::new(Shared {
            session,
            queue_depth: config.queue_depth,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            metrics,
            faults: config.faults.clone(),
            respawned: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("deepgate-serve-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .map_err(|e| ServeError::Io(format!("spawning worker: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Scheduler {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The session the workers predict through.
    pub fn session(&self) -> &InferenceSession {
        &self.shared.session
    }

    /// Enqueues a prepared circuit with no deadline, returning the channel
    /// its result will arrive on.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] when the queue is full and
    /// [`ServeError::ShuttingDown`] once [`Scheduler::shutdown`] has begun.
    #[allow(clippy::type_complexity)]
    pub fn submit(
        &self,
        circuit: Arc<PreparedCircuit>,
    ) -> Result<Receiver<Result<Vec<f32>, ServeError>>, ServeError> {
        self.submit_with_deadline(circuit, None)
    }

    /// [`Scheduler::submit`] with an optional deadline. A job still queued
    /// when its deadline passes is shed when popped — before any inference
    /// — and answered with [`ServeError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] when the queue is full and
    /// [`ServeError::ShuttingDown`] once [`Scheduler::shutdown`] has begun.
    #[allow(clippy::type_complexity)]
    pub fn submit_with_deadline(
        &self,
        circuit: Arc<PreparedCircuit>,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Result<Vec<f32>, ServeError>>, ServeError> {
        let (respond, receive) = mpsc::channel();
        self.enqueue(circuit, deadline, Reply::Sync(respond))?;
        Ok(receive)
    }

    /// The event loop's nonblocking submission path: on completion the
    /// result is pushed into `completions` under `token` and the loop's
    /// waker fires. Rejections (queue full, shutting down) are returned
    /// synchronously and push nothing — the caller answers inline.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] when the queue is full and
    /// [`ServeError::ShuttingDown`] once [`Scheduler::shutdown`] has begun.
    pub(crate) fn submit_async(
        &self,
        circuit: Arc<PreparedCircuit>,
        deadline: Option<Instant>,
        token: u64,
        completions: &Arc<CompletionQueue>,
    ) -> Result<(), ServeError> {
        self.enqueue(
            circuit,
            deadline,
            Reply::Async {
                token,
                queue: Arc::clone(completions),
                sent: AtomicBool::new(false),
            },
        )
    }

    fn enqueue(
        &self,
        circuit: Arc<PreparedCircuit>,
        deadline: Option<Instant>,
        respond: Reply,
    ) -> Result<(), ServeError> {
        {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            if !state.open {
                self.shared.metrics.rejected_shutdown.inc();
                // `respond` is dropped OUTSIDE the rejection: the caller
                // answers a synchronous Err, so the reply must not also
                // fire its drop-guard completion.
                return Err(self.defuse(respond, ServeError::ShuttingDown));
            }
            if state.jobs.len() >= self.shared.queue_depth {
                self.shared.metrics.rejected_overloaded.inc();
                return Err(self.defuse(
                    respond,
                    ServeError::Overloaded {
                        depth: self.shared.queue_depth,
                    },
                ));
            }
            state.jobs.push_back(Job {
                circuit,
                respond,
                deadline,
                enqueued: Instant::now(),
            });
            self.shared.metrics.queue_depth.inc();
        }
        self.shared.metrics.submitted.inc();
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Disarms a rejected reply so its drop guard stays silent — the
    /// submitter gets the rejection as the synchronous return value, not
    /// as a completion.
    fn defuse(&self, respond: Reply, error: ServeError) -> ServeError {
        if let Reply::Async { sent, .. } = &respond {
            sent.store(true, Ordering::SeqCst);
        }
        error
    }

    /// Submits and blocks until the result arrives — the blocking path for
    /// embedders and the benchmark. The server's event loop does not call
    /// it: it hands jobs over without blocking and is woken when the
    /// result is ready.
    ///
    /// # Errors
    ///
    /// Propagates [`Scheduler::submit`] rejections and any engine error the
    /// worker hit. A response channel dropped without a response — a worker
    /// died mid-job in a way even panic recovery missed — reports
    /// [`ServeError::Internal`]; a clean drain reports
    /// [`ServeError::ShuttingDown`] explicitly.
    pub fn predict(&self, circuit: Arc<PreparedCircuit>) -> Result<Vec<f32>, ServeError> {
        // Every terminal outcome arrives as an explicit message: worker
        // results and shutdown flushes. A bare RecvError means
        // the jobs were dropped without responding — a worker death that
        // even `catch_unwind` recovery missed — which is an internal fault,
        // NOT a clean shutdown; reporting it as such keeps real drains and
        // lost requests distinguishable to clients.
        self.submit(circuit)?.recv().unwrap_or_else(|_| {
            Err(ServeError::Internal(
                "worker dropped the response channel without responding".into(),
            ))
        })
    }

    /// Current counters (each read individually; the server's `stats` verb
    /// instead derives [`SchedulerStats`] from one registry snapshot via
    /// [`SchedulerStats::from_snapshot`]).
    pub fn stats(&self) -> SchedulerStats {
        let m = &self.shared.metrics;
        SchedulerStats {
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            rejected_overloaded: m.rejected_overloaded.get(),
            rejected_shutdown: m.rejected_shutdown.get(),
            deadline_shed: m.deadline_shed.get(),
            worker_panics_recovered: m.worker_panics_recovered.get(),
            worker_respawns: m.worker_respawns.get(),
        }
    }

    /// Requests queued right now.
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().expect("scheduler lock").jobs.len()
    }

    /// Graceful drain: closes the queue, answers every still-queued request
    /// with [`ServeError::ShuttingDown`], and joins the workers (which
    /// finish and respond to the jobs they already hold). Idempotent.
    pub fn shutdown(&self) {
        let flushed: Vec<Job> = {
            let mut state = self.shared.state.lock().expect("scheduler lock");
            state.open = false;
            state.jobs.drain(..).collect()
        };
        self.shared.not_empty.notify_all();
        self.shared.metrics.queue_depth.add(-(flushed.len() as i64));
        self.shared
            .metrics
            .rejected_shutdown
            .add(flushed.len() as u64);
        for job in flushed {
            job.respond.send(Err(ServeError::ShuttingDown));
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().expect("worker handles lock");
            guard.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
        // A worker that died and respawned registered its replacement in
        // `respawned` before its thread exited, so after joining the
        // originals every replacement is visible here. Replacements can die
        // and respawn too — drain until the list stays empty.
        loop {
            let respawned: Vec<JoinHandle<()>> = {
                let mut guard = self.shared.respawned.lock().expect("respawn handles lock");
                guard.drain(..).collect()
            };
            if respawned.is_empty() {
                break;
            }
            for worker in respawned {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Last line of defence under a worker-thread death: inference panics are
/// already caught and answered inside [`execute`], but if a panic escapes
/// anyway (a double panic, a poisoned invariant in the queue-popping path,
/// an injected fault outside the guarded region), this guard's drop —
/// which runs while the thread unwinds — spawns a replacement so the queue
/// never loses drain capacity.
struct RespawnGuard {
    shared: Arc<Shared>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return; // clean exit: the queue closed
        }
        if self.shared.state.is_poisoned() {
            // The panic happened while the queue lock was held: every
            // future worker would panic on the same poisoned lock, and
            // respawning would storm. Leave the scheduler broken (waiters
            // get Internal errors from their dropped channels) rather than
            // spin.
            return;
        }
        self.shared.metrics.worker_respawns.inc();
        let shared = Arc::clone(&self.shared);
        let index = self.index;
        // A spawn failure here would truly lose a worker, but must not
        // panic inside a drop-during-unwind (that would abort the process —
        // the opposite of resilience).
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("deepgate-serve-worker-{index}-respawn"))
            .spawn(move || worker_loop(shared, index))
        {
            self.shared
                .respawned
                .lock()
                .expect("respawn handles lock")
                .push(handle);
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let _guard = RespawnGuard {
        shared: Arc::clone(&shared),
        index,
    };
    while let Some(job) = next_job(&shared) {
        execute(&shared, job);
    }
}

/// Blocks for work and pops the oldest job, recording how long it queued.
/// Returns `None` once the queue is closed and empty.
fn next_job(shared: &Shared) -> Option<Job> {
    let mut state = shared.state.lock().expect("scheduler lock");
    loop {
        if let Some(job) = state.jobs.pop_front() {
            shared.metrics.queue_depth.dec();
            shared
                .metrics
                .queue_wait_ns
                .record_duration(job.enqueued.elapsed());
            return Some(job);
        }
        if !state.open {
            return None;
        }
        state = shared.not_empty.wait(state).expect("scheduler lock");
    }
}

/// Runs one job and sends its one terminal result.
///
/// An already-expired job is shed first — before any model work — with
/// [`ServeError::DeadlineExceeded`], so an overloaded scheduler spends its
/// inference budget only on requests someone is still waiting for.
/// Inference is guarded: a panic (model bug, injected fault) is caught and
/// answered with an internal error, and the worker keeps draining.
fn execute(shared: &Shared, job: Job) {
    let metrics = &shared.metrics;
    if matches!(job.deadline, Some(deadline) if Instant::now() >= deadline) {
        metrics.deadline_shed.inc();
        job.respond.send(Err(ServeError::DeadlineExceeded));
        return;
    }
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| infer(shared, &job.circuit)))
        .unwrap_or_else(|payload| {
            metrics.worker_panics_recovered.inc();
            Err(ServeError::Internal(format!(
                "worker panicked: {}",
                panic_message(payload.as_ref())
            )))
        });
    match result {
        Ok(_) => metrics.completed.inc(),
        Err(_) => metrics.failed.inc(),
    }
    job.respond.send(result);
}

/// The guarded body of [`execute`]: the infer-stage fault hook, then the
/// kernel on the circuit's cached plan.
fn infer(shared: &Shared, circuit: &PreparedCircuit) -> Result<Vec<f32>, ServeError> {
    // A panic here unwinds into `execute`'s catch_unwind, a delay stalls the
    // job (pushing queued requests toward their deadlines), an I/O fault
    // fails the job cleanly.
    if let Some(Err(fault)) = shared.faults.as_ref().map(|f| f.fire(Stage::Infer)) {
        return Err(ServeError::Internal(fault.to_string()));
    }
    let mut probs = Vec::new();
    shared.session.predict_into(circuit, &mut probs)?;
    Ok(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use deepgate::core::DeepGateConfig;
    use deepgate::{BenchText, Engine, EngineMetrics};
    use std::time::Duration;

    fn test_session() -> InferenceSession {
        Engine::builder()
            .model(DeepGateConfig {
                hidden_dim: 8,
                num_iterations: 2,
                regressor_hidden: 4,
                ..DeepGateConfig::default()
            })
            .build()
            .expect("valid configuration")
            .into_session()
    }

    /// Chains of distinct lengths, so per-circuit outputs are
    /// distinguishable by length and value.
    fn chain_circuit(engine_session: &InferenceSession, length: usize) -> Arc<PreparedCircuit> {
        let mut bench = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nw0 = AND(a, b)\n");
        for i in 1..length {
            bench.push_str(&format!("w{i} = NOT(w{})\n", i - 1));
        }
        bench.push_str(&format!("y = AND(w{}, a)\n", length - 1));
        let engine = Engine::builder()
            .model(DeepGateConfig {
                hidden_dim: 8,
                num_iterations: 2,
                regressor_hidden: 4,
                ..DeepGateConfig::default()
            })
            .build()
            .expect("valid configuration");
        let circuit = engine
            .prepare_unlabelled(&BenchText::new(format!("chain{length}"), bench))
            .expect("chain parses")
            .pop()
            .expect("one circuit");
        Arc::new(engine_session.prepare(circuit))
    }

    #[test]
    fn responses_are_routed_to_their_requests() {
        let session = test_session();
        let circuits: Vec<Arc<PreparedCircuit>> =
            (2..8).map(|n| chain_circuit(&session, n)).collect();
        let expected: Vec<Vec<f32>> = circuits
            .iter()
            .map(|c| session.predict(c.circuit()).expect("predicts"))
            .collect();

        let scheduler = Scheduler::new(
            test_session(),
            &ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        // Submit everything first so both workers run at once, then collect.
        let receivers: Vec<_> = circuits
            .iter()
            .map(|c| scheduler.submit(Arc::clone(c)).expect("queue open"))
            .collect();
        for (i, receiver) in receivers.into_iter().enumerate() {
            let probs = receiver.recv().expect("worker alive").expect("predicts");
            assert_eq!(probs, expected[i], "request {i} got someone else's result");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.completed, circuits.len() as u64);
        scheduler.shutdown();
    }

    #[test]
    fn concurrent_requests_for_one_cached_circuit_each_get_the_exact_prediction() {
        let bits = |probs: &[f32]| probs.iter().map(|p| p.to_bits()).collect::<Vec<u32>>();
        let session = test_session();
        let circuit = chain_circuit(&session, 5);
        let expected = bits(&session.predict(circuit.circuit()).expect("predicts"));

        let scheduler = Scheduler::new(
            test_session(),
            &ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        // The one `Arc` the structural cache hands out for a repeat, queued
        // eight times so several workers predict it at once.
        let receivers: Vec<_> = (0..8)
            .map(|_| scheduler.submit(Arc::clone(&circuit)).expect("queue open"))
            .collect();
        for (i, receiver) in receivers.into_iter().enumerate() {
            let probs = receiver.recv().expect("worker alive").expect("predicts");
            assert_eq!(bits(&probs), expected, "request {i} must match bit for bit");
        }
        assert_eq!(scheduler.stats().completed, 8);
        assert_eq!(scheduler.shared.metrics.queue_wait_ns.count(), 8);
        scheduler.shutdown();
    }

    #[test]
    fn a_bad_circuit_fails_alone() {
        use deepgate::gnn::{CircuitGraph, FeatureEncoding};
        use deepgate::netlist::{GateKind, Netlist};

        let session = test_session();
        let a = chain_circuit(&session, 3);
        let b = chain_circuit(&session, 5);
        let expected_a = session.predict(a.circuit()).expect("predicts");
        let expected_b = session.predict(b.circuit()).expect("predicts");
        // Encoded over the full gate alphabet: the AIG-alphabet model must
        // refuse it.
        let mut netlist = Netlist::new("wide");
        let x = netlist.add_input("x");
        let y = netlist.add_input("y");
        let gate = netlist
            .add_gate(GateKind::And, &[x, y])
            .expect("valid gate");
        netlist.mark_output(gate, "z");
        let bad = Arc::new(session.prepare(CircuitGraph::from_netlist(
            &netlist,
            FeatureEncoding::AllGates,
            None,
        )));

        // No workers: drain the queue by hand so the order is exact.
        let scheduler = Scheduler::new(
            test_session(),
            &ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        let receivers: Vec<_> = [&a, &bad, &b]
            .iter()
            .map(|c| scheduler.submit(Arc::clone(c)).expect("queue open"))
            .collect();
        for _ in 0..3 {
            execute(
                &scheduler.shared,
                next_job(&scheduler.shared).expect("job queued"),
            );
        }

        let mut results = receivers.into_iter().map(|r| r.recv().expect("executed"));
        assert_eq!(results.next(), Some(Ok(expected_a)));
        assert!(matches!(results.next(), Some(Err(ServeError::Engine(_)))));
        assert_eq!(results.next(), Some(Ok(expected_b)));
        let stats = scheduler.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let session = test_session();
        let circuit = chain_circuit(&session, 3);
        // No workers: the queue can only fill.
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 0,
                queue_depth: 2,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        let _a = scheduler.submit(Arc::clone(&circuit)).expect("first fits");
        let _b = scheduler.submit(Arc::clone(&circuit)).expect("second fits");
        assert!(matches!(
            scheduler.submit(Arc::clone(&circuit)),
            Err(ServeError::Overloaded { depth: 2 })
        ));
        assert_eq!(scheduler.stats().rejected_overloaded, 1);
        assert_eq!(scheduler.queue_len(), 2);
    }

    #[test]
    fn shutdown_flushes_queued_requests_with_clean_errors() {
        let session = test_session();
        let circuit = chain_circuit(&session, 3);
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 0,
                queue_depth: 8,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        let queued: Vec<_> = (0..3)
            .map(|_| scheduler.submit(Arc::clone(&circuit)).expect("queue open"))
            .collect();
        scheduler.shutdown();
        for receiver in queued {
            assert_eq!(
                receiver.recv().expect("response delivered"),
                Err(ServeError::ShuttingDown)
            );
        }
        // Submissions after shutdown are rejected immediately.
        assert!(matches!(
            scheduler.submit(circuit),
            Err(ServeError::ShuttingDown)
        ));
        assert_eq!(scheduler.stats().rejected_shutdown, 4);
        // Idempotent.
        scheduler.shutdown();
    }

    #[test]
    fn expired_requests_are_shed_before_inference() {
        let session = test_session();
        let circuit = chain_circuit(&session, 3);
        // No workers: queue by hand, then drain both jobs so the shed point
        // is exercised deterministically.
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        let expired = scheduler
            .submit_with_deadline(Arc::clone(&circuit), Some(Instant::now()))
            .expect("queue open");
        let live = scheduler
            .submit_with_deadline(
                Arc::clone(&circuit),
                Some(Instant::now() + Duration::from_secs(3600)),
            )
            .expect("queue open");
        for _ in 0..2 {
            execute(
                &scheduler.shared,
                next_job(&scheduler.shared).expect("job queued"),
            );
        }
        assert_eq!(
            expired.recv().expect("terminal response"),
            Err(ServeError::DeadlineExceeded),
            "expired request must be shed with a clean error"
        );
        assert!(
            live.recv().expect("terminal response").is_ok(),
            "the in-budget job still predicts"
        );
        let stats = scheduler.stats();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.completed, 1);
        // Queue wait is recorded per popped job, shed or not.
        assert_eq!(scheduler.shared.metrics.queue_wait_ns.count(), 2);
    }

    #[test]
    fn an_expired_job_runs_no_inference() {
        let engine_metrics = Arc::new(EngineMetrics::registered(&Registry::new()));
        let session = test_session().with_metrics(Arc::clone(&engine_metrics));
        let circuit = chain_circuit(&session, 3);
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        let drain_one = |deadline: Instant| {
            let receiver = scheduler
                .submit_with_deadline(Arc::clone(&circuit), Some(deadline))
                .expect("queue open");
            execute(
                &scheduler.shared,
                next_job(&scheduler.shared).expect("job queued"),
            );
            receiver.recv().expect("terminal response")
        };
        for _ in 0..3 {
            assert_eq!(drain_one(Instant::now()), Err(ServeError::DeadlineExceeded));
        }
        // The kernel's own series never saw a circuit.
        assert_eq!(engine_metrics.gnn.circuit_nodes.count(), 0);
        assert_eq!(engine_metrics.predict_ns.count(), 0);
        let stats = scheduler.stats();
        assert_eq!(stats.deadline_shed, 3);
        assert_eq!(stats.completed, 0);

        // The same circuit in budget does reach the kernel.
        assert!(drain_one(Instant::now() + Duration::from_secs(3600)).is_ok());
        assert_eq!(engine_metrics.gnn.circuit_nodes.count(), 1);
    }

    #[test]
    fn infer_panics_are_recovered_and_the_worker_keeps_draining() {
        let session = test_session();
        let circuit = chain_circuit(&session, 3);
        let faults =
            Arc::new(FaultPlan::seeded(11).inject_limited(Stage::Infer, FaultKind::Panic, 1.0, 3));
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 1,
                faults: Some(Arc::clone(&faults)),
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        for round in 0..3 {
            let result = scheduler.predict(Arc::clone(&circuit));
            match result {
                Err(ServeError::Internal(msg)) => {
                    assert!(msg.contains("injected fault"), "round {round}: {msg}")
                }
                other => panic!("round {round}: expected Internal, got {other:?}"),
            }
        }
        // Budget spent: the same worker thread — never respawned, the panic
        // was caught — serves the next request normally.
        assert!(faults.exhausted());
        let probs = scheduler
            .predict(Arc::clone(&circuit))
            .expect("worker survived three panics");
        assert!(!probs.is_empty());
        let stats = scheduler.stats();
        assert_eq!(stats.worker_panics_recovered, 3);
        assert_eq!(stats.worker_respawns, 0, "catch_unwind kept the thread");
        assert_eq!(stats.failed, 3);
        assert_eq!(stats.completed, 1);
        scheduler.shutdown();
    }

    #[test]
    fn dropped_response_channel_reports_internal_not_shutting_down() {
        let session = test_session();
        let circuit = chain_circuit(&session, 3);
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        // Block a real predict() call on another thread, then simulate a
        // worker dying mid-job: take its job off the queue and drop it
        // without responding.
        let scheduler = Arc::new(scheduler);
        let caller = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || scheduler.predict(circuit))
        };
        // Poll until the caller's submission is visible.
        while scheduler.queue_len() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(next_job(&scheduler.shared));
        // The regression: this used to surface as ShuttingDown, masking a
        // lost request as a clean drain. It must report an internal fault.
        let result = caller.join().expect("caller thread survives");
        assert!(
            matches!(&result, Err(ServeError::Internal(msg)) if msg.contains("without responding")),
            "a dead channel is an internal fault, not a clean shutdown: {result:?}"
        );
    }

    #[test]
    fn a_dying_worker_respawns_and_the_replacement_drains() {
        let session = test_session();
        let circuit = chain_circuit(&session, 3);
        // No workers at start: the only drain capacity will come from the
        // respawn path.
        let scheduler = Scheduler::new(
            session,
            &ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        )
        .expect("valid config");
        let shared = Arc::clone(&scheduler.shared);
        let dying = std::thread::Builder::new()
            .name("deepgate-serve-worker-7".into())
            .spawn(move || {
                let _guard = RespawnGuard { shared, index: 7 };
                panic!("injected fault: simulated worker death");
            })
            .expect("spawns");
        assert!(dying.join().is_err(), "the worker must actually die");
        // The guard's drop ran during the unwind and spawned a replacement,
        // which now serves requests.
        let probs = scheduler
            .predict(Arc::clone(&circuit))
            .expect("replacement worker drains the queue");
        assert!(!probs.is_empty());
        assert_eq!(scheduler.stats().worker_respawns, 1);
        scheduler.shutdown(); // joins the respawned worker too
    }

    #[test]
    fn scheduler_config_is_validated() {
        assert!(matches!(
            Scheduler::new(
                test_session(),
                &ServeConfig {
                    queue_depth: 0,
                    ..ServeConfig::default()
                }
            ),
            Err(ServeError::Config(_))
        ));
    }
}
