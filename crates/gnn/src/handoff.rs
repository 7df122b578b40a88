//! The hand-off between a prediction's calling thread and its one helper
//! thread (see `csr.rs`): a one-job slot and a state word. A thread with
//! nothing to do spins on the word for [`SPIN`], then parks until the other
//! side changes it. A posted job the helper has not claimed by the time the
//! caller wants it back is *reclaimed* — the caller runs it itself — so the
//! caller never waits on a helper that is not running (under `predict_batch`'s
//! fan-out, or two serving workers on two cores, it often is not).

use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a waiting thread spins before it parks. A waiting thread
/// usually waits for one level half (≥ 2 rows at ~1.4 µs each) or for the
/// caller's narrow levels in between; a parked helper costs a futex wake
/// plus a wake-up latency of tens of µs, during which the caller reclaims
/// the half it posted.
const SPIN: Duration = Duration::from_micros(50);

/// Slot states. The caller moves `EMPTY → POSTED` (post), `POSTED → EMPTY`
/// (reclaim), `DONE → EMPTY` (collect) and anything `→ CLOSED`, which is
/// final; the helper moves `POSTED → CLAIMED → DONE`, or `CLAIMED →
/// ABANDONED` if its job panicked.
const EMPTY: u8 = 0;
const POSTED: u8 = 1;
const CLAIMED: u8 = 2;
const DONE: u8 = 3;
const CLOSED: u8 = 4;
const ABANDONED: u8 = 5;

/// One caller, one helper, one job in flight.
#[derive(Debug)]
pub(crate) struct Handoff<J> {
    state: AtomicU8,
    job: Mutex<Option<J>>,
    caller: Thread,
    helper: OnceLock<Thread>,
}

impl<J> Handoff<J> {
    /// A hand-off whose caller is the current thread.
    pub(crate) fn new() -> Self {
        Handoff {
            state: AtomicU8::new(EMPTY),
            job: Mutex::new(None),
            caller: thread::current(),
            helper: OnceLock::new(),
        }
    }

    /// Caller: names the helper thread, once, before the first
    /// [`Handoff::post`], so every post can wake it.
    pub(crate) fn attach(&self, helper: Thread) {
        self.helper.set(helper).expect("a hand-off has one helper");
    }

    /// Caller: offers `job` to the helper. The slot must be empty: every
    /// post is followed by one [`Handoff::reclaim_or_wait`].
    pub(crate) fn post(&self, job: J) {
        *self.slot() = Some(job);
        self.state.store(POSTED, SeqCst);
        self.wake_helper();
    }

    /// Caller: takes the posted job back if the helper has not claimed it;
    /// otherwise waits until the helper has finished it and returns `None`.
    ///
    /// # Panics
    ///
    /// If the helper's job panicked (the scope then re-raises that panic).
    pub(crate) fn reclaim_or_wait(&self) -> Option<J> {
        if self
            .state
            .compare_exchange(POSTED, EMPTY, SeqCst, SeqCst)
            .is_ok()
        {
            return self.slot().take();
        }
        let state = wait_for(&self.state, |s| s == DONE || s == ABANDONED);
        assert_eq!(state, DONE, "the level helper thread panicked");
        self.state.store(EMPTY, SeqCst);
        None
    }

    /// Caller: a guard that ends [`Handoff::serve`] on the helper when it
    /// drops — at the end of the caller's work, or while a panic unwinds it,
    /// so the scope that joins the helper never waits on a parked one.
    pub(crate) fn closer(&self) -> Closer<'_, J> {
        Closer(self)
    }

    /// Helper: runs every job it claims with `run`, until closed.
    pub(crate) fn serve(&self, mut run: impl FnMut(J)) {
        while wait_for(&self.state, |s| s == POSTED || s == CLOSED) == POSTED {
            if self
                .state
                .compare_exchange(POSTED, CLAIMED, SeqCst, SeqCst)
                .is_err()
            {
                continue; // reclaimed first
            }
            let job = self.slot().take().expect("a claimed job sits in the slot");
            let finish = Finish(self);
            run(job);
            drop(finish);
        }
    }

    fn slot(&self) -> std::sync::MutexGuard<'_, Option<J>> {
        // Held only to move a job in or out: nothing can panic under it.
        self.job
            .lock()
            .expect("the hand-off slot is never poisoned")
    }

    fn wake_helper(&self) {
        if let Some(helper) = self.helper.get() {
            helper.unpark();
        }
    }
}

/// See [`Handoff::closer`].
pub(crate) struct Closer<'a, J>(&'a Handoff<J>);

impl<J> Drop for Closer<'_, J> {
    fn drop(&mut self) {
        self.0.state.store(CLOSED, SeqCst);
        self.0.wake_helper();
    }
}

/// Marks the helper's claimed job finished — or abandoned, when its run
/// unwinds — and wakes the caller either way, so a panicking job cannot
/// leave the caller parked. A hand-off closed meanwhile stays closed.
struct Finish<'a, J>(&'a Handoff<J>);

impl<J> Drop for Finish<'_, J> {
    fn drop(&mut self) {
        let state = if thread::panicking() { ABANDONED } else { DONE };
        let _ = self
            .0
            .state
            .compare_exchange(CLAIMED, state, SeqCst, SeqCst);
        self.0.caller.unpark();
    }
}

/// Spins on `state` until `ready`, parking once [`SPIN`] has passed. Every
/// state change is followed by an `unpark` of the waiting side, and a park
/// after that unpark returns at once, so no wake-up is lost.
fn wait_for(state: &AtomicU8, ready: impl Fn(u8) -> bool) -> u8 {
    let start = Instant::now();
    loop {
        let s = state.load(SeqCst);
        if ready(s) {
            return s;
        }
        if start.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Every posted job runs exactly once — on the helper, or on the caller
    /// when it reclaims first — and the helper returns when closed.
    #[test]
    fn every_job_runs_once_on_one_side() {
        let handoff = Handoff::new();
        let ran = Mutex::new(Vec::new());
        thread::scope(|scope| {
            let helper = scope.spawn(|| handoff.serve(|job: u32| ran.lock().unwrap().push(job)));
            handoff.attach(helper.thread().clone());
            let _closer = handoff.closer();
            for job in 0..1000 {
                handoff.post(job);
                if let Some(job) = handoff.reclaim_or_wait() {
                    ran.lock().unwrap().push(job);
                }
            }
        });
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (0..1000).collect::<Vec<_>>());
    }

    /// A job the helper has claimed is waited for, not reclaimed: the
    /// barrier holds the helper inside the job until the caller has asked.
    #[test]
    fn a_claimed_job_is_waited_for() {
        let handoff = Handoff::new();
        let inside = Barrier::new(2);
        thread::scope(|scope| {
            let helper = scope.spawn(|| {
                handoff.serve(|()| {
                    inside.wait();
                })
            });
            handoff.attach(helper.thread().clone());
            let _closer = handoff.closer();
            handoff.post(());
            inside.wait();
            assert!(handoff.reclaim_or_wait().is_none());
        });
    }

    /// A panicking job wakes the caller with the panic instead of leaving it
    /// parked.
    #[test]
    fn a_panicking_job_reaches_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            let handoff = Handoff::new();
            let inside = Barrier::new(2);
            thread::scope(|scope| {
                let helper = scope.spawn(|| {
                    handoff.serve(|()| {
                        inside.wait();
                        panic!("job fails");
                    })
                });
                handoff.attach(helper.thread().clone());
                let _closer = handoff.closer();
                handoff.post(());
                inside.wait();
                handoff.reclaim_or_wait();
            });
        });
        assert!(outcome.is_err());
    }

    /// A caller that panics — with the helper idle, or inside a job —
    /// releases the helper, so the scope joins it and the panic surfaces
    /// instead of hanging.
    #[test]
    fn a_panicking_caller_releases_the_helper() {
        for mid_job in [false, true] {
            let outcome = std::panic::catch_unwind(|| {
                let handoff = Handoff::new();
                let (inside, release) = (Barrier::new(2), Barrier::new(2));
                thread::scope(|scope| {
                    let helper = scope.spawn(|| {
                        handoff.serve(|()| {
                            inside.wait();
                            release.wait();
                        })
                    });
                    handoff.attach(helper.thread().clone());
                    let _closer = handoff.closer();
                    if mid_job {
                        handoff.post(());
                        inside.wait();
                        scope.spawn(|| release.wait());
                    }
                    panic!("caller fails");
                });
            });
            assert!(outcome.is_err(), "mid_job={mid_job}");
        }
    }
}
