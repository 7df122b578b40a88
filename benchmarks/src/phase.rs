//! What one measured phase produced, and the end-to-end metrics derived
//! from it the same way on every workload.

use crate::stats;
use std::time::Instant;

/// One operation of a closed loop: a request round trip, one design
/// predicted, one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Start, seconds since the phase began.
    pub start_s: f64,
    /// Duration in seconds.
    pub seconds: f64,
    /// Graph nodes the operation processed (0 when it failed before the
    /// size was known).
    pub nodes: u64,
    /// The operation succeeded *and* its output passed the in-run checks.
    pub ok: bool,
}

/// A measured phase: every operation attempted, plus the wall clock.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time from the phase's start to the end of its last operation.
    pub wall_s: f64,
    /// Every operation attempted, in completion order per client.
    pub ops: Vec<OpSample>,
    /// Process CPU seconds (user + system, all threads) spent in the phase.
    pub cpu_s: f64,
    /// Involuntary context switches of the threads involved.
    pub involuntary_switches: u64,
    /// Failure messages (capped) for the report.
    pub failures: Vec<String>,
}

impl Phase {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Operations that succeeded with a correct output.
    pub fn succeeded(&self) -> u64 {
        self.ops.iter().filter(|op| op.ok).count() as u64
    }

    /// Operations that failed, were refused or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.succeeded()
    }

    /// Graph nodes of the successful operations.
    pub fn nodes_ok(&self) -> u64 {
        self.ops.iter().filter(|op| op.ok).map(|op| op.nodes).sum()
    }

    /// Nodes of successful operations per second of phase wall time.
    pub fn throughput_nodes_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.nodes_ok() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Ascending durations of the successful operations, milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let ms: Vec<f64> = self
            .ops
            .iter()
            .filter(|op| op.ok)
            .map(|op| op.seconds * 1e3)
            .collect();
        stats::sorted(&ms)
    }

    /// Share of *attempted* operations that succeeded, were correct and
    /// finished within `limit_s(nodes)`; a failed operation misses.
    pub fn within_limit_share(&self, limit_s: impl Fn(u64) -> f64) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        let met = self
            .ops
            .iter()
            .filter(|op| op.ok && op.seconds <= limit_s(op.nodes))
            .count();
        met as f64 / self.ops.len() as f64
    }

    /// Node throughput of each whole `window_s` window of the phase. An
    /// operation's nodes are spread evenly over its duration, so operations
    /// longer than a window do not quantise the series.
    pub fn window_rates(&self, window_s: f64) -> Vec<f64> {
        let windows = (self.wall_s / window_s).floor() as usize;
        let mut nodes = vec![0.0f64; windows];
        for op in self.ops.iter().filter(|op| op.ok && op.seconds > 0.0) {
            let (t0, t1) = (op.start_s, op.start_s + op.seconds);
            let first = (t0 / window_s).floor().max(0.0) as usize;
            let last = ((t1 / window_s).floor() as usize).min(windows.saturating_sub(1));
            for (w, slot) in nodes.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (w as f64 * window_s).max(t0);
                let hi = ((w + 1) as f64 * window_s).min(t1);
                if hi > lo {
                    *slot += op.nodes as f64 * (hi - lo) / op.seconds;
                }
            }
        }
        nodes.into_iter().map(|n| n / window_s).collect()
    }
}

/// Resource counters of this process, read from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of all threads, exited ones included.
    pub cpu_s: f64,
    /// Involuntary context switches summed over the live threads.
    pub involuntary_switches: u64,
}

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs libc; every
/// Linux this runs on reports 100.
const CLK_TCK: f64 = 100.0;

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Involuntary context switches of the calling thread so far.
pub fn thread_involuntary_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| status_field(&s, "nonvoluntary_ctxt_switches:"))
        .unwrap_or(0)
}

impl ProcSample {
    /// Reads the counters now; zeros where `/proc` is unavailable.
    pub fn now() -> ProcSample {
        let cpu_s = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                // Fields after the parenthesised command name; utime and
                // stime are the 14th and 15th of the whole line.
                let rest = stat.rsplit_once(')')?.1;
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let utime: f64 = fields.get(11)?.parse().ok()?;
                let stime: f64 = fields.get(12)?.parse().ok()?;
                Some((utime + stime) / CLK_TCK)
            })
            .unwrap_or(0.0);
        let involuntary_switches = std::fs::read_dir("/proc/self/task")
            .map(|tasks| {
                tasks
                    .flatten()
                    .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
                    .filter_map(|s| status_field(&s, "nonvoluntary_ctxt_switches:"))
                    .sum()
            })
            .unwrap_or(0);
        ProcSample {
            cpu_s,
            involuntary_switches,
        }
    }
}

/// Clock and resource counters of a single-threaded phase, read at its
/// start; [`PhaseClock::finish`] fills the phase's totals.
pub struct PhaseClock {
    /// When the phase began.
    pub epoch: Instant,
    cpu_s: f64,
    switches: u64,
}

impl PhaseClock {
    /// Starts the clock on the calling thread.
    pub fn start() -> PhaseClock {
        PhaseClock {
            epoch: Instant::now(),
            cpu_s: ProcSample::now().cpu_s,
            switches: thread_involuntary_switches(),
        }
    }

    /// Writes wall time, CPU time and the calling thread's involuntary
    /// context switches since [`PhaseClock::start`] into `phase`.
    pub fn finish(&self, phase: &mut Phase) {
        phase.wall_s = self.epoch.elapsed().as_secs_f64();
        phase.cpu_s = ProcSample::now().cpu_s - self.cpu_s;
        phase.involuntary_switches = thread_involuntary_switches().saturating_sub(self.switches);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// A first set-up faster than this is repeated. The 2 s `infer_large`
/// set-up stays a single reading: three of them would cost every run 4 s
/// of the driver's budget, and a 2 s reading is as steady as a phase.
pub const REPEAT_SETUP_BELOW_S: f64 = 1.0;

/// Times set-up. The first set-up is timed from process start; when it
/// took under [`REPEAT_SETUP_BELOW_S`] it is repeated four more times from
/// cold state (the previous state dropped first) and the median of the five
/// reported, so a short set-up is not one noisy reading. Returns the last
/// state built, the reported seconds and how many set-ups ran.
pub fn measure_setup<S>(process_start: Instant, mut build: impl FnMut() -> S) -> (S, f64, usize) {
    let mut state = build();
    let first = process_start.elapsed().as_secs_f64();
    let mut times = vec![first];
    if first < REPEAT_SETUP_BELOW_S {
        for _ in 0..4 {
            drop(state);
            let start = Instant::now();
            state = build();
            times.push(start.elapsed().as_secs_f64());
        }
    }
    (state, stats::median(&times), times.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(start_s: f64, seconds: f64, nodes: u64, ok: bool) -> OpSample {
        OpSample {
            start_s,
            seconds,
            nodes,
            ok,
        }
    }

    #[test]
    fn failed_operations_miss_the_limit_and_carry_no_throughput() {
        let phase = Phase {
            wall_s: 2.0,
            ops: vec![
                op(0.0, 0.5, 100, true),
                op(0.5, 1.0, 100, true),
                op(1.5, 0.1, 100, false),
                op(1.6, 0.4, 0, false),
            ],
            ..Phase::default()
        };
        assert_eq!(
            (phase.attempted(), phase.succeeded(), phase.failed()),
            (4, 2, 2)
        );
        assert_eq!(phase.throughput_nodes_s(), 100.0);
        assert_eq!(phase.latencies_ms(), vec![500.0, 1000.0]);
        // Limit 0.6 s: only the first op is ok AND fast enough.
        assert_eq!(phase.within_limit_share(|_| 0.6), 0.25);
        assert_eq!(phase.within_limit_share(|nodes| nodes as f64 * 0.02), 0.5);
    }

    #[test]
    fn window_rates_spread_long_operations_evenly() {
        // One 4 s op of 400 nodes over four 1 s windows: 100 nodes/s each.
        let phase = Phase {
            wall_s: 4.0,
            ops: vec![op(0.0, 4.0, 400, true)],
            ..Phase::default()
        };
        assert_eq!(phase.window_rates(1.0), vec![100.0; 4]);
        // Two concurrent clients add up; the partial last window is dropped.
        let phase = Phase {
            wall_s: 2.5,
            ops: vec![
                op(0.0, 1.0, 10, true),
                op(0.0, 2.0, 40, true),
                op(2.0, 0.5, 99, true),
            ],
            ..Phase::default()
        };
        assert_eq!(phase.window_rates(1.0), vec![30.0, 20.0]);
    }

    #[test]
    fn short_setup_is_repeated_five_times() {
        let mut builds = 0;
        let (state, seconds, repeats) = measure_setup(Instant::now(), || {
            builds += 1;
            builds
        });
        assert_eq!((state, repeats), (5, 5));
        assert!((0.0..2.0).contains(&seconds));
    }

    #[test]
    fn proc_counters_are_readable_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mib() > 0.0);
            let _ = ProcSample::now();
            let _ = thread_involuntary_switches();
        }
    }
}
