//! The facade's one fan-out: independent items side by side on scoped
//! threads.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Runs `f` on every item, on up to one scoped thread per core (the caller
/// included), and returns the results in input order — or the first error
/// in input order, not the first one to finish. Threads claim the next
/// unclaimed item through one shared index, so a slow item holds up only its
/// own thread. Zero or one item runs inline. The core count is read once per
/// process.
pub(crate) fn fan_out<T: Sync, U: Send, E: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<U, E> + Sync,
) -> Result<Vec<U>, E> {
    if items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));
    let threads = cores.min(items.len());
    // The index publishes nothing: results come back through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return done;
            };
            done.push((index, f(item)));
        }
    };
    let mut done = thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::fan_out;
    use std::collections::HashSet;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread;
    use std::time::Duration;

    fn cores() -> usize {
        thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn results_come_back_in_input_order() {
        let input: Vec<usize> = (0..1000).collect();
        let doubled = fan_out(&input, |&x| Ok::<_, Infallible>(x * 2)).unwrap();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let tagged = fan_out(&["a", "b", "c"], |s| Ok::<_, Infallible>(s.to_uppercase()));
        assert_eq!(tagged.unwrap(), ["A", "B", "C"]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let indices: Vec<usize> = (0..runs.len()).collect();
        fan_out(&indices, |&i| {
            Ok::<_, Infallible>(runs[i].fetch_add(1, Ordering::Relaxed))
        })
        .unwrap();
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        let none: [usize; 0] = [];
        assert!(
            fan_out(&none, |_| -> Result<(), Infallible> { unreachable!() })
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn the_first_error_in_input_order_comes_back() {
        // On two threads, item 3 fails only once the other thread has
        // finished item 7's failure and moved on to item 8; item 3's error
        // must still be the one returned.
        let eight_started = Barrier::new(if cores() >= 2 { 2 } else { 1 });
        let input: Vec<usize> = (0..10).collect();
        let result = fan_out(&input, |&x| match x {
            3 => {
                eight_started.wait();
                Err(format!("bad {x}"))
            }
            7 => Err(format!("bad {x}")),
            8 => {
                eight_started.wait();
                Ok(x)
            }
            _ => Ok(x),
        });
        assert_eq!(result.unwrap_err(), "bad 3");
        let ok: Result<Vec<usize>, String> = fan_out(&input, |&x| Ok(x + 1));
        assert_eq!(ok.unwrap().len(), 10);
    }

    #[test]
    fn items_run_on_more_than_one_thread_when_the_host_has_two_cores() {
        if cores() < 2 {
            return;
        }
        // Each item waits until both have started: one thread alone would
        // run them one after the other and never see the second start.
        let started = AtomicUsize::new(0);
        let ids = Mutex::new(HashSet::new());
        fan_out(&[0, 1], |_| {
            started.fetch_add(1, Ordering::SeqCst);
            for _ in 0..10_000 {
                if started.load(Ordering::SeqCst) == 2 {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            ids.lock().unwrap().insert(thread::current().id());
            Ok::<_, Infallible>(())
        })
        .unwrap();
        assert_eq!(ids.lock().unwrap().len(), 2, "both items ran on one thread");
    }
}
