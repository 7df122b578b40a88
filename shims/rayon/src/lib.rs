//! Offline stand-in for `rayon`.
//!
//! Implements the `par_iter().map(..).collect()/reduce(..)` subset the
//! workspace uses — the labelling reduce of `deepgate-sim`,
//! `Engine::prepare` / `prepare_unlabelled` and
//! `InferenceSession::{prepare_batch, predict_batch}` — with genuine data
//! parallelism: items are dispatched to `std::thread::scope` workers
//! through a shared work queue (dynamic scheduling, order-preserving
//! results). Not a work-stealing pool — worker
//! threads live for one call — but for the coarse-grained tasks in this
//! workspace (circuit simulation, per-circuit inference) the per-call thread
//! cost is noise while the parallel speed-up is real.

use std::sync::Mutex;

/// Commonly used traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallelVec, IntoParallelRefIterator};
}

/// The number of worker threads a parallel call will use for `n` items.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `.par_iter()` on slices (and everything that derefs to a slice).
pub trait IntoParallelRefIterator<T: Sync> {
    /// Returns a parallel iterator over references to the elements.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// A parallel iterator over `&T` items.
pub struct ParIter<'a, T: Sync> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParPipeline<(usize, &'a T)> {
        ParPipeline {
            items: self.items.iter().enumerate().collect(),
        }
    }

    /// Maps every item through `f` in parallel.
    pub fn map<U: Send, F: Fn(&'a T) -> U + Sync>(self, f: F) -> ParMapped<&'a T, U, F> {
        ParMapped {
            items: self.items.iter().collect(),
            f,
        }
    }
}

/// A materialised parallel pipeline stage (after `enumerate`).
pub struct ParPipeline<I: Send> {
    items: Vec<I>,
}

impl<I: Send> ParPipeline<I> {
    /// Maps every item through `f` in parallel.
    pub fn map<U: Send, F: Fn(I) -> U + Sync>(self, f: F) -> ParMapped<I, U, F> {
        ParMapped {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel pipeline, ready for a terminal operation.
pub struct ParMapped<I: Send, U: Send, F: Fn(I) -> U + Sync> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, U: Send, F: Fn(I) -> U + Sync> ParMapped<I, U, F> {
    /// Runs the map in parallel and collects the results in input order.
    pub fn collect<C: FromParallelVec<U>>(self) -> C {
        C::from_parallel_vec(run_parallel(self.items, &self.f))
    }

    /// Runs the map in parallel and folds the results with `op`, starting
    /// from `identity()` (rayon's reduce contract: `op` must be associative
    /// and `identity()` its neutral element).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> U
    where
        ID: Fn() -> U,
        OP: Fn(U, U) -> U,
    {
        run_parallel(self.items, &self.f)
            .into_iter()
            .fold(identity(), op)
    }
}

/// Order-preserving collection from a parallel map (`Vec<U>` and
/// short-circuit-style `Result<Vec<T>, E>`).
pub trait FromParallelVec<U>: Sized {
    /// Builds the collection from per-item results in input order.
    fn from_parallel_vec(items: Vec<U>) -> Self;
}

impl<U> FromParallelVec<U> for Vec<U> {
    fn from_parallel_vec(items: Vec<U>) -> Self {
        items
    }
}

impl<T, E> FromParallelVec<Result<T, E>> for Result<Vec<T>, E> {
    fn from_parallel_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Dispatches `items` to scoped worker threads through a shared queue and
/// returns `f(item)` for every item, in input order.
fn run_parallel<I: Send, U: Send, F: Fn(I) -> U + Sync>(items: Vec<I>, f: &F) -> Vec<U> {
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue lock").next();
                match next {
                    Some((index, item)) => {
                        *slots[index].lock().expect("slot lock") = Some(f(item));
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_map_collect() {
        let input = ["a", "b", "c"];
        let tagged: Vec<String> = input
            .par_iter()
            .enumerate()
            .map(|(i, s)| format!("{i}{s}"))
            .collect();
        assert_eq!(tagged, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn collect_into_result_short_circuits_errors() {
        let input: Vec<i32> = (0..10).collect();
        let ok: Result<Vec<i32>, String> = input.par_iter().map(|&x| Ok(x + 1)).collect();
        assert_eq!(ok.unwrap().len(), 10);
        let err: Result<Vec<i32>, String> = input
            .par_iter()
            .map(|&x| {
                if x == 5 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "bad 5");
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let rows: Vec<Vec<u64>> = (0..64).map(|i| vec![i, i + 1, i + 2]).collect();
        let summed = rows.par_iter().map(|row| row.clone()).reduce(
            || vec![0u64; 3],
            |mut acc, row| {
                for (a, b) in acc.iter_mut().zip(row) {
                    *a += b;
                }
                acc
            },
        );
        let expected: Vec<u64> = (0..3).map(|j| (0..64).map(|i| i + j).sum()).collect();
        assert_eq!(summed, expected);
    }

    #[test]
    fn uses_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let input: Vec<usize> = (0..256).collect();
        let _: Vec<()> = input
            .par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                ids.lock().unwrap().insert(std::thread::current().id());
            })
            .collect();
        if super::current_num_threads() > 1 {
            assert!(ids.lock().unwrap().len() > 1, "expected parallel execution");
        }
    }
}
