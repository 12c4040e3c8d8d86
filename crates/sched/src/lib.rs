//! A scoped-thread crew for read-only collection work.
//!
//! [`run_chunks`] runs one read-only closure over fixed-size chunks of a
//! slice and returns the results in chunk order. Up to `workers` scoped
//! threads claim chunks from one atomic cursor; with one worker or one
//! chunk, everything runs inline on the caller's thread, with no spawn.
//!
//! Determinism comes from the division of labour, not from the
//! schedule: the closure only reads (`Fn` + `Sync`) and each chunk's
//! result is owned by that chunk, so the result list is a pure function
//! of the input, whichever worker ran which chunk. A caller that folds
//! the results front to back gets the same reduction at any worker
//! count. What does vary run to run — which worker ran what, and for
//! how long — is added to [`SchedTotals`], which callers must treat as
//! volatile telemetry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Running totals of crew work across collections. Volatile: `steals`
/// and `busy_ns` vary run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTotals {
    /// Collections absorbed (counted by the caller).
    pub collections: u64,
    /// Chunks run, one per chunk of every [`run_chunks`] call.
    pub packets: u64,
    /// Chunks run by a worker other than their round-robin owner
    /// (chunk `i` of a crew of `c` is owned by worker `i % c`).
    pub steals: u64,
    /// Wall time summed over the workers of every call, nanoseconds.
    pub busy_ns: u64,
}

/// Runs `f` once on each `chunk`-sized piece of `items` (the last may
/// be shorter) and returns the results in chunk order. Counts into
/// `totals` the chunks run, the chunks stolen and the workers' busy
/// time.
///
/// `min(workers, chunks)` scoped threads claim chunks from one atomic
/// cursor; with a crew of one (one worker, or at most one chunk) every
/// chunk runs inline on the caller's thread. A panic in `f` propagates
/// to the caller. Panics if `chunk` is 0.
pub fn run_chunks<T, R, F>(
    workers: usize,
    items: &[T],
    chunk: usize,
    totals: &mut SchedTotals,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let n = items.len().div_ceil(chunk);
    let crew = workers.min(n);
    totals.packets += n as u64;
    let start = Instant::now();
    if crew <= 1 {
        let out = items.chunks(chunk).map(f).collect();
        totals.busy_ns += start.elapsed().as_nanos() as u64;
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..crew)
            .map(|w| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut mine = Vec::new();
                    let mut steals = 0;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        steals += u64::from(i % crew != w);
                        let lo = i * chunk;
                        mine.push((i, f(&items[lo..items.len().min(lo + chunk)])));
                    }
                    (mine, steals, start.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        for h in handles {
            let (mine, steals, busy_ns) = h
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            done.extend(mine);
            totals.steals += steals;
            totals.busy_ns += busy_ns;
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
fn sums(workers: usize, data: &[u64], totals: &mut SchedTotals) -> Vec<u64> {
    run_chunks(workers, data, 97, totals, |c| c.iter().sum::<u64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_chunk_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let mut totals = SchedTotals::default();
        let ran_on = run_chunks(8, &[1u64, 2, 3], 3, &mut totals, |_| {
            std::thread::current().id()
        });
        assert_eq!(ran_on, [caller]);
        assert_eq!((totals.packets, totals.steals), (1, 0));
    }

    #[test]
    fn empty_input_runs_nothing() {
        let mut totals = SchedTotals::default();
        let out: Vec<()> = run_chunks(8, &[0u64; 0], 4, &mut totals, |_| unreachable!());
        assert!(out.is_empty());
        assert_eq!((totals.packets, totals.steals), (0, 0));
    }
}

/// The crew's reduction: what comes back, and on which thread, at any
/// worker count.
#[cfg(test)]
mod pool {
    mod tests {
        use crate::*;

        #[test]
        fn bucket_reduction_is_worker_count_invariant() {
            let data: Vec<u64> = (0..10_000).collect();
            let expected: Vec<u64> = data.chunks(97).map(|c| c.iter().sum()).collect();
            for workers in [1usize, 2, 4, 8] {
                let mut totals = SchedTotals::default();
                assert_eq!(
                    sums(workers, &data, &mut totals),
                    expected,
                    "workers={workers} changed the reduction"
                );
                assert_eq!(totals.packets, expected.len() as u64);
            }
        }

        #[test]
        fn zero_worker_request_clamps_to_one() {
            let data: Vec<u64> = (0..1_000).collect();
            let caller = std::thread::current().id();
            let mut totals = SchedTotals::default();
            let ran_on = run_chunks(0, &data, 97, &mut totals, |c| {
                (std::thread::current().id(), c.iter().sum::<u64>())
            });
            assert!(
                ran_on.iter().all(|&(t, _)| t == caller),
                "0 workers spawns no thread"
            );
            let got: Vec<u64> = ran_on.into_iter().map(|(_, s)| s).collect();
            assert_eq!(got, sums(1, &data, &mut SchedTotals::default()));
            assert_eq!((totals.packets, totals.steals), (11, 0));
        }
    }
}

/// What [`SchedTotals`] counts over calls, collections and worker counts.
#[cfg(test)]
mod stats {
    mod tests {
        use crate::*;

        #[test]
        fn stats_aggregate_across_buckets_and_workers() {
            let data: Vec<u64> = (0..10_000).collect();
            for workers in [1usize, 2, 4, 8] {
                let mut totals = SchedTotals::default();
                sums(workers, &data, &mut totals);
                sums(workers, &data[..97], &mut totals);
                assert_eq!(totals.packets, data.len().div_ceil(97) as u64 + 1);
                assert!(totals.steals <= totals.packets, "{totals:?}");
                if workers == 1 {
                    assert_eq!(totals.steals, 0, "one worker steals nothing");
                }
            }
        }

        #[test]
        fn totals_absorb_collections() {
            let data: Vec<u64> = (0..10_000).collect();
            let mut one = SchedTotals::default();
            sums(1, &data, &mut one);
            let mut totals = SchedTotals::default();
            for _ in 0..2 {
                sums(2, &data, &mut totals);
                totals.collections += 1;
            }
            assert_eq!(totals.collections, 2);
            assert_eq!(totals.packets, 2 * one.packets);
            assert!(totals.steals <= totals.packets, "{totals:?}");
            assert!(totals.busy_ns > 0, "{totals:?}");
        }
    }
}
