//! The indexed fan-out: run `per_index` over `0..total` on worker threads
//! and hand the results back in index order.
//!
//! A static chunk split assigns each worker a fixed contiguous slice up
//! front; one slice full of PTO-retrying or rate-limited targets then idles
//! every other worker while its owner grinds through the stragglers. The
//! [`StealQueue`] replaces the split with a single shared cursor: workers
//! claim small index batches as they go, so slow targets spread across
//! whoever is free instead of serializing behind one thread.
//!
//! Scheduling stays irrelevant to results by construction — which worker
//! runs an index must never feed into what the index does (per-target ports,
//! seeds, budgets, and trace timestamps all derive from the index alone), and
//! the pool merges results in index order. [`fan_out`] is the claim-and-merge
//! pool of the stateful QUIC and TLS scans, the PEMI transfer grid and the
//! stateless sweeps' shards; the mux sweep's windowed workers run on
//! [`fan_out_pulled`] underneath it. Each worker usually owns a
//! [`crate::NetShard`] as (part of) its state.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on one claim, keeping the tail fine-grained enough that a
/// late batch of stragglers still spreads across workers.
const MAX_BATCH: usize = 32;

/// Shared claim cursor over `0..total`.
///
/// Batch sizes follow guided self-scheduling: a claim takes
/// `remaining / (4 * workers)` indices (clamped to `1..=`[`MAX_BATCH`]), so
/// early claims amortize the cursor contention and late claims shrink to
/// single targets for the final balancing.
pub struct StealQueue {
    cursor: AtomicUsize,
    total: usize,
    workers: usize,
}

impl StealQueue {
    /// A queue over `0..total`, tuned for `workers` concurrent claimants.
    pub fn new(total: usize, workers: usize) -> Self {
        StealQueue {
            cursor: AtomicUsize::new(0),
            total,
            workers: workers.max(1),
        }
    }

    /// Claims the next batch of indices, or `None` once the space is
    /// exhausted. Claims are disjoint and cover `0..total` exactly.
    pub fn claim(&self) -> Option<Range<usize>> {
        loop {
            let start = self.cursor.load(Ordering::Relaxed);
            if start >= self.total {
                return None;
            }
            let remaining = self.total - start;
            let batch = (remaining / (4 * self.workers))
                .clamp(1, MAX_BATCH)
                .min(remaining);
            let end = start + batch;
            if self
                .cursor
                .compare_exchange_weak(start, end, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some(start..end);
            }
        }
    }

    /// Claims exactly one index off the same cursor, for a worker that asks
    /// index by index whether it can take more ([`fan_out_pulled`]).
    pub fn claim_one(&self) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

/// Runs `per_index(state, i)` for every `i` in `0..total` on `workers`
/// threads claiming batches off one [`StealQueue`], and returns the results
/// in index order plus, per worker, its state and how many indices it ran.
///
/// Each worker builds its private state with `worker_state` on its own
/// thread and keeps it for every index it claims. At most `total` workers
/// are started, and a single worker runs on the caller's thread — the same
/// body, no spawn.
///
/// A worker that panics propagates its panic to the caller: returning a
/// shorter vector would silently misalign the results with whatever the
/// caller indexes them against.
pub fn fan_out<S: Send, R: Send>(
    total: usize,
    workers: usize,
    worker_state: impl Fn() -> S + Sync,
    per_index: impl Fn(&mut S, usize) -> R + Sync,
) -> (Vec<R>, Vec<(S, usize)>) {
    fan_out_pulled(total, workers, |queue, ran| {
        let mut state = worker_state();
        while let Some(range) = queue.claim() {
            for i in range {
                ran.push((i, per_index(&mut state, i)));
            }
        }
        state
    })
}

/// The pool under [`fan_out`], for a worker that interleaves several
/// indices: `worker` runs once per thread, claims from the shared queue —
/// [`StealQueue::claim_one`] whenever it has room for another — and pushes
/// `(index, result)` as each index completes. Same threads, same propagated
/// panic, same index-ordered exactly-once merge; what `worker` returns
/// takes the place of the per-worker state.
pub fn fan_out_pulled<S: Send, R: Send>(
    total: usize,
    workers: usize,
    worker: impl Fn(&StealQueue, &mut Vec<(usize, R)>) -> S + Sync,
) -> (Vec<R>, Vec<(S, usize)>) {
    let workers = workers.clamp(1, total.max(1));
    let queue = StealQueue::new(total, workers);
    let run_worker = || {
        let mut ran = Vec::new();
        let state = worker(&queue, &mut ran);
        (state, ran)
    };
    let per_worker: Vec<(S, Vec<(usize, R)>)> = if workers == 1 {
        vec![run_worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    let mut indexed = Vec::with_capacity(total);
    let mut states = Vec::with_capacity(workers);
    for (state, ran) in per_worker {
        states.push((state, ran.len()));
        indexed.extend(ran);
    }
    indexed.sort_unstable_by_key(|(i, _)| *i);
    assert!(
        indexed.len() == total && indexed.iter().enumerate().all(|(k, (i, _))| k == *i),
        "fan-out must return exactly one result per index"
    );
    (indexed.into_iter().map(|(_, r)| r).collect(), states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_cover_space_exactly_once() {
        let q = StealQueue::new(1000, 4);
        let mut next = 0usize;
        while let Some(r) = q.claim() {
            assert_eq!(r.start, next, "claims must be contiguous");
            assert!(r.end > r.start && r.end <= 1000);
            next = r.end;
        }
        assert_eq!(next, 1000);
        assert!(q.claim().is_none());
    }

    #[test]
    fn batches_shrink_toward_the_tail() {
        let q = StealQueue::new(1000, 4);
        let first = q.claim().unwrap();
        assert_eq!(first.len(), 32, "big remaining → MAX_BATCH");
        let mut last = first;
        while let Some(r) = q.claim() {
            last = r;
        }
        assert_eq!(last.len(), 1, "final claims are single targets");
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let q = StealQueue::new(500, 8);
        let claimed: Vec<Vec<Range<usize>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(r) = q.claim() {
                            mine.push(r);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = vec![false; 500];
        for r in claimed.into_iter().flatten() {
            for i in r {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "every index claimed");
    }

    #[test]
    fn zero_workers_and_tiny_spaces() {
        let q = StealQueue::new(3, 0);
        assert_eq!(q.claim(), Some(0..1));
        assert_eq!(q.claim(), Some(1..2));
        assert_eq!(q.claim(), Some(2..3));
        assert_eq!(q.claim(), None);
        assert!(StealQueue::new(0, 4).claim().is_none());
    }

    #[test]
    fn fan_out_runs_every_index_once_and_returns_index_order() {
        for total in [0usize, 1, 1000] {
            for workers in [1usize, 2, 8] {
                let runs: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                let (out, per_worker) = fan_out(
                    total,
                    workers,
                    || (),
                    |_, i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        i * 3
                    },
                );
                assert_eq!(out, (0..total).map(|i| i * 3).collect::<Vec<_>>());
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
                assert_eq!(per_worker.len(), workers.clamp(1, total.max(1)));
                assert_eq!(per_worker.iter().map(|(_, n)| n).sum::<usize>(), total);
            }
        }
    }

    #[test]
    fn fan_out_keeps_worker_state_across_claims() {
        let (_, per_worker) = fan_out(500, 4, Vec::new, |seen: &mut Vec<usize>, i| seen.push(i));
        for (seen, n) in &per_worker {
            assert_eq!(seen.len(), *n, "state saw every index its worker ran");
        }
    }

    /// Index 0 cannot finish before the last index has started, so with two
    /// or more workers it completes after indices claimed much later; the
    /// output is in index order all the same.
    #[test]
    fn fan_out_output_is_index_ordered_under_a_slow_index() {
        let total = 200;
        for workers in [2usize, 8] {
            let gate = std::sync::Barrier::new(2);
            let finished = AtomicUsize::new(0);
            let (out, _) = fan_out(
                total,
                workers,
                || (),
                |_, i| {
                    if i == 0 || i == total - 1 {
                        gate.wait();
                    }
                    (i, finished.fetch_add(1, Ordering::SeqCst))
                },
            );
            assert!(out.iter().enumerate().all(|(k, (i, _))| k == *i));
            assert!(out[0].1 > 32, "index 0 finished {}th", out[0].1);
        }
    }

    /// The mux shape: a worker holds up to three claimed indices and hands
    /// them in newest-first, so no worker finishes in claim order.
    #[test]
    fn fan_out_pulled_merges_a_windowed_worker_in_index_order() {
        for (total, workers) in [(0usize, 1usize), (1, 2), (500, 1), (500, 8)] {
            let (out, peaks) = fan_out_pulled(total, workers, |queue, ran| {
                let (mut window, mut peak) = (Vec::new(), 0);
                loop {
                    while window.len() < 3 {
                        let Some(i) = queue.claim_one() else { break };
                        window.push(i);
                    }
                    peak = peak.max(window.len());
                    let Some(i) = window.pop() else { break peak };
                    ran.push((i, i * 3));
                }
            });
            assert_eq!(out, (0..total).map(|i| i * 3).collect::<Vec<_>>());
            assert!(peaks.iter().all(|(peak, _)| *peak <= 3));
        }
    }

    /// An index claimed and never handed in is caught by the merge, not
    /// passed on as a shorter vector.
    #[test]
    #[allow(clippy::disallowed_methods)] // the panic is what is tested
    fn fan_out_pulled_rejects_a_dropped_index() {
        let dropping = |queue: &StealQueue, ran: &mut Vec<(usize, ())>| {
            while let Some(i) = queue.claim_one() {
                if i != 4 {
                    ran.push((i, ()));
                }
            }
        };
        assert!(std::panic::catch_unwind(|| fan_out_pulled(10, 2, dropping)).is_err());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the panic is what is tested
    fn fan_out_propagates_a_panicking_index() {
        for workers in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(
                    100,
                    workers,
                    || (),
                    |_, i| assert!(i != 57, "index {i} is poisoned"),
                )
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("assert! message");
            assert!(msg.contains("index 57 is poisoned"), "{msg}");
        }
    }
}
