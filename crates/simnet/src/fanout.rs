//! The indexed fan-out: run `per_index` over `0..total` on worker threads
//! and hand the results back in index order.
//!
//! A static chunk split assigns each worker a fixed contiguous slice up
//! front; one slice full of PTO-retrying or rate-limited targets then idles
//! every other worker while its owner grinds through the stragglers. The
//! [`StealQueue`] replaces the split with claims made as workers go: small
//! index batches, so slow targets spread across whoever is free instead of
//! serializing behind one thread.
//!
//! Claims are made by region. Worker w of W owns `[w·n/W, (w+1)·n/W)` and
//! claims guided batches from the front of it; once its own region is
//! empty it steals from the back of the region with the most left. Target
//! lists arrive sorted by address, so adjacent indices tend to share a host,
//! and one shared cursor would hand concurrent workers adjacent batches of
//! the same host, where they queue on that host's service lock. Regions put
//! concurrent workers n/W apart instead, on different hosts: for the 1,404
//! SNI targets on 104 addresses of a factor-0.01 campaign, the acquisitions
//! that found the lock held at two workers fell from 12–15 % of 6,135 to
//! under 0.3 %. "Ten Years of ZMap" permutes its scan order for the same
//! reason.
//!
//! [`StealQueue::claim_one`] does not use regions: it hands out the lowest
//! unclaimed index, so a queue drained only through it walks `0, 1, 2, …`
//! as one shared cursor would. The mux sweep's windowed admission calls it,
//! and puts task t on host `t % hosts`; with 8,000 tasks on 8 hosts, regions
//! would walk both workers over the same hosts in lockstep (a `claim_one`
//! by region read 0.898× on `mux_manyconn`).
//!
//! Scheduling stays irrelevant to results by construction — which worker
//! runs an index must never feed into what the index does (per-target ports,
//! seeds, budgets, and trace timestamps all derive from the index alone), and
//! the pool merges results in index order. A caller whose indices share
//! state at a fixed distance (the scanners' source ports repeat every cycle)
//! uses [`fan_out_cycles`], one fan-out per cycle, since regions run indices
//! up to n/W apart at once. [`fan_out`] is the claim-and-merge pool of the
//! PEMI transfer grid and the stateless sweeps' shards, and under
//! [`fan_out_cycles`] of the stateful QUIC and TLS scans; the mux sweep's
//! windowed workers run on [`fan_out_pulled`] underneath it.
//! Each worker usually owns a [`crate::NetShard`] as (part of) its state.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on one claim, keeping the tail fine-grained enough that a
/// late batch of stragglers still spreads across workers.
const MAX_BATCH: usize = 32;

/// Claim state over `0..total`, one region per worker.
///
/// Batch sizes follow guided self-scheduling within a region: a claim takes
/// a quarter of what the region has left (clamped to `1..=`[`MAX_BATCH`]),
/// so early claims amortize the compare-exchange and late claims shrink to
/// single targets for the final balancing. A steal is sized the same way
/// from the victim's remainder.
pub struct StealQueue {
    regions: Vec<Region>,
}

/// The unclaimed part `front..back` of one region, packed into one word
/// (front in the low half) so that a claim at either end is one
/// compare-exchange.
struct Region(AtomicU64);

impl Region {
    fn new(range: Range<usize>) -> Region {
        Region(AtomicU64::new(
            range.start as u64 | (range.end as u64) << 32,
        ))
    }

    fn left(&self) -> usize {
        let word = self.0.load(Ordering::Relaxed);
        ((word >> 32) as usize).saturating_sub(word as u32 as usize)
    }

    /// Claims `size(left)` indices off the front, or off the back when
    /// `from_back`; `None` once the region is empty.
    fn take(&self, from_back: bool, size: impl Fn(usize) -> usize) -> Option<Range<usize>> {
        let mut word = self.0.load(Ordering::Relaxed);
        loop {
            let (front, back) = (word & 0xffff_ffff, word >> 32);
            if front >= back {
                return None;
            }
            let n = size((back - front) as usize) as u64;
            let (claimed, next) = if from_back {
                (back - n..back, front | (back - n) << 32)
            } else {
                (front..front + n, (front + n) | back << 32)
            };
            match self
                .0
                .compare_exchange_weak(word, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return Some(claimed.start as usize..claimed.end as usize),
                Err(current) => word = current,
            }
        }
    }
}

/// The guided batch for a region with `left` indices unclaimed.
fn batch(left: usize) -> usize {
    (left / 4).clamp(1, MAX_BATCH).min(left)
}

impl StealQueue {
    /// A queue over `0..total` split into `workers` regions (one for zero).
    ///
    /// # Panics
    ///
    /// If `total` does not fit in 32 bits, the width of a region's ends.
    pub fn new(total: usize, workers: usize) -> Self {
        assert!(
            u32::try_from(total).is_ok(),
            "a fan-out spans at most u32::MAX indices"
        );
        let workers = workers.max(1);
        StealQueue {
            regions: (0..workers)
                .map(|w| Region::new(w * total / workers..(w + 1) * total / workers))
                .collect(),
        }
    }

    /// Claims the next batch for `worker`: from the front of its own region
    /// (index taken modulo the region count), else from the back of the
    /// region with the most left. `None` once the space is exhausted.
    /// Claims are disjoint and cover `0..total` exactly.
    pub fn claim(&self, worker: usize) -> Option<Range<usize>> {
        let own = &self.regions[worker % self.regions.len()];
        if let Some(claimed) = own.take(false, batch) {
            return Some(claimed);
        }
        loop {
            let victim = self.regions.iter().max_by_key(|r| r.left())?;
            if victim.left() == 0 {
                return None;
            }
            if let Some(claimed) = victim.take(true, batch) {
                return Some(claimed);
            }
        }
    }

    /// Claims the lowest unclaimed index, for a worker that asks index by
    /// index whether it can take more ([`fan_out_pulled`]). A queue drained
    /// only through this hands out `0, 1, 2, …` in order, whichever worker
    /// asks.
    pub fn claim_one(&self) -> Option<usize> {
        self.regions
            .iter()
            .find_map(|r| r.take(false, |_| 1))
            .map(|claimed| claimed.start)
    }
}

/// Runs `per_index(state, i)` for every `i` in `0..total` on `workers`
/// threads claiming batches off one [`StealQueue`], each from its own
/// region first, and returns the results in index order plus, per worker,
/// its state and how many indices it ran.
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
    pool(total, workers, |worker, queue, ran| {
        let mut state = worker_state();
        while let Some(range) = queue.claim(worker) {
            for i in range {
                ran.push((i, per_index(&mut state, i)));
            }
        }
        state
    })
}

/// [`fan_out`] over `0..total` one cycle of `cycle` indices at a time, for
/// a caller whose indices share state at that distance: the scanners'
/// source ports repeat every cycle, and a host's server keys its flows by
/// source port. Regions run indices up to n/W apart at once, so within one
/// fan-out two indices a cycle apart could be live together, and what each
/// saw would depend on W. Cycles run one after the other, as at one worker;
/// after each, `cycle_done` gets its workers' states and counts (as
/// [`fan_out`] returns them) before the next cycle's workers start.
/// Returns the results in index order.
pub fn fan_out_cycles<S: Send, R: Send>(
    total: usize,
    cycle: usize,
    workers: usize,
    worker_state: impl Fn() -> S + Sync,
    per_index: impl Fn(&mut S, usize) -> R + Sync,
    mut cycle_done: impl FnMut(Vec<(S, usize)>),
) -> Vec<R> {
    let cycle = cycle.max(1);
    let mut results = Vec::new();
    let mut start = 0;
    loop {
        let len = cycle.min(total - start);
        let (part, per_worker) = fan_out(len, workers, &worker_state, |state, i| {
            per_index(state, start + i)
        });
        cycle_done(per_worker);
        // The first cycle's vector is moved, not copied: a call of one cycle
        // holds its results once.
        if results.is_empty() {
            results = part;
        } else {
            results.extend(part);
        }
        start += len;
        if start >= total {
            return results;
        }
    }
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
    pool(total, workers, |_, queue, ran| worker(queue, ran))
}

/// The threads and the merge of both fan-outs: `worker` runs once per
/// thread with that thread's index.
fn pool<S: Send, R: Send>(
    total: usize,
    workers: usize,
    worker: impl Fn(usize, &StealQueue, &mut Vec<(usize, R)>) -> S + Sync,
) -> (Vec<R>, Vec<(S, usize)>) {
    let workers = workers.clamp(1, total.max(1));
    let queue = StealQueue::new(total, workers);
    let run_worker = |w| {
        let mut ran = Vec::new();
        let state = worker(w, &queue, &mut ran);
        (state, ran)
    };
    let per_worker: Vec<(S, Vec<(usize, R)>)> = if workers == 1 {
        vec![run_worker(0)]
    } else {
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || run_worker(w)))
                .collect();
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
    use std::sync::atomic::AtomicUsize;

    /// Claims from `workers` claimants in turn, the first taking two for
    /// every one of the others', so it empties its region early and steals.
    fn claim_all(q: &StealQueue, workers: usize) -> Vec<(usize, Range<usize>)> {
        let mut claims = Vec::new();
        let mut done = false;
        while !done {
            done = true;
            for w in std::iter::once(0).chain(0..workers) {
                if let Some(r) = q.claim(w) {
                    claims.push((w, r));
                    done = false;
                }
            }
        }
        claims
    }

    /// Claims are disjoint and cover the space; each region's owner claims
    /// it contiguously from its start, and steals take it contiguously from
    /// its end.
    #[test]
    fn claims_cover_space_exactly_once() {
        let (total, workers) = (1000, 4);
        let q = StealQueue::new(total, workers);
        let claims = claim_all(&q, workers);
        assert!(q.claim(0).is_none() && q.claim_one().is_none());
        let mut seen = vec![false; total];
        for (_, r) in &claims {
            assert!(r.end > r.start && r.end <= total);
            for i in r.clone() {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "every index claimed");
        let region = |i: usize| i * workers / total;
        let mut stole = false;
        for w in 0..workers {
            let (start, end) = (w * total / workers, (w + 1) * total / workers);
            let (own, stolen): (Vec<_>, Vec<_>) = claims
                .iter()
                .filter(|(_, r)| region(r.start) == w)
                .partition(|(by, _)| *by == w);
            let mut next = start;
            for (_, r) in own {
                assert_eq!(r.start, next, "region {w}'s own claims are contiguous");
                next = r.end;
            }
            let mut below = end;
            for (_, r) in stolen {
                assert_eq!(r.end, below, "steals from region {w} come off its back");
                below = r.start;
                stole = true;
            }
            assert_eq!(next, below, "region {w} is covered");
        }
        assert!(stole, "the fast claimant stole");
    }

    #[test]
    fn batches_shrink_toward_the_tail() {
        let (total, workers) = (1000, 4);
        let q = StealQueue::new(total, workers);
        let mut per_region = vec![Vec::new(); workers];
        while let Some(r) = (0..workers).find_map(|w| q.claim(w)) {
            per_region[r.start * workers / total].push(r.len());
        }
        for (w, lens) in per_region.iter().enumerate() {
            assert_eq!(lens[0], 32, "region {w}: big remaining → MAX_BATCH");
            assert!(
                lens.windows(2).all(|p| p[0] >= p[1]),
                "region {w}: {lens:?}"
            );
            assert_eq!(
                lens.last(),
                Some(&1),
                "region {w}: final claims are single targets"
            );
        }
    }

    /// Concurrent workers start n/W apart, in W distinct regions.
    #[test]
    fn first_claims_start_in_distinct_regions() {
        for (total, workers) in [(1000usize, 4usize), (1404, 2), (7, 3)] {
            let q = StealQueue::new(total, workers);
            let starts: Vec<usize> = (0..workers).map(|w| q.claim(w).unwrap().start).collect();
            let expected: Vec<usize> = (0..workers).map(|w| w * total / workers).collect();
            assert_eq!(starts, expected, "{total} over {workers}");
        }
    }

    /// `claim_one` is the mux's admission order: 0, 1, 2, … whichever
    /// region an index lies in.
    #[test]
    fn claim_one_hands_out_indices_in_order() {
        for workers in [1usize, 2, 8] {
            let q = StealQueue::new(100, workers);
            let order: Vec<usize> = std::iter::from_fn(|| q.claim_one()).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{workers} regions");
        }
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let q = StealQueue::new(500, 8);
        let claimed: Vec<Vec<Range<usize>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(r) = q.claim(w) {
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
        assert_eq!(q.claim(0), Some(0..1));
        assert_eq!(q.claim(0), Some(1..2));
        assert_eq!(q.claim(0), Some(2..3));
        assert_eq!(q.claim(0), None);
        assert!(StealQueue::new(0, 4).claim(0).is_none());
        let q = StealQueue::new(2, 4);
        assert_eq!((0..4).filter_map(|w| q.claim(w)).count(), 2);
        assert_eq!(q.claim(3), None);
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

    /// Cycles run whole, one after the other: no index of a cycle starts
    /// before every index of the one before it is done, and each cycle's
    /// states reach `cycle_done` in between.
    #[test]
    fn fan_out_cycles_runs_one_cycle_at_a_time() {
        for (total, cycle, workers) in [
            (0usize, 7usize, 2usize),
            (10, 3, 4),
            (1000, 64, 8),
            (5, 10, 2),
        ] {
            let done = AtomicUsize::new(0);
            let mut cycles = Vec::new();
            let out = fan_out_cycles(
                total,
                cycle,
                workers,
                || (),
                |_, i| {
                    assert!(
                        done.load(Ordering::SeqCst) >= i / cycle * cycle,
                        "{i} ran early"
                    );
                    done.fetch_add(1, Ordering::SeqCst);
                    i * 3
                },
                |per_worker| {
                    cycles.push(per_worker.iter().map(|(_, n)| n).sum::<usize>());
                },
            );
            assert_eq!(out, (0..total).map(|i| i * 3).collect::<Vec<_>>());
            let expected: Vec<usize> = (0..total.div_ceil(cycle).max(1))
                .map(|c| cycle.min(total - c * cycle))
                .collect();
            assert_eq!(cycles, expected, "{total} in cycles of {cycle}");
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
