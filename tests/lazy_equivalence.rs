//! Lazy binding pinned by value (the correctness contract of the lazy
//! universe): `Campaign::tiny()` over a lazily bound network must produce
//! the fingerprint and tables committed in `golden/campaign_tiny.txt` — at
//! every worker count and, since the paper-facing aggregates are calibrated
//! to be invariant under faults, under any `SIM_LOSS_PERMILLE` as well.
//!
//! This is what lets the million-endpoint path claim the same semantics as
//! the paper-scale path: the only difference is *when* endpoints come into
//! existence, never *what* they do: `end_to_end.rs` holds a materialized
//! network's snapshot to the same file.

mod common;

use analysis::Campaign;
use internet::FaultPlan;

use common::{check_stateful_sections, golden};

fn lazy(workers: usize) -> Campaign {
    Campaign {
        workers,
        lazy: true,
        ..Campaign::tiny()
    }
}

#[test]
fn weekly_fingerprints_match_at_any_worker_count() {
    for workers in [1usize, 4, 8] {
        let fingerprint = format!("{:#018x}\n", lazy(workers).run_weekly(18).fingerprint());
        golden::check_section("campaign_tiny.txt", "weekly fingerprint", &fingerprint);
    }
}

/// One and eight workers here; the four-worker lazy run is the faulted one
/// below.
#[test]
fn stateful_tables_match_at_any_worker_count() {
    for workers in [1usize, 8] {
        check_stateful_sections(&lazy(workers).run_stateful());
    }
}

/// The paper-facing aggregates of a stateful campaign are invariant under
/// the calibrated fault plan — the faulted run lands on the committed
/// discovery, successes and tables, so on the clean run's success and
/// timeout counts — while the failure-mode breakdown tells what went wrong:
/// the timeout mass is split over all three silent modes the plan injects.
/// (`end_to_end.rs` holds a clean run to the committed clean breakdown.)
#[test]
fn stateful_aggregates_invariant_under_calibrated_faults() {
    let faulted = Campaign {
        fault: FaultPlan::calibrated(50),
        ..lazy(4)
    };
    let snap = faulted.run_stateful();
    check_stateful_sections(&snap);

    let b = snap.failure_breakdown();
    assert!(b.no_reply > 0, "{}", b.render());
    assert!(b.unreachable > 0, "{}", b.render());
    assert!(b.rate_limited > 0, "{}", b.render());
}
