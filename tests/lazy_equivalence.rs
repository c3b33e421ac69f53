//! Lazy binding pinned by value (the correctness contract of the lazy
//! universe): `Campaign::tiny()` over a lazily bound network must produce
//! the fingerprint and tables committed in `golden/campaign_tiny.txt` — at
//! every worker count and, since the paper-facing aggregates are calibrated
//! to be invariant under faults, under any `SIM_LOSS_PERMILLE` as well.
//!
//! This is what lets the million-endpoint path claim the same semantics as
//! the paper-scale path: the only difference is *when* endpoints come into
//! existence, never *what* they do. The committed values come from a
//! materialized network, and `end_to_end.rs` holds its shared materialized
//! snapshot to the same file.

mod common;

use analysis::Campaign;
use internet::FaultPlan;

use common::{assert_stateful_sections, golden, stateful_sections};

fn lazy(workers: usize) -> Campaign {
    Campaign {
        workers,
        lazy: true,
        ..Campaign::tiny()
    }
}

fn weekly_fingerprint(campaign: &Campaign) -> String {
    format!("{:#018x}\n", campaign.run_weekly(18).fingerprint())
}

#[test]
fn weekly_fingerprints_match_at_any_worker_count() {
    for workers in [1usize, 4, 8] {
        assert_eq!(
            weekly_fingerprint(&lazy(workers)),
            golden("weekly fingerprint"),
            "lazy weekly fingerprint moved at {workers} workers"
        );
    }
}

/// One and eight workers here; the four-worker lazy run is the faulted one
/// below.
#[test]
fn stateful_tables_match_at_any_worker_count() {
    for workers in [1usize, 8] {
        let snap = lazy(workers).run_stateful();
        assert_stateful_sections(&snap, &format!("lazy, {workers} workers"));
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
    assert_stateful_sections(&snap, "lazy, 4 workers, calibrated(50)");

    let b = snap.failure_breakdown();
    assert!(b.no_reply > 0, "{}", b.render());
    assert!(b.unreachable > 0, "{}", b.render());
    assert!(b.rate_limited > 0, "{}", b.render());
}

/// Prints `golden/campaign_tiny.txt` from a clean run over a materialized
/// network:
/// `cargo test -q --test lazy_equivalence -- --ignored --nocapture print_campaign_tiny`.
#[test]
#[ignore]
fn print_campaign_tiny() {
    let clean = Campaign {
        fault: FaultPlan::none(),
        ..Campaign::tiny()
    };
    println!("# Campaign::tiny() (factor 0.05, seed 0x9000, week 18), FaultPlan::none()");
    print!("## weekly fingerprint\n{}", weekly_fingerprint(&clean));
    let snap = clean.run_stateful();
    for (name, text) in stateful_sections(&snap) {
        print!("## {name}\n{text}");
    }
    println!(
        "## failure breakdown, FaultPlan::none()\n{:?}",
        snap.failure_breakdown()
    );
}
