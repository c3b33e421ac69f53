//! Lazy/materialized campaign equivalence (the correctness contract of the
//! lazy universe): with an unbounded cache, a campaign over a lazily bound
//! network must produce byte-identical snapshots, tables, and fingerprints
//! to the fully materialized network — at every worker count.
//!
//! This is what lets the million-endpoint path claim the same semantics as
//! the paper-scale path: the only difference is *when* endpoints come into
//! existence, never *what* they do.

use analysis::{tables, Campaign};

fn materialized() -> Campaign {
    Campaign::tiny()
}

fn lazy(workers: usize) -> Campaign {
    Campaign {
        workers,
        lazy: true,
        ..Campaign::tiny()
    }
}

#[test]
fn weekly_fingerprints_match_at_any_worker_count() {
    let reference = materialized().run_weekly(18).fingerprint();
    for workers in [1usize, 4, 8] {
        let fp = lazy(workers).run_weekly(18).fingerprint();
        assert_eq!(
            fp, reference,
            "lazy weekly fingerprint diverged at {workers} workers"
        );
    }
}

#[test]
fn stateful_tables_match_at_any_worker_count() {
    let reference = materialized().run_stateful();
    let ref_t1 = format!("{:?}", tables::table1(&reference));
    let ref_t3 = tables::render_table3(&tables::table3(&reference));
    let ref_t4 = format!("{:?}", tables::table4(&reference));
    let ref_t6 = format!("{:?}", tables::table6(&reference, 10));
    for workers in [1usize, 4, 8] {
        let snap = lazy(workers).run_stateful();
        assert_eq!(
            format!("{:?}", tables::table1(&snap)),
            ref_t1,
            "table 1 diverged at {workers} workers"
        );
        assert_eq!(
            tables::render_table3(&tables::table3(&snap)),
            ref_t3,
            "table 3 diverged at {workers} workers"
        );
        assert_eq!(
            format!("{:?}", tables::table4(&snap)),
            ref_t4,
            "table 4 diverged at {workers} workers"
        );
        assert_eq!(
            format!("{:?}", tables::table6(&snap, 10)),
            ref_t6,
            "table 6 diverged at {workers} workers"
        );
    }
}
