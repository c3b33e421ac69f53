//! Closes the telemetry loop: rebuilds the campaign's
//! [`FailureBreakdown`] from the qlog event stream alone and checks it
//! against the table-derived one. If the trace and the tables ever
//! disagree, either an event went missing (an instrumentation gap) or an
//! outcome label drifted from the [`qscanner::ScanOutcome`] taxonomy — both
//! bugs this audit turns into a hard failure.

use telemetry::{Event, EventKind};

use crate::campaign::{FailureBreakdown, StatefulSnapshot};

/// Tallies one `outcome_decided` label into a breakdown. Labels come from
/// [`qscanner::ScanOutcome::label`]: the coarse family name, with transport
/// closes carrying their code (`close:0x128`) and `other` its error text.
pub fn tally_label(b: &mut FailureBreakdown, label: &str) {
    match label {
        "success" => b.success += 1,
        "no_reply" => b.no_reply += 1,
        "stalled" => b.stalled += 1,
        "unreachable" => b.unreachable += 1,
        "rate_limited" => b.rate_limited += 1,
        "version_mismatch" => b.version_mismatch += 1,
        "close:0x128" => b.crypto_0x128 += 1,
        l if l.starts_with("close:") => b.other_close += 1,
        _ => b.other += 1,
    }
}

/// Rebuilds a [`FailureBreakdown`] from an event stream, counting only
/// `outcome_decided` events (one per scanned target).
pub fn breakdown_from_events(events: &[Event]) -> FailureBreakdown {
    let mut b = FailureBreakdown::default();
    for e in events {
        if let EventKind::OutcomeDecided { outcome } = &e.kind {
            tally_label(&mut b, outcome);
        }
    }
    b
}

/// Asserts the event-derived breakdown equals the table-derived one for a
/// stateful snapshot. Returns the (agreeing) breakdown, or a report of the
/// disagreement.
pub fn audit_stateful(
    snap: &StatefulSnapshot,
    events: &[Event],
) -> Result<FailureBreakdown, String> {
    let from_events = breakdown_from_events(events);
    let from_tables = snap.failure_breakdown();
    if from_events == from_tables {
        Ok(from_events)
    } else {
        Err(format!(
            "telemetry audit failed: event-derived and table-derived failure \
             breakdowns disagree\n-- from events --\n{}-- from tables --\n{}",
            from_events.render(),
            from_tables.render(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TraceCtx;

    fn outcome_event(flow: u64, label: &str) -> Vec<Event> {
        let mut ctx = TraceCtx::new(flow, format!("t{flow}"), Some(18));
        ctx.record(EventKind::OutcomeDecided {
            outcome: label.to_string(),
        });
        ctx.finish()
    }

    #[test]
    fn labels_rebuild_every_bucket() {
        let mut events = Vec::new();
        for (i, label) in [
            "success",
            "no_reply",
            "stalled",
            "unreachable",
            "rate_limited",
            "close:0x128",
            "close:0x2",
            "version_mismatch",
            "other:tls: alert",
        ]
        .iter()
        .enumerate()
        {
            events.extend(outcome_event(i as u64, label));
        }
        // Non-outcome events must not perturb the tally.
        let mut ctx = TraceCtx::new(99, "noise", None);
        ctx.record(EventKind::RetryReceived);
        events.extend(ctx.finish());

        let b = breakdown_from_events(&events);
        assert_eq!(b.success, 1);
        assert_eq!(b.no_reply, 1);
        assert_eq!(b.stalled, 1);
        assert_eq!(b.unreachable, 1);
        assert_eq!(b.rate_limited, 1);
        assert_eq!(b.crypto_0x128, 1);
        assert_eq!(b.other_close, 1);
        assert_eq!(b.version_mismatch, 1);
        assert_eq!(b.other, 1);
        assert_eq!(b.total(), 9);
    }

    #[test]
    fn label_scheme_roundtrips_scan_outcomes() {
        use qscanner::ScanOutcome;
        // Every ScanOutcome must land in the same bucket whether tallied
        // directly or via its label — the invariant the audit rests on.
        let outcomes = [
            ScanOutcome::Success,
            ScanOutcome::NoReply,
            ScanOutcome::Stalled,
            ScanOutcome::Unreachable,
            ScanOutcome::RateLimited,
            ScanOutcome::TransportClose {
                code: 0x128,
                reason: "a".into(),
            },
            ScanOutcome::TransportClose {
                code: 0x2,
                reason: "b".into(),
            },
            ScanOutcome::VersionMismatch,
            ScanOutcome::Other("protocol: x".into()),
        ];
        for o in &outcomes {
            let mut direct = FailureBreakdown::default();
            direct.tally(o);
            let mut via_label = FailureBreakdown::default();
            tally_label(&mut via_label, &o.label());
            assert_eq!(direct, via_label, "bucket drift for {o:?}");
        }
    }
}
