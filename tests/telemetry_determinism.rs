//! Determinism properties of the telemetry subsystem: tracing must be a
//! pure observer. The merged event stream and the merged metrics are
//! byte-identical at any worker count (flow-local virtual time, index-ordered
//! merges) — pinned by digest in `golden/traced_streams.txt` — and turning
//! tracing on must not perturb a single table cell.

use std::collections::BTreeSet;
use std::sync::Arc;

use its_over_9000::analysis::campaign::{Campaign, FailureBreakdown};
use its_over_9000::analysis::{tables, telemetry_audit};
use its_over_9000::internet::{FaultPlan, Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget};
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::IpAddr;
use its_over_9000::telemetry::{MemorySink, Telemetry};

mod common;

use common::{fnv1a, golden};

/// A mixed target list off the tiny universe: SNI-less addresses plus
/// domain-fronted ones, enough of each that every outcome family shows up.
fn scan_targets(universe: &Universe) -> Vec<QuicTarget> {
    let mut targets = Vec::new();
    for h in universe.hosts.iter().filter(|h| h.v4.is_some()).take(48) {
        targets.push(QuicTarget::new(IpAddr::V4(h.v4.unwrap()), None));
    }
    for d in universe
        .domains
        .iter()
        .filter(|d| !d.v4_hosts.is_empty())
        .take(32)
    {
        if let Some(v4) = universe.hosts[d.v4_hosts[0] as usize].v4 {
            targets.push(QuicTarget::new(IpAddr::V4(v4), Some(d.name.clone())));
        }
    }
    targets
}

/// Runs one traced scan and fingerprints everything the telemetry layer
/// produced, as one line of `golden/traced_streams.txt`: the loss rate, then
/// FNV-1a of the serialized event stream (concatenated JSON records in
/// emission order) and of the rendered metrics snapshot. Also asserts the
/// event-derived failure breakdown matches the result-derived one.
fn traced_line(workers: usize, loss: u32) -> String {
    let universe = Universe::generate(UniverseConfig::tiny(18));
    let plan = if loss == 0 {
        FaultPlan::none()
    } else {
        FaultPlan::calibrated(loss)
    };
    let net = universe.build_network_with_faults(&plan);
    let targets = scan_targets(&universe);
    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 1);

    let sink = Arc::new(MemorySink::new());
    let tel = Telemetry::with_sink(sink.clone());
    let results = scanner.scan_many_traced(&net, &targets, workers, Some(18), &tel);

    let events = sink.events();
    let from_events = telemetry_audit::breakdown_from_events(&events);
    let from_results = FailureBreakdown::from_results(&results);
    assert_eq!(
        from_events, from_results,
        "trace disagrees with results (workers={workers})"
    );

    let stream: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let metrics = tel.metrics.snapshot().render();
    format!(
        "{loss} {:#018x} {:#018x}\n",
        fnv1a(stream.as_bytes()),
        fnv1a(metrics.as_bytes())
    )
}

/// The serialized event stream and the merged metrics of a traced scan
/// are the committed ones whether 2, 4, or 8 workers ran it — with and
/// without injected faults. Flow-local virtual time and the driver's
/// index-ordered merge are what make this hold.
#[test]
fn traced_streams_are_worker_count_invariant() {
    let header = "# loss permille, FNV-1a of the traced scan's event stream, \
                  FNV-1a of its metrics render\n";
    for workers in [2usize, 4, 8] {
        let lines = [0, 50].map(|loss| traced_line(workers, loss)).concat();
        golden::check("traced_streams.txt", &(header.to_owned() + &lines));
    }
}

/// Enabling telemetry on a full stateful campaign changes no table cell:
/// the traced and untraced runs render byte-identical paper tables, and the
/// traced run passes the event-vs-table audit.
#[test]
fn tracing_does_not_perturb_tables() {
    let untraced = Campaign {
        size_factor: 0.02,
        workers: 4,
        ..Campaign::tiny()
    };
    let sink = Arc::new(MemorySink::new());
    let traced = Campaign {
        telemetry: Some(Telemetry::with_sink(sink.clone())),
        ..untraced.clone()
    };

    let snap_untraced = untraced.run_stateful();
    let snap_traced = traced.run_stateful();

    assert_eq!(
        tables::render_table3(&tables::table3(&snap_traced)),
        tables::render_table3(&tables::table3(&snap_untraced)),
        "table 3 changed when tracing was enabled"
    );
    let rows = |snap| tables::table1(snap).len();
    assert_eq!(rows(&snap_traced), rows(&snap_untraced));
    assert_eq!(
        snap_traced.failure_breakdown(),
        snap_untraced.failure_breakdown(),
        "failure breakdown changed when tracing was enabled"
    );

    let events = sink.events();
    let breakdown = telemetry_audit::audit_stateful(&snap_traced, &events)
        .expect("telemetry audit must pass on a traced campaign");
    assert!(
        breakdown.total() > 0,
        "traced campaign produced no outcomes"
    );

    // One verdict per QUIC target, each on its own flow: the no-SNI and SNI
    // targets share no scan index.
    let verdicts = events.iter().filter(|e| e.kind.name() == "outcome_decided");
    let flows: Vec<u64> = verdicts.map(|e| e.flow).collect();
    let distinct = flows.iter().collect::<BTreeSet<_>>().len();
    let targets = snap_traced.quic_no_sni.len() + snap_traced.quic_sni.len();
    assert_eq!((flows.len(), distinct), (targets, targets));
}
