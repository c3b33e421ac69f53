//! qlog-style observability for the scan pipeline.
//!
//! The paper's tool chain ran as a black box: a campaign produced final
//! tables, and when a handshake stalled or a `FailureBreakdown` row moved,
//! nothing recorded *why*. The QUIC ecosystem answered the same problem with
//! qlog — structured, per-connection event traces — and this crate brings
//! that shape to the simulated pipeline, in two halves:
//!
//! * **Tracing** ([`event`], [`trace`], [`sink`]): a per-connection
//!   [`TraceCtx`] collects typed [`Event`]s (packets, PTO firings, key
//!   derivations, injected faults, final verdicts) and scan drivers merge
//!   the per-target event lists **in target-index order** into an
//!   [`EventSink`] (a JSON-SEQ file, memory, or both).
//! * **Metrics** ([`metrics`]): plain per-worker [`LocalMetrics`] (counters,
//!   gauges, fixed-bucket histograms) updated with zero synchronization on
//!   the hot path and submitted once per shard to a [`MetricsRegistry`],
//!   which merges submissions index-ordered — the same discipline as the
//!   sharded sweep's result merge.
//!
//! ## Determinism rules
//!
//! Traces must be **byte-identical at any worker count** for the same seed.
//! Two rules make that hold, and every integration must follow them:
//!
//! 1. **Virtual time only, and flow-local.** Event timestamps are the
//!    connection's own elapsed virtual microseconds ([`TraceCtx::advance`]),
//!    mirroring the driver's local budget arithmetic — never the wall clock
//!    and never the *shared* sim clock, which other workers advance
//!    concurrently.
//! 2. **No emission-order dependence.** Workers never write to a sink
//!    directly; they return finished per-target event lists that the driver
//!    emits in scan-index order, exactly like sharded results.

pub mod event;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use event::{Event, EventKind, FaultKind};
pub use metrics::{Histogram, LocalMetrics, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, FanoutSink, JsonSeqFileSink, MemorySink};
pub use trace::TraceCtx;

use std::sync::Arc;

/// The handle scanners carry: an optional event sink plus the shared metrics
/// registry. Cloning is cheap (two `Arc`s); `None` anywhere on a hot path
/// must cost one branch and nothing else.
#[derive(Clone)]
pub struct Telemetry {
    /// Destination for merged event streams (`None` = metrics only).
    pub sink: Option<Arc<dyn EventSink>>,
    /// Registry collecting per-shard metric submissions.
    pub metrics: Arc<MetricsRegistry>,
}

impl Telemetry {
    /// Telemetry writing events to `sink`.
    pub fn with_sink(sink: Arc<dyn EventSink>) -> Self {
        Telemetry {
            sink: Some(sink),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Emits a batch of events, in order, to the sink (no-op without one).
    pub fn emit_all(&self, events: &[Event]) {
        if let Some(sink) = &self.sink {
            for e in events {
                sink.emit(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_without_sink_swallows_events() {
        let t = Telemetry {
            sink: None,
            metrics: Arc::new(MetricsRegistry::new()),
        };
        t.emit_all(&[Event {
            t_us: 0,
            flow: 1,
            seq: 0,
            target: "10.0.0.1".into(),
            week: None,
            kind: EventKind::RetryReceived,
        }]);
        assert!(t.sink.is_none());
    }

    #[test]
    fn handle_with_sink_forwards_in_order() {
        let mem = Arc::new(MemorySink::new());
        let t = Telemetry::with_sink(mem.clone());
        let mk = |seq| Event {
            t_us: seq,
            flow: 7,
            seq,
            target: "t".into(),
            week: Some(18),
            kind: EventKind::PtoFired {
                count: seq as u32,
                wait_us: 1,
            },
        };
        t.emit_all(&[mk(0), mk(1), mk(2)]);
        let got = mem.events();
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }
}
