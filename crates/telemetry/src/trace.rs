//! Per-connection trace context.
//!
//! A [`TraceCtx`] belongs to exactly one scan target. It owns the flow's
//! **local virtual clock**: the driver advances it with the same arithmetic
//! it applies to its per-target time budget (RTT per exchange, PTO waits,
//! attempt backoff). That keeps timestamps worker-count independent — the
//! shared `simnet` clock is advanced concurrently by other workers, so it
//! must never leak into a trace.

use crate::event::{Event, EventKind, FaultKind};

/// Collects the events of one scanned target, stamping each with the
/// flow-local virtual time and a per-flow sequence number.
#[derive(Debug)]
pub struct TraceCtx {
    flow: u64,
    target: String,
    week: Option<u32>,
    t_us: u64,
    seq: u64,
    events: Vec<Event>,
}

impl TraceCtx {
    /// Fresh context for `target` on flow id `flow` (virtual time 0).
    pub fn new(flow: u64, target: impl Into<String>, week: Option<u32>) -> Self {
        TraceCtx {
            flow,
            target: target.into(),
            week,
            t_us: 0,
            seq: 0,
            events: Vec::new(),
        }
    }

    /// The flow id events are attributed to.
    pub fn flow(&self) -> u64 {
        self.flow
    }

    /// Current flow-local virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.t_us
    }

    /// Advances the flow-local clock. Call with exactly the durations the
    /// scan driver charges against its own budget (RTT, PTO, backoff).
    pub fn advance(&mut self, us: u64) {
        self.t_us = self.t_us.saturating_add(us);
    }

    /// Records `kind` at the current virtual time.
    pub fn record(&mut self, kind: EventKind) {
        self.events.push(Event {
            t_us: self.t_us,
            flow: self.flow,
            seq: self.seq,
            target: self.target.clone(),
            week: self.week,
            kind,
        });
        self.seq += 1;
    }

    /// Convenience: records a [`EventKind::FaultInjected`] event.
    pub fn fault(&mut self, fault: FaultKind) {
        self.record(EventKind::FaultInjected { fault });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the context, returning its events in record order.
    pub fn finish(self) -> Vec<Event> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_flow_seq_and_local_time() {
        let mut ctx = TraceCtx::new(42, "10.0.0.9", Some(20));
        ctx.record(EventKind::AttemptStarted {
            attempt: 0,
            version: "draft-29".into(),
        });
        ctx.advance(40_000);
        ctx.record(EventKind::PtoFired {
            count: 1,
            wait_us: 120_000,
        });
        ctx.advance(120_000);
        ctx.fault(FaultKind::ForwardLoss);
        let events = ctx.finish();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].t_us, 0);
        assert_eq!(events[1].t_us, 40_000);
        assert_eq!(events[2].t_us, 160_000);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.flow, 42);
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.week, Some(20));
            assert_eq!(e.target, "10.0.0.9");
        }
    }

    #[test]
    fn advance_saturates() {
        let mut ctx = TraceCtx::new(0, "t", None);
        ctx.advance(u64::MAX);
        ctx.advance(1);
        assert_eq!(ctx.now(), u64::MAX);
    }
}
