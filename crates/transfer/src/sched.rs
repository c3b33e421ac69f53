//! Stream scheduling for the multiplexed sender.
//!
//! [`DataSender`](crate::sender::DataSender) asks its `Scheduler` which
//! ready stream to serve every time it cuts the next chunk, once for the
//! retransmission phase (streams with queued lost spans) and once for the
//! new-data phase (streams with credit-admissible bytes or an unsent FIN).
//! Retransmissions always outrank new data — front-of-line healing is what
//! keeps goodput up under loss — so the scheduler only orders streams
//! *within* each phase. Both phases share one cursor.
//!
//! Two policies ship:
//!
//! - [`SchedKind::IdOrder`] — lowest stream id first, the default: a
//!   single-stream download or the RTC sender never needs more.
//! - [`SchedKind::RoundRobin`] — fair rotation across ready streams, the
//!   HTTP/3 default when every request shares one urgency.
//!
//! A pick is a pure function of the cursor and the ready ids (derived from
//! sender state, itself flow-local), so scheduling decisions are
//! deterministic and worker-count-invariant.

/// Stream scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Lowest stream id first (legacy default).
    #[default]
    IdOrder,
    /// Fair rotation across ready streams.
    RoundRobin,
}

impl SchedKind {
    /// Policy name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::IdOrder => "id-order",
            SchedKind::RoundRobin => "round-robin",
        }
    }
}

/// A policy and its cursor: the stream it served last.
#[derive(Debug)]
pub(crate) struct Scheduler {
    kind: SchedKind,
    last: Option<u64>,
}

impl Scheduler {
    pub(crate) fn new(kind: SchedKind) -> Self {
        Scheduler { kind, last: None }
    }

    /// The stream to serve next out of `ready` (ascending stream ids), or
    /// `None` when nothing is ready. Round robin takes the first id past the
    /// last one served, wrapping to the first; streams joining or leaving
    /// the ready set do not reset the cursor, so churn cannot starve a
    /// long-lived stream.
    pub(crate) fn pick(&mut self, mut ready: impl Iterator<Item = u64>) -> Option<u64> {
        let first = ready.next()?;
        let id = match (self.kind, self.last) {
            (SchedKind::RoundRobin, Some(prev)) if first <= prev => {
                ready.find(|&id| id > prev).unwrap_or(first)
            }
            _ => first,
        };
        self.last = Some(id);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_order_always_picks_lowest() {
        let mut s = Scheduler::new(SchedKind::IdOrder);
        for _ in 0..5 {
            assert_eq!(s.pick([0, 4, 8].into_iter()), Some(0));
        }
        assert_eq!(s.pick(std::iter::empty()), None);
    }

    #[test]
    fn round_robin_rotates_and_wraps() {
        let mut s = Scheduler::new(SchedKind::RoundRobin);
        let picks: Vec<u64> = (0..7)
            .map(|_| s.pick([0, 4, 8].into_iter()).expect("ready"))
            .collect();
        assert_eq!(picks, vec![0, 4, 8, 0, 4, 8, 0]);
    }

    #[test]
    fn round_robin_cursor_survives_ready_set_churn() {
        let mut s = Scheduler::new(SchedKind::RoundRobin);
        assert_eq!(s.pick([0, 4, 8].into_iter()), Some(0));
        // Stream 4 leaves the ready set: the cursor still moves past it.
        assert_eq!(s.pick([0, 8].into_iter()), Some(8));
        // Nothing ready leaves the cursor where it was.
        assert_eq!(s.pick(std::iter::empty()), None);
        // Stream 4 rejoins after the wrap.
        assert_eq!(s.pick([0, 4, 8].into_iter()), Some(0));
        assert_eq!(s.pick([0, 4, 8].into_iter()), Some(4));
    }
}
