//! Pluggable stream scheduling for the multiplexed sender.
//!
//! [`DataSender`](crate::sender::DataSender) asks its scheduler which ready
//! stream to serve every time it cuts the next chunk, once for the
//! retransmission phase (streams with queued lost spans) and once for the
//! new-data phase (streams with credit-admissible bytes or an unsent FIN).
//! Retransmissions always outrank new data — front-of-line healing is what
//! keeps goodput up under loss — so the scheduler only orders streams
//! *within* each phase.
//!
//! Three policies ship:
//!
//! - [`IdOrder`] — lowest stream id first, the legacy (PR 6) policy and the
//!   default, so existing single-stream workload tables stay byte-identical.
//! - [`RoundRobin`] — fair rotation across ready streams, the HTTP/3
//!   default when every request shares one urgency.
//! - [`StrictPriority`] — HTTP/3-style urgency buckets (RFC 9218: 0 is most
//!   urgent, 7 least): the lowest-urgency bucket with ready streams drains
//!   first, round-robin within the bucket. Lower buckets cannot starve
//!   forever because a bucket only holds the floor while it has sendable
//!   work — once its streams complete (or stall on credit), the next bucket
//!   drains.
//!
//! Every policy is a pure function of its own cursor state and the ready
//! list (which is derived from sender state, itself flow-local), so
//! scheduling decisions are deterministic and worker-count-invariant.

/// Number of urgency buckets (RFC 9218 urgency 0..=7).
pub const URGENCY_BUCKETS: usize = 8;

/// The default urgency for streams that never had one assigned (RFC 9218
/// defines 3 as the default priority).
pub const DEFAULT_URGENCY: u8 = 3;

/// Copyable scheduler selector for configs ([`StreamScheduler`] objects are
/// stateful boxes; configs carry the kind and build per connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Lowest stream id first (legacy default).
    #[default]
    IdOrder,
    /// Fair rotation across ready streams.
    RoundRobin,
    /// Urgency buckets, round-robin within each.
    StrictPriority,
}

impl SchedKind {
    /// A fresh scheduler of this kind.
    pub fn build(self) -> Box<dyn StreamScheduler> {
        match self {
            SchedKind::IdOrder => Box::new(IdOrder),
            SchedKind::RoundRobin => Box::new(RoundRobin::default()),
            SchedKind::StrictPriority => Box::new(StrictPriority::default()),
        }
    }

    /// Policy name (matches the built scheduler's).
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::IdOrder => "id-order",
            SchedKind::RoundRobin => "round-robin",
            SchedKind::StrictPriority => "strict-priority",
        }
    }
}

/// One stream with sendable work in the current phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyStream {
    /// Stream id.
    pub id: u64,
    /// Urgency bucket 0 (most urgent) ..= 7 (least).
    pub urgency: u8,
}

/// Picks which ready stream the sender serves next.
///
/// `ready` is non-empty and sorted by ascending stream id; the return value
/// indexes into it. Called once per chunk, so implementations should be
/// O(ready) or better.
pub trait StreamScheduler: Send {
    /// Index into `ready` of the stream to serve.
    fn pick(&mut self, ready: &[ReadyStream]) -> usize;
    /// Policy name for telemetry and reports.
    fn name(&self) -> &'static str;
}

/// Legacy policy: always the lowest stream id. Matches the pre-mux sender
/// exactly, chunk for chunk.
#[derive(Debug, Default)]
pub struct IdOrder;

impl StreamScheduler for IdOrder {
    fn pick(&mut self, _ready: &[ReadyStream]) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "id-order"
    }
}

/// Fair rotation: the smallest ready id strictly greater than the last
/// served id, wrapping to the smallest ready id. Streams joining or leaving
/// the ready set do not reset the cursor, so long-lived streams cannot be
/// starved by churn.
#[derive(Debug, Default)]
pub struct RoundRobin {
    last: Option<u64>,
}

impl RoundRobin {
    /// Picks from `ready` with an explicit cursor slot (shared by
    /// [`StrictPriority`]'s per-bucket cursors).
    fn pick_after(last: &mut Option<u64>, ready: &[ReadyStream]) -> usize {
        let idx = match *last {
            // First ready id strictly above the cursor, else wrap to 0.
            Some(prev) => ready.iter().position(|r| r.id > prev).unwrap_or(0),
            None => 0,
        };
        *last = Some(ready[idx].id);
        idx
    }
}

impl StreamScheduler for RoundRobin {
    fn pick(&mut self, ready: &[ReadyStream]) -> usize {
        Self::pick_after(&mut self.last, ready)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// HTTP/3-style strict priority: the most urgent bucket with ready streams
/// wins; round-robin within the bucket (per-bucket cursors survive across
/// picks, so equal-urgency streams share fairly).
#[derive(Debug, Default)]
pub struct StrictPriority {
    last: [Option<u64>; URGENCY_BUCKETS],
}

impl StreamScheduler for StrictPriority {
    fn pick(&mut self, ready: &[ReadyStream]) -> usize {
        let top = ready
            .iter()
            .map(|r| r.urgency)
            .min()
            .expect("ready is non-empty");
        let bucket: Vec<ReadyStream> = ready.iter().copied().filter(|r| r.urgency == top).collect();
        let cursor = &mut self.last[usize::from(top).min(URGENCY_BUCKETS - 1)];
        let chosen = bucket[RoundRobin::pick_after(cursor, &bucket)].id;
        ready
            .iter()
            .position(|r| r.id == chosen)
            .expect("chosen from ready")
    }

    fn name(&self) -> &'static str {
        "strict-priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(ids: &[(u64, u8)]) -> Vec<ReadyStream> {
        ids.iter()
            .map(|&(id, urgency)| ReadyStream { id, urgency })
            .collect()
    }

    #[test]
    fn id_order_always_picks_lowest() {
        let mut s = IdOrder;
        let r = ready(&[(0, 3), (4, 3), (8, 3)]);
        for _ in 0..5 {
            assert_eq!(r[s.pick(&r)].id, 0);
        }
    }

    #[test]
    fn round_robin_rotates_and_wraps() {
        let mut s = RoundRobin::default();
        let r = ready(&[(0, 3), (4, 3), (8, 3)]);
        let picks: Vec<u64> = (0..7).map(|_| r[s.pick(&r)].id).collect();
        assert_eq!(picks, vec![0, 4, 8, 0, 4, 8, 0]);
    }

    #[test]
    fn round_robin_cursor_survives_ready_set_churn() {
        let mut s = RoundRobin::default();
        let r = ready(&[(0, 3), (4, 3), (8, 3)]);
        assert_eq!(r[s.pick(&r)].id, 0);
        // Stream 4 leaves the ready set: the cursor still moves past it.
        let r = ready(&[(0, 3), (8, 3)]);
        assert_eq!(r[s.pick(&r)].id, 8);
        // Stream 4 rejoins after the wrap.
        let r = ready(&[(0, 3), (4, 3), (8, 3)]);
        assert_eq!(r[s.pick(&r)].id, 0);
        assert_eq!(r[s.pick(&r)].id, 4);
    }

    #[test]
    fn strict_priority_serves_most_urgent_bucket_first() {
        let mut s = StrictPriority::default();
        let r = ready(&[(0, 7), (4, 0), (8, 0), (12, 3)]);
        // Bucket 0 wins and round-robins internally.
        assert_eq!(r[s.pick(&r)].id, 4);
        assert_eq!(r[s.pick(&r)].id, 8);
        assert_eq!(r[s.pick(&r)].id, 4);
        // Urgent streams done: the next bucket drains (no starvation).
        let r = ready(&[(0, 7), (12, 3)]);
        assert_eq!(r[s.pick(&r)].id, 12);
        let r = ready(&[(0, 7)]);
        assert_eq!(r[s.pick(&r)].id, 0);
    }

    #[test]
    fn schedulers_are_deterministic() {
        let seq = |mut s: Box<dyn StreamScheduler>| -> Vec<u64> {
            let r = ready(&[(0, 1), (4, 0), (8, 1), (12, 0)]);
            (0..12).map(|_| r[s.pick(&r)].id).collect()
        };
        assert_eq!(
            seq(Box::<RoundRobin>::default()),
            seq(Box::<RoundRobin>::default())
        );
        assert_eq!(
            seq(Box::<StrictPriority>::default()),
            seq(Box::<StrictPriority>::default())
        );
    }
}
