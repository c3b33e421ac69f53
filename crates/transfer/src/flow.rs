//! Connection- and stream-level flow control (RFC 9000 §4). `TxFlow` tracks
//! a limit the peer granted us (MAX_DATA / MAX_STREAM_DATA); `RxFlow` tracks
//! what we granted the peer and decides when to extend the window.

/// Sender-side credit: how much the peer allows us to send.
#[derive(Debug, Clone)]
pub struct TxFlow {
    limit: u64,
    used: u64,
}

impl TxFlow {
    /// Starts from the peer's initial limit (transport parameter).
    pub fn new(initial_limit: u64) -> Self {
        TxFlow {
            limit: initial_limit,
            used: 0,
        }
    }

    /// Raises the limit (MAX_DATA / MAX_STREAM_DATA received); limits never
    /// shrink.
    pub fn update_limit(&mut self, limit: u64) {
        self.limit = self.limit.max(limit);
    }

    /// Bytes still sendable under the current limit.
    pub fn available(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// True when the flow is blocked at the limit.
    pub fn blocked(&self) -> bool {
        self.used >= self.limit
    }

    /// Consumes `bytes` of credit (new data only — retransmissions don't
    /// count against flow control).
    pub fn consume(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.available());
        self.used += bytes;
    }

    /// Total new bytes sent so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The current limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

/// Receiver-side credit: what we grant the peer. Extends the window once the
/// peer has consumed half of it, the common autotuning-free strategy.
#[derive(Debug, Clone)]
pub struct RxFlow {
    window: u64,
    limit: u64,
    delivered: u64,
}

impl RxFlow {
    /// Grants an initial window of `window` bytes.
    pub fn new(window: u64) -> Self {
        RxFlow {
            window,
            limit: window,
            delivered: 0,
        }
    }

    /// Records `bytes` of newly delivered (in-order, deduplicated) data.
    pub fn on_delivered(&mut self, bytes: u64) {
        self.delivered += bytes;
    }

    /// When more than half the window is consumed, returns the new limit to
    /// advertise (delivered + window); otherwise `None`.
    pub fn take_update(&mut self) -> Option<u64> {
        let target = self.delivered + self.window;
        if target.saturating_sub(self.limit) >= self.window / 2 {
            self.limit = target;
            Some(target)
        } else {
            None
        }
    }

    /// The limit currently advertised to the peer.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_blocks_at_limit_and_resumes_on_update() {
        let mut tx = TxFlow::new(100);
        tx.consume(100);
        assert!(tx.blocked());
        assert_eq!(tx.available(), 0);
        tx.update_limit(250);
        assert!(!tx.blocked());
        assert_eq!(tx.available(), 150);
        // Stale (smaller) update is ignored.
        tx.update_limit(200);
        assert_eq!(tx.limit(), 250);
    }

    #[test]
    fn rx_updates_at_half_window() {
        let mut rx = RxFlow::new(1000);
        rx.on_delivered(400);
        assert_eq!(rx.take_update(), None, "below half window");
        rx.on_delivered(100);
        assert_eq!(rx.take_update(), Some(1500), "half consumed: extend");
        assert_eq!(rx.take_update(), None, "no repeat until more delivered");
        rx.on_delivered(500);
        assert_eq!(rx.take_update(), Some(2000));
    }
}
