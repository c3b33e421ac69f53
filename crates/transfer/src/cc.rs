//! Congestion control for the data plane: NewReno, the one controller the
//! sender runs.
//!
//! The shape follows RFC 9002 §7 / `s2n-quic-core`'s recovery: a
//! byte-counted window, sent/acked/lost hooks, and a congestion event that
//! collapses the window at most once per recovery period.

/// Maximum datagram payload the sender plans for (fits the default simnet
/// path with header + tag overhead to spare).
pub const MAX_DATAGRAM: u64 = 1200;

/// NewReno per RFC 9002 §7.3: slow start doubles per RTT, congestion
/// avoidance adds one datagram per window, a congestion event halves the
/// window once per recovery period.
#[derive(Debug)]
pub struct NewReno {
    cwnd: u64,
    ssthresh: u64,
    in_flight: u64,
    /// Start of the current recovery period; packets sent at or before this
    /// time neither grow nor re-collapse the window.
    recovery_start_us: Option<u64>,
    /// Fractional congestion-avoidance credit (bytes acked since the last
    /// full-window increment).
    avoidance_credit: u64,
}

/// RFC 9002 §7.2 initial window: min(10 × max_datagram, max(2 × max_datagram, 14720)).
pub const INITIAL_WINDOW: u64 = 12_000;
/// Minimum window after collapse: 2 × max_datagram.
pub const MIN_WINDOW: u64 = 2 * MAX_DATAGRAM;

impl NewReno {
    /// A fresh controller at the RFC 9002 initial window.
    pub fn new() -> Self {
        NewReno {
            cwnd: INITIAL_WINDOW,
            ssthresh: u64::MAX,
            in_flight: 0,
            recovery_start_us: None,
            avoidance_credit: 0,
        }
    }

    /// A packet of `bytes` entered the network.
    pub fn on_packet_sent(&mut self, bytes: u64) {
        self.in_flight += bytes;
    }

    /// A packet of `bytes` sent at `sent_us` was newly acknowledged.
    pub fn on_packet_acked(&mut self, bytes: u64, sent_us: u64) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
        // No growth for packets sent before the recovery period started
        // (RFC 9002 §7.3.2).
        if let Some(recovery) = self.recovery_start_us {
            if sent_us <= recovery {
                return;
            }
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += bytes; // slow start
        } else {
            self.avoidance_credit += bytes;
            while self.avoidance_credit >= self.cwnd {
                self.avoidance_credit -= self.cwnd;
                self.cwnd += MAX_DATAGRAM;
            }
        }
    }

    /// A packet sent at `sent_us` was declared lost at `now_us`; collapses
    /// the window unless the loss falls inside the current recovery period.
    pub fn on_congestion_event(&mut self, sent_us: u64, now_us: u64) {
        // One collapse per recovery period: only a loss of a packet sent
        // after recovery began starts a new period.
        if let Some(recovery) = self.recovery_start_us {
            if sent_us <= recovery {
                return;
            }
        }
        self.recovery_start_us = Some(now_us);
        self.ssthresh = (self.cwnd / 2).max(MIN_WINDOW);
        self.cwnd = self.ssthresh;
        self.avoidance_credit = 0;
    }

    /// Bytes leave the in-flight count without being acknowledged (declared
    /// lost or abandoned).
    pub fn on_bytes_discarded(&mut self, bytes: u64) {
        self.in_flight = self.in_flight.saturating_sub(bytes);
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Slow-start threshold in bytes (`u64::MAX` before the first loss).
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// Bytes currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// True when another `bytes`-sized packet fits the window.
    pub fn can_send(&self, bytes: u64) -> bool {
        self.in_flight.saturating_add(bytes) <= self.cwnd
    }

    /// Phase label for telemetry ("slow_start" / "avoidance" / "recovery").
    pub fn phase(&self) -> &'static str {
        if self.ssthresh == u64::MAX || self.cwnd < self.ssthresh {
            "slow_start"
        } else if self.cwnd == self.ssthresh && self.avoidance_credit == 0 {
            "recovery"
        } else {
            "avoidance"
        }
    }
}

impl Default for NewReno {
    fn default() -> Self {
        NewReno::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = NewReno::new();
        assert_eq!(cc.cwnd(), INITIAL_WINDOW);
        // Ack a full initial window's worth of packets: window doubles.
        for i in 0..10 {
            cc.on_packet_sent(1200);
            cc.on_packet_acked(1200, 1000 + i);
        }
        assert_eq!(cc.cwnd(), 2 * INITIAL_WINDOW);
        assert_eq!(cc.phase(), "slow_start");
    }

    #[test]
    fn congestion_event_halves_once_per_period() {
        let mut cc = NewReno::new();
        for _ in 0..20 {
            cc.on_packet_sent(1200);
            cc.on_packet_acked(1200, 1);
        }
        let before = cc.cwnd();
        cc.on_congestion_event(100, 1000);
        assert_eq!(cc.cwnd(), before / 2);
        // A second loss from the same flight (sent before recovery began)
        // must not halve again.
        cc.on_congestion_event(500, 1500);
        assert_eq!(cc.cwnd(), before / 2);
        // A loss of a packet sent after recovery started opens a new period.
        cc.on_congestion_event(2000, 2500);
        assert_eq!(cc.cwnd(), before / 4);
    }

    #[test]
    fn avoidance_adds_one_datagram_per_window() {
        let mut cc = NewReno::new();
        cc.on_congestion_event(1, 2); // cwnd -> 6000, ssthresh 6000
        let w = cc.cwnd();
        let mut acked = 0;
        while acked < w {
            cc.on_packet_sent(1200);
            cc.on_packet_acked(1200, 10);
            acked += 1200;
        }
        assert_eq!(cc.cwnd(), w + MAX_DATAGRAM);
        assert_eq!(cc.phase(), "avoidance");
    }

    #[test]
    fn window_floor_holds() {
        let mut cc = NewReno::new();
        let mut t = 10;
        for _ in 0..10 {
            cc.on_congestion_event(t, t + 1);
            t += 10;
        }
        assert_eq!(cc.cwnd(), MIN_WINDOW);
    }

    #[test]
    fn no_growth_for_pre_recovery_acks() {
        let mut cc = NewReno::new();
        cc.on_packet_sent(1200);
        cc.on_congestion_event(50, 100);
        let w = cc.cwnd();
        cc.on_packet_acked(1200, 50); // sent before recovery start
        assert_eq!(cc.cwnd(), w);
        assert_eq!(cc.in_flight(), 0);
    }
}
