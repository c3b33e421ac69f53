//! Traffic accounting. The paper notes that the padded QUIC probes generate
//! "at least a magnitude more traffic" than a TCP SYN scan — these counters
//! let the benches quantify that claim in the simulation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe packet/byte counters for one direction pair.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Datagrams/segments sent by clients into the network.
    pub packets_sent: AtomicU64,
    /// Bytes sent by clients.
    pub bytes_sent: AtomicU64,
    /// Datagrams/segments delivered back to clients.
    pub packets_received: AtomicU64,
    /// Bytes delivered back to clients.
    pub bytes_received: AtomicU64,
    /// Packets dropped by the loss model.
    pub packets_dropped: AtomicU64,
    /// Datagrams a lazy binder answered without an endpoint
    /// ([`crate::LazyBinder::answer_udp`]).
    pub stateless_answers: AtomicU64,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&self, bytes: usize) {
        self.packets_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, bytes: usize) {
        self.packets_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn record_drop(&self) {
        self.packets_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as plain integers (sent, bytes_sent, received, bytes_received, dropped).
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.packets_sent.load(Ordering::Relaxed),
            self.bytes_sent.load(Ordering::Relaxed),
            self.packets_received.load(Ordering::Relaxed),
            self.bytes_received.load(Ordering::Relaxed),
            self.packets_dropped.load(Ordering::Relaxed),
        )
    }
}

/// A [`crate::NetShard`]'s private traffic counters: each probe is
/// accounted here (no shared-cache-line traffic on the per-packet fast
/// path) and [`LocalStats::flush`]ed into the network-wide [`NetStats`]
/// once per shard.
#[derive(Debug, Default)]
pub(crate) struct LocalStats {
    packets_sent: u64,
    bytes_sent: u64,
    packets_received: u64,
    bytes_received: u64,
    packets_dropped: u64,
    stateless_answers: u64,
}

impl LocalStats {
    pub(crate) fn record_send(&mut self, bytes: usize) {
        self.packets_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    pub(crate) fn record_recv(&mut self, bytes: usize) {
        self.packets_received += 1;
        self.bytes_received += bytes as u64;
    }

    pub(crate) fn record_drop(&mut self) {
        self.packets_dropped += 1;
    }

    pub(crate) fn record_stateless(&mut self) {
        self.stateless_answers += 1;
    }

    /// Adds the accumulated counts into `stats` and zeroes this accumulator.
    pub(crate) fn flush(&mut self, stats: &NetStats) {
        stats
            .packets_sent
            .fetch_add(self.packets_sent, Ordering::Relaxed);
        stats
            .bytes_sent
            .fetch_add(self.bytes_sent, Ordering::Relaxed);
        stats
            .packets_received
            .fetch_add(self.packets_received, Ordering::Relaxed);
        stats
            .bytes_received
            .fetch_add(self.bytes_received, Ordering::Relaxed);
        stats
            .packets_dropped
            .fetch_add(self.packets_dropped, Ordering::Relaxed);
        stats
            .stateless_answers
            .fetch_add(self.stateless_answers, Ordering::Relaxed);
        *self = LocalStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let s = NetStats::new();
        s.record_send(1200);
        s.record_send(60);
        s.record_recv(41);
        s.record_drop();
        assert_eq!(s.snapshot(), (2, 1260, 1, 41, 1));
    }
}
