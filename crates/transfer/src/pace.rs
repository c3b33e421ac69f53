//! Packet pacing through the `zmapq` token bucket, driven by a flow-local
//! clock. Each connection owns a private [`FlowClock`] so pacing advances
//! virtual time for that flow alone — the sharded simnet's determinism
//! discipline (no shared clock on the data path) carries over unchanged.

use std::cell::Cell;

use simnet::{Duration, SimTime, VirtualClock};
use zmapq::ratelimit::TokenBucket;

/// A single-flow virtual clock: a plain cell the pacer can advance without
/// touching any shared state.
#[derive(Debug, Default)]
pub struct FlowClock {
    micros: Cell<u64>,
}

impl FlowClock {
    /// A clock starting at `now_us`.
    pub fn starting_at(now_us: u64) -> Self {
        FlowClock {
            micros: Cell::new(now_us),
        }
    }

    /// Jumps forward to `now_us` if it is ahead (never backwards).
    pub fn catch_up(&self, now_us: u64) {
        if now_us > self.micros.get() {
            self.micros.set(now_us);
        }
    }

    /// Current time in µs.
    pub fn now_us(&self) -> u64 {
        self.micros.get()
    }
}

impl VirtualClock for FlowClock {
    fn now(&self) -> SimTime {
        SimTime(self.micros.get())
    }

    fn advance(&self, d: Duration) -> SimTime {
        let t = self.micros.get() + d.0;
        self.micros.set(t);
        SimTime(t)
    }
}

/// Paces packet sends at a packets-per-second rate on a flow-local timeline.
pub struct Pacer {
    bucket: TokenBucket,
    clock: FlowClock,
}

impl Pacer {
    /// A pacer at `rate_pps` with a small burst, starting at flow time 0.
    pub fn new(rate_pps: u64) -> Self {
        Pacer {
            bucket: TokenBucket::with_burst(rate_pps, 10),
            clock: FlowClock::default(),
        }
    }

    /// Charges one packet at flow time `now_us` and returns the paced
    /// (possibly later) virtual send time.
    pub fn pace(&mut self, now_us: u64) -> u64 {
        self.clock.catch_up(now_us);
        self.bucket.acquire(&self.clock);
        self.clock.now_us()
    }

    /// The pacer's current virtual send horizon.
    pub fn horizon_us(&self) -> u64 {
        self.clock.now_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_sends_to_rate() {
        let mut p = Pacer::new(1000); // 1 packet per ms
        let mut last = 0;
        for _ in 0..20 {
            last = p.pace(0);
        }
        // The bucket starts empty: every packet pays one 1 ms token period.
        assert!((19_000..=21_000).contains(&last), "paced to {last} µs");
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut p = Pacer::new(100);
        let t1 = p.pace(50_000);
        let t2 = p.pace(10_000); // stale caller time
        assert!(t2 >= t1);
    }
}
