//! Token-bucket rate limiting against the simulated clock. The paper scans
//! at up to 15 k packets/s; the simulation accounts the same pacing so scan
//! durations (e.g. "the IPv4 space in under 56 h") can be reproduced as
//! virtual time.

use simnet::{Duration, VirtualClock};

/// A token bucket paced by the virtual clock.
pub struct TokenBucket {
    rate_pps: u64,
    burst: u64,
    tokens: f64,
    last_us: u64,
}

impl TokenBucket {
    /// A bucket allowing `rate_pps` packets per (virtual) second, with a
    /// burst allowance of a tenth of a second's budget.
    pub fn new(rate_pps: u64) -> Self {
        Self::with_burst(rate_pps, rate_pps / 10 + 1)
    }

    /// A bucket with an explicit burst capacity. `rate_pps` must be positive
    /// (a zero-rate bucket could never issue a token and `acquire` would
    /// divide by zero computing the wait); `burst` is clamped to at least 1
    /// so a token can exist at all.
    pub fn with_burst(rate_pps: u64, burst: u64) -> Self {
        assert!(rate_pps > 0, "token bucket rate must be positive");
        TokenBucket {
            rate_pps,
            burst: burst.max(1),
            tokens: 0.0,
            last_us: 0,
        }
    }

    /// Takes one token, advancing the clock when the bucket is dry. Generic
    /// over [`VirtualClock`] so a parallel shard paces its own private
    /// [`simnet::ShardClock`] without touching the shared atomic.
    pub fn acquire(&mut self, clock: &impl VirtualClock) {
        let now = clock.now().0;
        let elapsed = now.saturating_sub(self.last_us);
        self.last_us = now;
        self.tokens =
            (self.tokens + elapsed as f64 * self.rate_pps as f64 / 1e6).min(self.burst as f64);
        if self.tokens < 1.0 {
            // Wait (in virtual time) until one token is available. The wait
            // is ceiled to whole microseconds, so it accrues slightly more
            // than one token; carry that remainder instead of discarding it,
            // or long sweeps pace measurably below `rate_pps` (at 300 kpps
            // the 4 µs ceil of a 3.33 µs period would run 20% slow).
            let needed = 1.0 - self.tokens;
            let wait_us = (needed * 1e6 / self.rate_pps as f64).ceil() as u64;
            clock.advance(Duration::from_micros(wait_us));
            self.last_us = clock.now().0;
            self.tokens = (self.tokens + wait_us as f64 * self.rate_pps as f64 / 1e6)
                .max(1.0)
                .min(self.burst as f64);
        }
        self.tokens -= 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimClock;

    #[test]
    fn paces_to_the_configured_rate() {
        let clock = SimClock::new();
        let mut bucket = TokenBucket::new(1000); // 1k pps
        for _ in 0..5000 {
            bucket.acquire(&clock);
        }
        let elapsed_s = clock.now().0 as f64 / 1e6;
        assert!(
            (4.0..6.5).contains(&elapsed_s),
            "5k packets at 1k pps took {elapsed_s}s"
        );
    }

    /// Sub-microsecond token periods must pace exactly: the ceiled waits
    /// accrue fractional surplus that has to be carried, not reset away.
    #[test]
    fn fractional_remainder_is_carried() {
        let clock = SimClock::new();
        let rate = 300_000; // 3.33 µs per token; each wait ceils to whole µs
        let mut bucket = TokenBucket::new(rate);
        for _ in 0..rate {
            bucket.acquire(&clock);
        }
        let elapsed_s = clock.now().0 as f64 / 1e6;
        assert!(
            (0.98..1.02).contains(&elapsed_s),
            "{rate} packets at {rate} pps took {elapsed_s}s"
        );
    }

    #[test]
    fn burst_allows_initial_spike() {
        let clock = SimClock::new();
        let mut bucket = TokenBucket::new(10_000);
        clock.advance(Duration::from_secs(1)); // fill the burst allowance
        let before = clock.now().0;
        for _ in 0..100 {
            bucket.acquire(&clock);
        }
        // 100 packets within the burst: barely any virtual time consumed.
        assert!(clock.now().0 - before < 100_000);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_is_rejected() {
        TokenBucket::new(0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_with_burst_is_rejected() {
        TokenBucket::with_burst(0, 100);
    }

    /// A full bucket admits exactly `burst` packets instantly — the burst
    /// is a hard capacity, not a soft target — and the next acquire waits a
    /// full token period.
    #[test]
    fn burst_equals_capacity_exactly() {
        let clock = SimClock::new();
        let mut bucket = TokenBucket::with_burst(1000, 50);
        clock.advance(Duration::from_secs(10)); // over-fill: caps at burst
        let before = clock.now().0;
        for _ in 0..50 {
            bucket.acquire(&clock);
        }
        assert_eq!(clock.now().0, before, "burst drained without waiting");
        bucket.acquire(&clock);
        let waited = clock.now().0 - before;
        // 51st packet pays one token period (1 ms at 1k pps).
        assert!((900..=1100).contains(&waited), "waited {waited} µs");
    }

    /// Zero burst is clamped to one token of capacity, so the bucket still
    /// paces instead of deadlocking with a forever-empty bucket.
    #[test]
    fn zero_burst_is_clamped_to_one() {
        let clock = SimClock::new();
        let mut bucket = TokenBucket::with_burst(1000, 0);
        clock.advance(Duration::from_secs(1));
        for _ in 0..10 {
            bucket.acquire(&clock);
        }
        // One token from the clamped capacity, nine paced at 1 ms each.
        let elapsed = clock.now().0 - 1_000_000;
        assert!((8_000..=10_000).contains(&elapsed), "elapsed {elapsed} µs");
    }

    /// The fractional carry never lets the bucket exceed its burst capacity:
    /// an arbitrarily long idle period still admits only `burst` packets
    /// for free.
    #[test]
    fn idle_time_cannot_exceed_burst() {
        let clock = SimClock::new();
        let mut bucket = TokenBucket::with_burst(100, 5);
        clock.advance(Duration::from_secs(3600));
        let before = clock.now().0;
        for _ in 0..5 {
            bucket.acquire(&clock);
        }
        assert_eq!(clock.now().0, before);
        bucket.acquire(&clock);
        assert!(clock.now().0 > before, "sixth packet must be paced");
    }
}
