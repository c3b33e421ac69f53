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
    ///
    /// When the clock has not moved since the last acquire and a whole
    /// token is left, the token is taken without the refill. That is the
    /// refill's own result: no time elapsed, so it adds `0.0`, and `tokens`
    /// never exceeds `burst`, so its `min` returns `tokens` unchanged. The
    /// fast path therefore leaves every bit of `tokens` and of the clock as
    /// the full arithmetic would, and a sweep at 5 M pps, which sees five
    /// tokens per microsecond of waiting, takes four of them here.
    pub fn acquire(&mut self, clock: &impl VirtualClock) {
        let now = clock.now().0;
        if now == self.last_us && self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return;
        }
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
    use proptest::prelude::*;
    use simnet::{ShardClock, SimClock, SimTime};
    use std::cell::Cell;

    /// `acquire` as it was before the fast path: the refill, then the wait
    /// when the bucket is dry, on every call. The oracle the fast path is
    /// held to, bit for bit.
    fn reference_acquire(bucket: &mut TokenBucket, clock: &impl VirtualClock) {
        let now = clock.now().0;
        let elapsed = now.saturating_sub(bucket.last_us);
        bucket.last_us = now;
        bucket.tokens = (bucket.tokens + elapsed as f64 * bucket.rate_pps as f64 / 1e6)
            .min(bucket.burst as f64);
        if bucket.tokens < 1.0 {
            let needed = 1.0 - bucket.tokens;
            let wait_us = (needed * 1e6 / bucket.rate_pps as f64).ceil() as u64;
            clock.advance(Duration::from_micros(wait_us));
            bucket.last_us = clock.now().0;
            bucket.tokens = (bucket.tokens + wait_us as f64 * bucket.rate_pps as f64 / 1e6)
                .max(1.0)
                .min(bucket.burst as f64);
        }
        bucket.tokens -= 1.0;
    }

    /// `transfer::pace`'s flow clock: the caller's time is merged in with a
    /// `max` before each acquire, so a stale caller time is ignored.
    #[derive(Default)]
    struct CatchUpClock(Cell<u64>);

    impl VirtualClock for CatchUpClock {
        fn now(&self) -> SimTime {
            SimTime(self.0.get())
        }
        fn advance(&self, d: Duration) -> SimTime {
            self.0.set(self.0.get() + d.0);
            self.now()
        }
    }

    /// A rate from 1 to 10⁸ pps, spread over the orders of magnitude.
    fn rate(digits: u32, raw: u64) -> u64 {
        1 + raw % 10u64.pow(digits)
    }

    /// A bucket, and the same bucket for the oracle: the default burst or
    /// an explicit one (zero included, which clamps to one).
    fn bucket_pair(rate_pps: u64, burst: Option<u64>) -> (TokenBucket, TokenBucket) {
        let make = || match burst {
            Some(burst) => TokenBucket::with_burst(rate_pps, burst),
            None => TokenBucket::new(rate_pps),
        };
        (make(), make())
    }

    /// A gap between acquires: none (many acquires at one instant), under
    /// one token period at high rates, ordinary, or an idle hour.
    fn gap(kind: u8, raw: u64) -> u64 {
        match kind {
            0 => 0,
            1 => raw % 3,
            2 => raw % 20_000,
            _ => raw % 3_600_000_000,
        }
    }

    fn same_state(fast: &TokenBucket, oracle: &TokenBucket) -> Result<(), String> {
        prop_assert_eq!(fast.tokens.to_bits(), oracle.tokens.to_bits());
        prop_assert_eq!(fast.last_us, oracle.last_us);
        Ok(())
    }

    proptest! {
        /// The sweep's use: a private `ShardClock` that only the bucket
        /// and the probes (here: the gaps) move.
        #[test]
        fn acquire_equals_the_reference_on_a_shard_clock(
            digits in 1u32..9,
            raw_rate in any::<u64>(),
            burst in proptest::option::of(0u64..100_000),
            start in 0u64..1_000_000_000,
            schedule in proptest::collection::vec((0u8..4, any::<u64>(), 1u32..64), 1..48),
        ) {
            let (mut fast, mut oracle) = bucket_pair(rate(digits, raw_rate), burst);
            let fast_clock = ShardClock::starting_at(SimTime(start));
            let oracle_clock = ShardClock::starting_at(SimTime(start));
            for (kind, raw, acquires) in schedule {
                let d = Duration::from_micros(gap(kind, raw));
                fast_clock.advance(d);
                oracle_clock.advance(d);
                for _ in 0..acquires {
                    fast.acquire(&fast_clock);
                    reference_acquire(&mut oracle, &oracle_clock);
                    prop_assert_eq!(fast_clock.now(), oracle_clock.now());
                    same_state(&fast, &oracle)?;
                }
            }
        }

        /// `transfer::pace`'s use: the caller's time, which may be stale,
        /// is merged into a flow clock before every acquire.
        #[test]
        fn acquire_equals_the_reference_on_a_catch_up_clock(
            digits in 1u32..9,
            raw_rate in any::<u64>(),
            burst in proptest::option::of(0u64..100_000),
            schedule in proptest::collection::vec((0u8..4, any::<u64>(), 1u32..64, any::<bool>()), 1..48),
        ) {
            let (mut fast, mut oracle) = bucket_pair(rate(digits, raw_rate), burst);
            let (fast_clock, oracle_clock) = (CatchUpClock::default(), CatchUpClock::default());
            let mut caller_us = 0u64;
            for (kind, raw, acquires, stale) in schedule {
                caller_us += gap(kind, raw);
                for _ in 0..acquires {
                    // A stale caller lags the paced horizon; the merge keeps
                    // the later of the two, as `FlowClock::catch_up` does.
                    let now_us = if stale { caller_us / 2 } else { caller_us };
                    for clock in [&fast_clock, &oracle_clock] {
                        clock.0.set(clock.0.get().max(now_us));
                    }
                    fast.acquire(&fast_clock);
                    reference_acquire(&mut oracle, &oracle_clock);
                    prop_assert_eq!(fast_clock.now(), oracle_clock.now());
                    same_state(&fast, &oracle)?;
                }
            }
        }
    }

    /// ns per acquire at the sweeps' rate of 5 M pps per shard (five
    /// tokens per microsecond waited, four of them taken on the fast path)
    /// and at 7.5 k pps (every acquire waits), on a `ShardClock` as the
    /// sweep paces; prints, asserts nothing. Run with
    /// `cargo test --release -p zmapq -- --ignored --nocapture bucket_speed`.
    #[test]
    #[ignore = "micro-benchmark: prints timings, meaningful in release builds only"]
    fn bucket_speed() {
        use std::hint::black_box;
        use std::time::Instant;
        let acquires = 1u64 << 22;
        let ns_per_acquire = |rate_pps: u64| {
            (0..5)
                .map(|_| {
                    let clock = ShardClock::starting_at(SimTime::ZERO);
                    let mut bucket = TokenBucket::new(rate_pps);
                    let start = Instant::now();
                    for _ in 0..acquires {
                        bucket.acquire(black_box(&clock));
                    }
                    black_box(clock.now());
                    start.elapsed().as_secs_f64() * 1e9 / acquires as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        println!(
            "token bucket: {:.1} ns/acquire at 5 M pps, {:.1} ns/acquire at 7.5 k pps",
            ns_per_acquire(5_000_000),
            ns_per_acquire(7_500)
        );
    }

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
