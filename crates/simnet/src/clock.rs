//! Virtual time. Nothing in the workspace reads the wall clock; scan drivers
//! advance a [`SimClock`] explicitly, which keeps runs reproducible.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Adds a duration.
    pub fn after(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of simulated time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// Microseconds in this span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in this span (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }
}

impl core::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl core::ops::Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

/// Sharable monotonically-advancing virtual clock.
#[derive(Debug, Default)]
pub struct SimClock {
    micros: AtomicU64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock {
            micros: AtomicU64::new(0),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.micros.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> SimTime {
        SimTime(self.micros.fetch_add(d.0, Ordering::Relaxed) + d.0)
    }

    /// Merges a worker-private clock back in: the shared time becomes
    /// `max(shared, t)` (monotonic — a shard that finished early never
    /// rewinds the clock). Returns the post-merge time.
    pub fn catch_up(&self, t: SimTime) -> SimTime {
        SimTime(self.micros.fetch_max(t.0, Ordering::Relaxed).max(t.0))
    }
}

/// A worker-private virtual clock: a [`ShardClock`] is seeded from the
/// shared [`SimClock`] when a worker starts, advanced with plain (atomic-free)
/// stores while the worker runs, and merged back with
/// [`SimClock::catch_up`] when the worker finishes. Under the simulator's
/// "parallel vantage points" model each worker paces its own shard of the
/// scan, so shared time after a parallel scan is the *slowest shard's* end
/// time, not the sum of every worker's waits.
///
/// Interior mutability is a [`Cell`](std::cell::Cell) on purpose: the type
/// is `!Sync`, which statically pins each shard clock to the one worker
/// thread that owns it.
#[derive(Debug)]
pub struct ShardClock {
    micros: std::cell::Cell<u64>,
}

impl ShardClock {
    /// A private clock starting at `t`.
    pub fn starting_at(t: SimTime) -> Self {
        ShardClock {
            micros: std::cell::Cell::new(t.0),
        }
    }

    /// Current private time.
    pub fn now(&self) -> SimTime {
        SimTime(self.micros.get())
    }

    /// Advances the private clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> SimTime {
        let t = self.micros.get().saturating_add(d.0);
        self.micros.set(t);
        SimTime(t)
    }
}

/// Anything that can serve as the virtual clock of a scan loop: the shared
/// [`SimClock`] (serial drivers, tests) or a worker-private [`ShardClock`]
/// (parallel shards). Pacing code like `zmapq`'s token bucket is generic
/// over this so the same arithmetic runs against either.
pub trait VirtualClock {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Advances virtual time by `d`, returning the new time.
    fn advance(&self, d: Duration) -> SimTime;
}

impl VirtualClock for SimClock {
    fn now(&self) -> SimTime {
        SimClock::now(self)
    }
    fn advance(&self, d: Duration) -> SimTime {
        SimClock::advance(self, d)
    }
}

impl VirtualClock for ShardClock {
    fn now(&self) -> SimTime {
        ShardClock::now(self)
    }
    fn advance(&self, d: Duration) -> SimTime {
        ShardClock::advance(self, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO.after(Duration::from_millis(5));
        assert_eq!(t, SimTime(5_000));
        assert_eq!(t.since(SimTime(1_000)), Duration(4_000));
        assert_eq!(SimTime(0).since(t), Duration::ZERO);
        assert_eq!(
            Duration::from_secs(1) + Duration::from_millis(1),
            Duration(1_001_000)
        );
        assert_eq!(Duration::from_millis(3) * 4, Duration(12_000));
    }

    #[test]
    fn clock_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.advance(Duration::from_micros(7)), SimTime(7));
        assert_eq!(c.now(), SimTime(7));
    }

    #[test]
    fn catch_up_is_monotonic_max() {
        let c = SimClock::new();
        c.advance(Duration::from_micros(100));
        assert_eq!(c.catch_up(SimTime(40)), SimTime(100), "never rewinds");
        assert_eq!(c.now(), SimTime(100));
        assert_eq!(c.catch_up(SimTime(250)), SimTime(250));
        assert_eq!(c.now(), SimTime(250));
    }

    #[test]
    fn shard_clock_runs_privately_and_merges() {
        let shared = SimClock::new();
        shared.advance(Duration::from_micros(10));
        let a = ShardClock::starting_at(shared.now());
        let b = ShardClock::starting_at(shared.now());
        a.advance(Duration::from_micros(5));
        b.advance(Duration::from_micros(90));
        // Private advances do not touch the shared clock…
        assert_eq!(shared.now(), SimTime(10));
        // …and merging keeps the slowest shard's end time.
        shared.catch_up(a.now());
        shared.catch_up(b.now());
        assert_eq!(shared.now(), SimTime(100));
    }
}
