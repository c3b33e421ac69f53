//! Retry arithmetic: the per-target virtual-time budget and the PTO /
//! attempt-backoff schedules the scan driver charges against it.
//!
//! All three are plain local counters. They mirror the driver's own clock
//! advances exactly, which is what lets a traced scan stamp events with
//! flow-local virtual time instead of the shared clock (see the `telemetry`
//! crate's determinism rules).

/// The total virtual-time allowance for one target, across every attempt,
/// probe timeout, and backoff wait.
#[derive(Debug, Clone, Copy)]
pub struct TargetBudget {
    remaining_us: u64,
}

impl TargetBudget {
    /// Fresh budget of `total_us` microseconds.
    pub fn new(total_us: u64) -> Self {
        TargetBudget {
            remaining_us: total_us,
        }
    }

    /// Microseconds left.
    pub fn remaining_us(&self) -> u64 {
        self.remaining_us
    }

    /// Charges a wait of `us` if affordable; `false` leaves the budget
    /// untouched (the driver then gives up instead of sleeping).
    pub fn try_charge(&mut self, us: u64) -> bool {
        if self.remaining_us < us {
            return false;
        }
        self.remaining_us -= us;
        true
    }

    /// Charges one request/response exchange (saturating: an exchange in
    /// flight is never refused, it just exhausts the budget).
    pub fn charge_exchange(&mut self, rtt_us: u64) {
        self.remaining_us = self.remaining_us.saturating_sub(rtt_us);
    }
}

/// Probe-timeout schedule for one connection attempt: starts at 3×RTT and
/// doubles per firing (RFC 9002 §6.2), capped at `max_ptos` firings.
#[derive(Debug, Clone, Copy)]
pub struct PtoSchedule {
    wait_us: u64,
    fired: u32,
    max_ptos: u32,
}

impl PtoSchedule {
    /// Fresh schedule for an attempt.
    pub fn new(rtt_us: u64, max_ptos: u32) -> Self {
        PtoSchedule {
            wait_us: 3 * rtt_us,
            fired: 0,
            max_ptos,
        }
    }

    /// The next PTO interval, or `None` once the firing cap is reached.
    pub fn next_wait_us(&self) -> Option<u64> {
        (self.fired < self.max_ptos).then_some(self.wait_us)
    }

    /// Registers a fired PTO (doubling the next interval) and returns its
    /// 1-based ordinal.
    pub fn fire(&mut self) -> u32 {
        self.wait_us *= 2;
        self.fired += 1;
        self.fired
    }
}

/// Exponential backoff between connection attempts: starts at 2×RTT and
/// doubles per wait.
#[derive(Debug, Clone, Copy)]
pub struct BackoffSchedule {
    wait_us: u64,
}

impl BackoffSchedule {
    /// Fresh schedule starting at 2×RTT.
    pub fn new(rtt_us: u64) -> Self {
        BackoffSchedule {
            wait_us: 2 * rtt_us,
        }
    }

    /// The next backoff wait.
    pub fn wait_us(&self) -> u64 {
        self.wait_us
    }

    /// Doubles the next wait.
    pub fn advance(&mut self) {
        self.wait_us *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_refuses_unaffordable_waits() {
        let mut b = TargetBudget::new(100);
        assert!(b.try_charge(60));
        assert!(!b.try_charge(60), "refusal must not spend");
        assert_eq!(b.remaining_us(), 40);
        b.charge_exchange(100);
        assert_eq!(b.remaining_us(), 0);
    }

    #[test]
    fn pto_schedule_doubles_and_caps() {
        let mut p = PtoSchedule::new(20_000, 3);
        assert_eq!(p.next_wait_us(), Some(60_000));
        assert_eq!(p.fire(), 1);
        assert_eq!(p.next_wait_us(), Some(120_000));
        assert_eq!(p.fire(), 2);
        assert_eq!(p.fire(), 3);
        assert_eq!(p.next_wait_us(), None, "cap reached");
    }

    #[test]
    fn backoff_doubles() {
        let mut b = BackoffSchedule::new(20_000);
        assert_eq!(b.wait_us(), 40_000);
        b.advance();
        assert_eq!(b.wait_us(), 80_000);
    }
}
