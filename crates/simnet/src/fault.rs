//! Deterministic per-path fault injection.
//!
//! A [`LinkProfile`] describes the impairments of one network path: packet
//! loss, latency jitter, ICMP-unreachable signaling, and server-side reply
//! rate limiting. Profiles are attached to a
//! [`crate::Network`] per destination IP (with a network-wide default), so an
//! `internet`-level topology can give a rate-limiting CDN and a lossy access
//! network different failure characteristics.
//!
//! Every random decision is drawn from splitmix64 keyed on
//! `(network seed, flow hash, per-flow sequence number, salt)` — **not** on a
//! global packet counter or the clock. Each simulated flow (a `(src, dst)`
//! socket-address pair) is driven synchronously by exactly one scanner
//! thread, so its sequence numbers — and therefore every fault decision — are
//! identical no matter how many worker threads run or how their sends
//! interleave. Same seed ⇒ same faults, at any worker count.

use std::hash::{Hash, Hasher};

use crate::addr::SocketAddr;
use crate::fasthash::FxHasher;

/// A server-side rate limiter on one path: the first [`ReplyRateLimit::burst`]
/// datagrams of each flow always pass, after which each datagram is discarded
/// with probability `drop_permille`/1000. Counting datagrams rather than
/// virtual time keeps the decision independent of how other threads advance
/// the shared clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyRateLimit {
    /// Datagrams per flow that are always admitted.
    pub burst: u32,
    /// Drop probability (0–1000) applied beyond the burst.
    pub drop_permille: u32,
}

/// Impairments of one simulated network path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Forward-path and reply loss probability in permille (0–1000).
    pub loss_permille: u32,
    /// Maximum extra latency per exchange, drawn uniformly in
    /// `0..=jitter_us` µs and added to the RTT charge.
    pub jitter_us: u64,
    /// The destination signals ICMP unreachable instead of delivering.
    pub unreachable: bool,
    /// Server-side rate limiting in front of the destination.
    pub rate_limit: Option<ReplyRateLimit>,
}

impl LinkProfile {
    /// A perfect path: no loss, no jitter, no limits.
    pub const fn ideal() -> Self {
        LinkProfile {
            loss_permille: 0,
            jitter_us: 0,
            unreachable: false,
            rate_limit: None,
        }
    }

    /// A path that only loses packets, at `permille`/1000 per datagram.
    pub fn lossy(permille: u32) -> Self {
        assert!(permille <= 1000);
        LinkProfile {
            loss_permille: permille,
            ..Self::ideal()
        }
    }

    /// A path behind an ICMP-unreachable hop.
    pub fn unreachable() -> Self {
        LinkProfile {
            unreachable: true,
            ..Self::ideal()
        }
    }

    /// True when the profile introduces no impairment at all; the network
    /// uses this to keep the allocation-free fast path (no flow-counter
    /// lookup, no draws) for unimpaired paths.
    pub fn is_ideal(&self) -> bool {
        self.loss_permille == 0
            && self.jitter_us == 0
            && !self.unreachable
            && self.rate_limit.is_none()
    }
}

impl Default for LinkProfile {
    fn default() -> Self {
        Self::ideal()
    }
}

// Distinct salts so the independent decisions on one datagram never reuse a
// draw.
pub(crate) const SALT_FWD_LOSS: u64 = 0x1b87_3593_04ba_df01;
pub(crate) const SALT_JITTER: u64 = 0xda94_2042_e4dd_58b5;
pub(crate) const SALT_RATE: u64 = 0x9e6c_63d0_985e_a21b;
pub(crate) const SALT_REPLY_LOSS: u64 = 0xe703_7ed1_a0b4_28db;

const SEQ_MULT: u64 = 0xd6e8_feb8_6659_fd93;

/// Hash of one flow's endpoints, mixed into every draw for that flow.
pub(crate) fn flow_hash(src: SocketAddr, dst: SocketAddr) -> u64 {
    let mut h = FxHasher::default();
    src.hash(&mut h);
    dst.hash(&mut h);
    h.finish()
}

/// Hash of a single socket address — the routing key of the sharded
/// endpoint table (same hasher family as [`flow_hash`], so flow routing and
/// endpoint routing agree on what "a shard" is).
pub(crate) fn addr_hash(at: SocketAddr) -> u64 {
    let mut h = FxHasher::default();
    at.hash(&mut h);
    h.finish()
}

/// splitmix64 finalizer.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One deterministic draw for datagram `seq` of a flow.
pub(crate) fn draw(seed: u64, flow: u64, seq: u64, salt: u64) -> u64 {
    mix(seed ^ flow ^ seq.wrapping_mul(SEQ_MULT) ^ salt)
}

/// True with probability `permille`/1000 for this (flow, seq, salt) triple.
pub(crate) fn hit(seed: u64, flow: u64, seq: u64, salt: u64, permille: u32) -> bool {
    permille > 0 && draw(seed, flow, seq, salt) % 1000 < u64::from(permille)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    #[test]
    fn ideal_profile_is_ideal() {
        assert!(LinkProfile::ideal().is_ideal());
        assert!(LinkProfile::default().is_ideal());
        assert!(!LinkProfile::lossy(1).is_ideal());
        assert!(!LinkProfile::unreachable().is_ideal());
        let rl = LinkProfile {
            rate_limit: Some(ReplyRateLimit {
                burst: 10,
                drop_permille: 500,
            }),
            ..LinkProfile::ideal()
        };
        assert!(!rl.is_ideal());
    }

    #[test]
    fn draws_are_deterministic_and_salted() {
        let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 1000);
        let b = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 443);
        let f = flow_hash(a, b);
        assert_eq!(draw(1, f, 5, SALT_FWD_LOSS), draw(1, f, 5, SALT_FWD_LOSS));
        assert_ne!(draw(1, f, 5, SALT_FWD_LOSS), draw(1, f, 5, SALT_JITTER));
        assert_ne!(draw(1, f, 5, SALT_FWD_LOSS), draw(1, f, 6, SALT_FWD_LOSS));
        assert_ne!(draw(1, f, 5, SALT_FWD_LOSS), draw(2, f, 5, SALT_FWD_LOSS));
        // Different flows see different fates for the same sequence number.
        let g = flow_hash(b, a);
        assert_ne!(f, g);
        assert_ne!(draw(1, f, 0, SALT_FWD_LOSS), draw(1, g, 0, SALT_FWD_LOSS));
    }

    #[test]
    fn hit_rates_are_roughly_calibrated() {
        let f = flow_hash(
            SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 1000),
            SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 443),
        );
        let hits = (0..10_000)
            .filter(|&seq| hit(42, f, seq, SALT_FWD_LOSS, 250))
            .count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
        assert_eq!(
            (0..10_000)
                .filter(|&s| hit(42, f, s, SALT_FWD_LOSS, 0))
                .count(),
            0
        );
        assert_eq!(
            (0..10_000)
                .filter(|&s| hit(42, f, s, SALT_FWD_LOSS, 1000))
                .count(),
            10_000
        );
    }
}
