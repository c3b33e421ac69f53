//! Topology-aware fault assignment: maps the generated universe onto
//! per-path [`LinkProfile`]s of the simulated network.
//!
//! The plan is *calibrated* so that measurement aggregates stay invariant:
//! every impairment either is recoverable by the scanners' retransmission
//! (plain loss, which PTO probes and re-probes absorb) or replaces one
//! silent failure with an equivalent observable one (a silent middlebox
//! becomes a rate-limited one, a ghost load-balancer entry becomes an
//! ICMP-unreachable hop). Both sides of each substitution land in the same
//! coarse verdict row of the paper-facing tables, so the same seed produces
//! the same tables with or without faults — the property
//! `analysis::Campaign` asserts.

use simnet::{IpAddr, LinkProfile, Network, ReplyRateLimit};

use crate::universe::{HostBehavior, Universe};

/// Datagrams per flow a rate-limited middlebox admits before it starts
/// discarding. Four is enough for a ZMap flow's duplicate probes (which
/// share one `(src, dst)` flow) but fewer than a qscanner handshake
/// attempt's Initial plus PTO train, so handshakes observe the throttling.
const MIDDLEBOX_BURST: u32 = 4;

/// How a simulated campaign impairs the network, assigned per path from the
/// universe topology by [`Universe::build_network_with_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Baseline loss applied to every path, in permille per direction.
    pub loss_permille: u32,
    /// Put an aggressive rate limiter in front of every other
    /// silent-middlebox ([`HostBehavior::VnOnly`]) deployment; the rest stay
    /// dark (plain no-reply timeouts).
    pub middlebox_rate_limit: bool,
    /// Ghost load-balancer addresses (stale A records with no host behind
    /// them) signal ICMP unreachable instead of black-holing.
    pub ghost_unreachable: bool,
}

impl FaultPlan {
    /// No impairment at all — the pre-fault-injection network.
    pub fn none() -> Self {
        FaultPlan {
            loss_permille: 0,
            middlebox_rate_limit: false,
            ghost_unreachable: false,
        }
    }

    /// The calibrated plan: `loss_permille` baseline loss everywhere plus
    /// the observable-substitution faults described in the module docs.
    pub fn calibrated(loss_permille: u32) -> Self {
        assert!(loss_permille <= 1000);
        FaultPlan {
            loss_permille,
            middlebox_rate_limit: true,
            ghost_unreachable: true,
        }
    }

    /// Reads `SIM_LOSS_PERMILLE` from the environment: unset, empty, or `0`
    /// yields [`FaultPlan::none`], any other value the calibrated plan at
    /// that loss rate. This is the hook the CI loss matrix drives.
    pub fn from_env() -> Self {
        match std::env::var("SIM_LOSS_PERMILLE") {
            Ok(v) if !v.trim().is_empty() => {
                let permille: u32 = v
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("SIM_LOSS_PERMILLE={v:?} is not an integer"));
                if permille == 0 {
                    Self::none()
                } else {
                    Self::calibrated(permille.min(1000))
                }
            }
            _ => Self::none(),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.loss_permille == 0 && !self.middlebox_rate_limit && !self.ghost_unreachable
    }

    /// Number of per-path profile overrides [`FaultPlan::apply`] installs on
    /// `universe` (rate-limited middlebox addresses plus unreachable
    /// ghosts). Reported in the campaign's `plan_summary` telemetry event.
    pub fn planned_path_overrides(&self, universe: &Universe) -> u64 {
        if self.is_none() {
            return 0;
        }
        let mut n = 0u64;
        if self.middlebox_rate_limit {
            let mut nth = 0usize;
            for h in &universe.hosts {
                if h.behavior != HostBehavior::VnOnly {
                    continue;
                }
                nth += 1;
                if !nth.is_multiple_of(2) {
                    continue;
                }
                n += u64::from(h.v4.is_some()) + u64::from(h.v6.is_some());
            }
        }
        if self.ghost_unreachable {
            n += universe
                .domains
                .iter()
                .map(|d| d.ghost_v4.len() as u64)
                .sum::<u64>();
        }
        n
    }

    /// Installs the plan's profiles on `net` for `universe`'s topology.
    pub fn apply(&self, universe: &Universe, net: &mut Network) {
        if self.is_none() {
            return;
        }
        let base = LinkProfile::lossy(self.loss_permille);
        net.set_default_profile(base);
        if self.middlebox_rate_limit {
            let limited = LinkProfile {
                rate_limit: Some(ReplyRateLimit {
                    burst: MIDDLEBOX_BURST,
                    drop_permille: 1000,
                }),
                ..base
            };
            // Only every other middlebox deploys a limiter; the rest stay
            // dark. Real deployments are heterogeneous, and keeping both
            // flavors lets the failure breakdown show no-reply and
            // rate-limited side by side. Either way the scan lands in the
            // same coarse timeout row, so tables stay invariant. The split
            // keys on the middlebox ordinal (host order is
            // generation-deterministic), not the host index, whose parity is
            // correlated with the generator's modular assignment pattern.
            let mut nth = 0usize;
            for h in &universe.hosts {
                if h.behavior != HostBehavior::VnOnly {
                    continue;
                }
                nth += 1;
                if !nth.is_multiple_of(2) {
                    continue;
                }
                for ip in [h.v4.map(IpAddr::V4), h.v6.map(IpAddr::V6)]
                    .into_iter()
                    .flatten()
                {
                    net.set_path_profile(ip, limited);
                }
            }
        }
        if self.ghost_unreachable {
            for d in &universe.domains {
                for ghost in &d.ghost_v4 {
                    net.set_path_profile(IpAddr::V4(*ghost), LinkProfile::unreachable());
                }
            }
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl Universe {
    /// [`Universe::build_network`] with `plan`'s impairments installed.
    pub fn build_network_with_faults(&self, plan: &FaultPlan) -> Network {
        let mut net = self.build_network();
        plan.apply(self, &mut net);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;

    fn tiny_universe() -> Universe {
        Universe::generate(UniverseConfig::tiny(10))
    }

    #[test]
    fn none_plan_leaves_network_ideal() {
        let u = tiny_universe();
        let net = u.build_network_with_faults(&FaultPlan::none());
        assert!(net
            .path_profile(IpAddr::V4(simnet::addr::Ipv4Addr::new(10, 1, 2, 3)))
            .is_ideal());
    }

    #[test]
    fn calibrated_plan_profiles_follow_topology() {
        let u = tiny_universe();
        let plan = FaultPlan::calibrated(50);
        let net = u.build_network_with_faults(&plan);
        // Default path: plain loss.
        let default = *net.path_profile(IpAddr::V4(simnet::addr::Ipv4Addr::new(10, 1, 2, 3)));
        assert_eq!(default.loss_permille, 50);
        assert!(default.rate_limit.is_none());
        // Alternate silent middleboxes sit behind a rate limiter; the rest
        // stay dark so both silent-failure flavors remain observable.
        let (mut limited, mut dark) = (0, 0);
        let mut nth = 0usize;
        for h in &u.hosts {
            if h.behavior != HostBehavior::VnOnly {
                continue;
            }
            nth += 1;
            if let Some(v4) = h.v4 {
                let p = net.path_profile(IpAddr::V4(v4));
                assert_eq!(p.loss_permille, 50);
                if nth.is_multiple_of(2) {
                    let rl = p.rate_limit.expect("middlebox not rate-limited");
                    assert_eq!(rl.drop_permille, 1000);
                    limited += 1;
                } else {
                    assert!(p.rate_limit.is_none(), "dark middlebox got a limiter");
                    dark += 1;
                }
            }
        }
        assert!(limited > 0, "no middlebox was rate-limited");
        assert!(dark > 0, "no middlebox stayed dark");
        // Every ghost address signals unreachable.
        let ghosts: Vec<_> = u.domains.iter().flat_map(|d| d.ghost_v4.iter()).collect();
        assert!(!ghosts.is_empty(), "universe lost its ghost addresses");
        for g in ghosts {
            assert!(net.path_profile(IpAddr::V4(*g)).unreachable);
        }
    }

    #[test]
    fn planned_overrides_match_installed_profiles() {
        let u = tiny_universe();
        assert_eq!(FaultPlan::none().planned_path_overrides(&u), 0);
        let plan = FaultPlan::calibrated(50);
        let planned = plan.planned_path_overrides(&u);
        assert!(planned > 0);
        // Count what apply actually installs: rate-limited middlebox paths
        // plus unreachable ghost paths.
        let net = u.build_network_with_faults(&plan);
        let mut installed = 0u64;
        for h in &u.hosts {
            for ip in [h.v4.map(IpAddr::V4), h.v6.map(IpAddr::V6)]
                .into_iter()
                .flatten()
            {
                if net.path_profile(ip).rate_limit.is_some() {
                    installed += 1;
                }
            }
        }
        for d in &u.domains {
            for g in &d.ghost_v4 {
                if net.path_profile(IpAddr::V4(*g)).unreachable {
                    installed += 1;
                }
            }
        }
        assert_eq!(planned, installed);
    }

    #[test]
    fn env_hook_parses_loss() {
        // Serialized by the env-var name being unique to this test binary's
        // process; tests in this module must not race on it.
        std::env::remove_var("SIM_LOSS_PERMILLE");
        assert!(FaultPlan::from_env().is_none());
        std::env::set_var("SIM_LOSS_PERMILLE", "0");
        assert!(FaultPlan::from_env().is_none());
        std::env::set_var("SIM_LOSS_PERMILLE", "20");
        assert_eq!(FaultPlan::from_env(), FaultPlan::calibrated(20));
        std::env::remove_var("SIM_LOSS_PERMILLE");
    }
}
