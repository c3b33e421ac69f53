//! Figure builders: the data series behind Figures 3–9 of the paper.

use std::collections::{HashMap, HashSet};

use h3::altsvc::parse_alt_svc;
use qscanner::ScanOutcome;
use quic::version::{set_label, Version};
use simnet::IpAddr;

use crate::campaign::{StatefulSnapshot, WeeklySnapshot};
use crate::cdf::as_rank_cdf;

/// Figure 3: HTTPS DNS RR success rate per input list per week.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Calendar week.
    pub week: u32,
    /// Input list label.
    pub list: &'static str,
    /// Share of resolved domains with an h3 HTTPS RR (%).
    pub success_rate: f64,
    /// Absolute count.
    pub domains: usize,
}

/// Builds the Figure 3 series from weekly snapshots.
pub fn fig3(weeklies: &[WeeklySnapshot]) -> Vec<Fig3Point> {
    let mut out = Vec::new();
    for w in weeklies {
        for (list, resolved, with_rr) in &w.dns_lists {
            out.push(Fig3Point {
                week: w.week,
                list: list.label(),
                success_rate: if *resolved == 0 {
                    0.0
                } else {
                    100.0 * *with_rr as f64 / *resolved as f64
                },
                domains: *with_rr,
            });
        }
    }
    out
}

/// A CDF series for Figures 4 and 8.
#[derive(Debug, Clone)]
pub struct CdfSeries {
    /// Legend label, e.g. `[IPv4] ZMap`.
    pub label: String,
    /// (AS rank, cumulative share) points.
    pub points: Vec<(usize, f64)>,
}

/// Figure 4: AS distribution of addresses per discovery source.
pub fn fig4(snap: &StatefulSnapshot) -> Vec<CdfSeries> {
    let sets = crate::tables::source_sets(snap);
    let mut out = Vec::new();
    let mut push = |label: String, addrs: Vec<IpAddr>| {
        let cdf = as_rank_cdf(addrs.iter().filter_map(|a| snap.universe.asdb.lookup(a)));
        out.push(CdfSeries { label, points: cdf });
    };
    for (v4, fam) in [(true, "IPv4"), (false, "IPv6")] {
        let f = |s: &HashSet<IpAddr>| -> Vec<IpAddr> {
            s.iter().filter(|a| a.is_v4() == v4).copied().collect()
        };
        push(format!("[{fam}] SVCB"), f(&sets.https));
        push(format!("[{fam}] ALT"), f(&sets.alt));
        push(format!("[{fam}] ZMap"), f(&sets.zmap));
        // ZMap+DNS: ZMap addresses with at least one joined domain.
        let joined: Vec<IpAddr> = sets
            .zmap
            .iter()
            .filter(|a| a.is_v4() == v4 && sets.addr_domains.contains_key(a))
            .copied()
            .collect();
        push(format!("[{fam}] ZMap+DNS"), joined);
    }
    out
}

/// Figure 5: version-set shares per week (sets <1% fold into "Other").
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Calendar week.
    pub week: u32,
    /// Set label, e.g. "ietf-01 draft-29 draft-28 draft-27".
    pub set: String,
    /// Share of addresses announcing exactly this set (%).
    pub share: f64,
    /// Absolute address count.
    pub count: usize,
}

/// Builds Figure 5 from weekly ZMap results.
pub fn fig5(weeklies: &[WeeklySnapshot]) -> Vec<Fig5Point> {
    let mut out = Vec::new();
    for w in weeklies {
        let total = w.zmap_v4.len();
        let mut sets: HashMap<String, usize> = HashMap::new();
        for hit in &w.zmap_v4 {
            *sets.entry(set_label(&hit.versions)).or_default() += 1;
        }
        let mut other = 0usize;
        for (set, count) in sets {
            if total > 0 && (count as f64) / (total as f64) < 0.01 {
                other += count;
            } else {
                out.push(Fig5Point {
                    week: w.week,
                    set,
                    share: 100.0 * count as f64 / total.max(1) as f64,
                    count,
                });
            }
        }
        if other > 0 {
            out.push(Fig5Point {
                week: w.week,
                set: "Other".into(),
                share: 100.0 * other as f64 / total.max(1) as f64,
                count: other,
            });
        }
    }
    // Ties on the count fall back to the label: the sets come out of a
    // `HashMap`, whose order differs from process to process.
    out.sort_by(|a, b| (a.week, b.count, &a.set).cmp(&(b.week, a.count, &b.set)));
    out
}

/// Figure 6: individual version support per week.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Week.
    pub week: u32,
    /// Version label.
    pub version: String,
    /// Share of addresses announcing it (%).
    pub share: f64,
}

/// Builds Figure 6.
pub fn fig6(weeklies: &[WeeklySnapshot]) -> Vec<Fig6Point> {
    let mut out = Vec::new();
    for w in weeklies {
        let total = w.zmap_v4.len().max(1);
        let mut versions: HashMap<Version, usize> = HashMap::new();
        for hit in &w.zmap_v4 {
            for v in &hit.versions {
                *versions.entry(*v).or_default() += 1;
            }
        }
        let mut other = 0usize;
        for (v, count) in versions {
            if (count as f64) / (total as f64) < 0.01 {
                other += count;
                continue;
            }
            out.push(Fig6Point {
                week: w.week,
                version: v.label(),
                share: 100.0 * count as f64 / total as f64,
            });
        }
        if other > 0 {
            out.push(Fig6Point {
                week: w.week,
                version: "Other".into(),
                share: 100.0 * other as f64 / total as f64,
            });
        }
    }
    out.sort_by(|a, b| (a.week, &a.version).cmp(&(b.week, &b.version)));
    out
}

/// Figure 7: Alt-Svc ALPN-set shares per week, weighted by (domain, IP)
/// pairs.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Week.
    pub week: u32,
    /// Sorted ALPN set, comma-joined (paper legend style).
    pub set: String,
    /// Share of targets (%).
    pub share: f64,
    /// Absolute pair count.
    pub pairs: u64,
}

/// Builds Figure 7 from the weekly Alt-Svc observations.
pub fn fig7(weeklies: &[WeeklySnapshot]) -> Vec<Fig7Point> {
    let mut out = Vec::new();
    for w in weeklies {
        let mut sets: HashMap<String, u64> = HashMap::new();
        let mut total = 0u64;
        for obs in &w.alt_svc {
            let mut alpns: Vec<String> = parse_alt_svc(&obs.alt_svc)
                .into_iter()
                .map(|s| s.alpn)
                .collect();
            alpns.sort();
            alpns.dedup();
            if alpns.is_empty() {
                continue;
            }
            *sets.entry(alpns.join(",")).or_default() += obs.domain_pairs;
            total += obs.domain_pairs;
        }
        let mut other = 0u64;
        for (set, pairs) in sets {
            if total > 0 && (pairs as f64) / (total as f64) < 0.01 {
                other += pairs;
            } else {
                out.push(Fig7Point {
                    week: w.week,
                    set,
                    share: 100.0 * pairs as f64 / total.max(1) as f64,
                    pairs,
                });
            }
        }
        if other > 0 {
            out.push(Fig7Point {
                week: w.week,
                set: "Other".into(),
                share: 100.0 * other as f64 / total.max(1) as f64,
                pairs: other,
            });
        }
    }
    // As in `fig5`: the label breaks ties the `HashMap` would leave open.
    out.sort_by(|a, b| (a.week, b.pairs, &a.set).cmp(&(b.week, a.pairs, &b.set)));
    out
}

/// Figure 8: AS CDF of *successfully* scanned targets.
pub fn fig8(snap: &StatefulSnapshot) -> Vec<CdfSeries> {
    let mut out = Vec::new();
    for (v4, fam) in [(true, "IPv4"), (false, "IPv6")] {
        let no_sni = snap
            .quic_no_sni
            .iter()
            .filter(|r| r.addr.is_v4() == v4 && r.outcome == ScanOutcome::Success)
            .filter_map(|r| snap.universe.asdb.lookup(&r.addr));
        out.push(CdfSeries {
            label: format!("[{fam}] no SNI"),
            points: as_rank_cdf(no_sni),
        });
        let sni = snap
            .quic_sni
            .iter()
            .filter(|(_, r)| r.addr.is_v4() == v4 && r.outcome == ScanOutcome::Success)
            .filter_map(|(_, r)| snap.universe.asdb.lookup(&r.addr));
        out.push(CdfSeries {
            label: format!("[{fam}] SNI"),
            points: as_rank_cdf(sni),
        });
    }
    out
}

/// Figure 9: transport-parameter configurations ranked by target count.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Rank (0-based, paper style).
    pub rank: usize,
    /// Configuration key.
    pub config: String,
    /// Successful targets announcing it.
    pub targets: u64,
    /// Distinct ASes.
    pub ases: u64,
}

/// Builds Figure 9 from successful stateful scans.
pub fn fig9(snap: &StatefulSnapshot) -> Vec<Fig9Row> {
    let mut per_config: HashMap<String, (u64, HashSet<u32>)> = HashMap::new();
    let mut feed = |r: &qscanner::QuicScanResult| {
        if r.outcome != ScanOutcome::Success {
            return;
        }
        let Some(key) = r.tp_config_key() else { return };
        let entry = per_config.entry(key).or_default();
        entry.0 += 1;
        if let Some(asn) = snap.universe.asdb.lookup(&r.addr) {
            entry.1.insert(asn);
        }
    };
    for r in &snap.quic_no_sni {
        feed(r);
    }
    for (_, r) in &snap.quic_sni {
        feed(r);
    }
    let mut rows: Vec<(String, u64, u64)> = per_config
        .into_iter()
        .map(|(k, (t, a))| (k, t, a.len() as u64))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.into_iter()
        .enumerate()
        .map(|(rank, (config, targets, ases))| Fig9Row {
            rank,
            config,
            targets,
            ases,
        })
        .collect()
}

/// §5.2: how many ASes expose exactly `n` configurations (the "42.2% of
/// ASes use three configurations" observation).
pub fn configs_per_as(snap: &StatefulSnapshot) -> HashMap<usize, usize> {
    let mut per_as: HashMap<u32, HashSet<String>> = HashMap::new();
    let mut feed = |r: &qscanner::QuicScanResult| {
        if r.outcome != ScanOutcome::Success {
            return;
        }
        if let (Some(asn), Some(key)) = (snap.universe.asdb.lookup(&r.addr), r.tp_config_key()) {
            per_as.entry(asn).or_default().insert(key);
        }
    };
    for r in &snap.quic_no_sni {
        feed(r);
    }
    for (_, r) in &snap.quic_sni {
        feed(r);
    }
    let mut histogram: HashMap<usize, usize> = HashMap::new();
    for configs in per_as.values() {
        *histogram.entry(configs.len()).or_default() += 1;
    }
    histogram
}
