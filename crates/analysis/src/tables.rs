//! Table builders: every table of the paper's evaluation, computed from
//! scan observations.

use std::collections::{HashMap, HashSet};

use qscanner::{QuicScanResult, ScanOutcome};
use simnet::IpAddr;

use crate::campaign::{SniSource, StatefulSnapshot};
use crate::render::pct;

/// Table 1: found QUIC targets per discovery source.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Source label ("ZMap", "ALT-SVC", "HTTPS").
    pub source: &'static str,
    /// Address family ("v4"/"v6").
    pub family: &'static str,
    /// Targets scanned/queried.
    pub scanned: u64,
    /// Distinct addresses indicating QUIC support.
    pub addresses: u64,
    /// Distinct ASes those addresses originate from.
    pub ases: u64,
    /// Distinct domains associated with them.
    pub domains: u64,
}

/// Addresses per source, used by Tables 1/2 and the overlap analysis.
pub struct SourceSets {
    /// ZMap VN responders.
    pub zmap: HashSet<IpAddr>,
    /// Addresses serving an h3 Alt-Svc.
    pub alt: HashSet<IpAddr>,
    /// Addresses from HTTPS RRs (hints + A/AAAA of RR domains).
    pub https: HashSet<IpAddr>,
    /// Domains per source.
    pub zmap_domains: HashSet<String>,
    /// Alt-Svc domains.
    pub alt_domains: HashSet<String>,
    /// HTTPS RR domains.
    pub https_domains: HashSet<String>,
    /// Map address → domains resolving to it.
    pub addr_domains: HashMap<IpAddr, Vec<String>>,
}

/// Derives the per-source address/domain sets from a snapshot.
pub fn source_sets(snap: &StatefulSnapshot) -> SourceSets {
    let mut addr_domains: HashMap<IpAddr, Vec<String>> = HashMap::new();
    for r in &snap.resolutions {
        for a in &r.v4 {
            addr_domains
                .entry(IpAddr::V4(*a))
                .or_default()
                .push(r.name.clone());
        }
        for a in &r.v6 {
            addr_domains
                .entry(IpAddr::V6(*a))
                .or_default()
                .push(r.name.clone());
        }
    }

    let zmap: HashSet<IpAddr> = snap
        .zmap_v4
        .iter()
        .chain(&snap.zmap_v6)
        .map(|h| h.addr.ip)
        .collect();
    let mut zmap_domains = HashSet::new();
    for addr in &zmap {
        if let Some(domains) = addr_domains.get(addr) {
            zmap_domains.extend(domains.iter().cloned());
        }
    }

    let mut alt = HashSet::new();
    let mut alt_domains = HashSet::new();
    for r in &snap.tcp_sni {
        if r.alt_services()
            .iter()
            .any(|s| s.alpn == "h3" || s.alpn.starts_with("h3-"))
        {
            alt.insert(r.target.addr);
            if let Some(d) = &r.target.domain {
                alt_domains.insert(d.clone());
            }
        }
    }

    let mut https = HashSet::new();
    let mut https_domains = HashSet::new();
    for r in &snap.resolutions {
        if r.https_indicates_quic() {
            https_domains.insert(r.name.clone());
            for a in r.https_v4_hints.iter().chain(&r.v4) {
                https.insert(IpAddr::V4(*a));
            }
            for a in r.https_v6_hints.iter().chain(&r.v6) {
                https.insert(IpAddr::V6(*a));
            }
        }
    }

    SourceSets {
        zmap,
        alt,
        https,
        zmap_domains,
        alt_domains,
        https_domains,
        addr_domains,
    }
}

fn count_ases(snap: &StatefulSnapshot, addrs: impl Iterator<Item = IpAddr>) -> u64 {
    let ases: HashSet<u32> = addrs
        .filter_map(|a| snap.universe.asdb.lookup(&a))
        .collect();
    ases.len() as u64
}

/// Builds Table 1.
pub fn table1(snap: &StatefulSnapshot) -> Vec<Table1Row> {
    let sets = source_sets(snap);
    let scan_space: u64 = snap
        .universe
        .scan_prefixes()
        .iter()
        .map(|p| u64::try_from(p.size()).unwrap_or(u64::MAX))
        .sum();
    let hitlist_len = snap.universe.v6_hitlist().len() as u64;
    let split = |set: &HashSet<IpAddr>, v4: bool| -> Vec<IpAddr> {
        set.iter().filter(|a| a.is_v4() == v4).copied().collect()
    };
    let domains_of = |addrs: &[IpAddr]| -> u64 {
        let mut d = HashSet::new();
        for a in addrs {
            if let Some(list) = sets.addr_domains.get(a) {
                d.extend(list.iter());
            }
        }
        d.len() as u64
    };
    let list_domains_total: u64 = snap.dns_lists.iter().map(|(_, n, _)| *n as u64).sum();

    let mut rows = Vec::new();
    for (v4, family) in [(true, "v4"), (false, "v6")] {
        let addrs = split(&sets.zmap, v4);
        rows.push(Table1Row {
            source: "ZMap",
            family,
            scanned: if v4 { scan_space } else { hitlist_len },
            addresses: addrs.len() as u64,
            ases: count_ases(snap, addrs.iter().copied()),
            domains: domains_of(&addrs),
        });
    }
    for (v4, family) in [(true, "v4"), (false, "v6")] {
        let addrs = split(&sets.alt, v4);
        let domains = sets
            .alt_domains
            .iter()
            .filter(|d| {
                snap.tcp_sni.iter().any(|r| {
                    r.target.domain.as_deref() == Some(d.as_str())
                        && r.target.addr.is_v4() == v4
                        && r.alt_services().iter().any(|s| s.alpn.starts_with("h3"))
                })
            })
            .count() as u64;
        rows.push(Table1Row {
            source: "ALT-SVC",
            family,
            scanned: snap
                .tcp_sni
                .iter()
                .filter(|r| r.target.addr.is_v4() == v4)
                .count() as u64,
            addresses: addrs.len() as u64,
            ases: count_ases(snap, addrs.iter().copied()),
            domains,
        });
    }
    for (v4, family) in [(true, "v4"), (false, "v6")] {
        let addrs = split(&sets.https, v4);
        let domains = snap
            .resolutions
            .iter()
            .filter(|r| {
                r.https_indicates_quic()
                    && if v4 {
                        !r.v4.is_empty() || !r.https_v4_hints.is_empty()
                    } else {
                        !r.v6.is_empty() || !r.https_v6_hints.is_empty()
                    }
            })
            .count() as u64;
        rows.push(Table1Row {
            source: "HTTPS",
            family,
            scanned: list_domains_total,
            addresses: addrs.len() as u64,
            ases: count_ases(snap, addrs.iter().copied()),
            domains,
        });
    }
    rows
}

/// Table 2: top providers per source.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Source label.
    pub source: &'static str,
    /// Family.
    pub family: &'static str,
    /// Rank (1-based).
    pub rank: usize,
    /// AS name.
    pub provider: String,
    /// Addresses in that AS.
    pub addresses: u64,
    /// Domains joined to those addresses.
    pub domains: u64,
}

/// Builds Table 2 (top `k` providers).
pub fn table2(snap: &StatefulSnapshot, k: usize) -> Vec<Table2Row> {
    let sets = source_sets(snap);
    let mut rows = Vec::new();
    let sources: [(&'static str, &HashSet<IpAddr>, &HashSet<String>); 3] = [
        ("ZMap", &sets.zmap, &sets.zmap_domains),
        ("HTTPS", &sets.https, &sets.https_domains),
        ("ALT-SVC", &sets.alt, &sets.alt_domains),
    ];
    for (source, addrs, source_domains) in sources {
        for (v4, family) in [(true, "v4"), (false, "v6")] {
            let mut per_as: HashMap<u32, (u64, HashSet<&str>)> = HashMap::new();
            for a in addrs.iter().filter(|a| a.is_v4() == v4) {
                let Some(asn) = snap.universe.asdb.lookup(a) else {
                    continue;
                };
                let entry = per_as.entry(asn).or_default();
                entry.0 += 1;
                if let Some(domains) = sets.addr_domains.get(a) {
                    for d in domains {
                        if source_domains.contains(d) {
                            entry.1.insert(d.as_str());
                        }
                    }
                }
            }
            let mut ranked: Vec<(u32, u64, u64)> = per_as
                .into_iter()
                .map(|(asn, (n, d))| (asn, n, d.len() as u64))
                .collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (rank, (asn, addresses, domains)) in ranked.into_iter().take(k).enumerate() {
                rows.push(Table2Row {
                    source,
                    family,
                    rank: rank + 1,
                    provider: snap.universe.asdb.name(asn),
                    addresses,
                    domains,
                });
            }
        }
    }
    rows
}

/// Table 3: stateful outcome shares.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Row labels in paper order.
    pub rows: Vec<(&'static str, [f64; 4])>,
    /// Total targets per column (v4 noSNI, v4 SNI, v6 noSNI, v6 SNI).
    pub totals: [usize; 4],
}

fn classify(outcome: &ScanOutcome) -> usize {
    match outcome {
        ScanOutcome::Success => 0,
        // All four fault-classified silences (no reply, stalled, ICMP
        // unreachable, rate limited) are one "Timeout" row in the paper's
        // taxonomy — a real scanner on a faultless path can't tell them
        // apart, and folding them here keeps Table 3 invariant under
        // calibrated fault injection.
        o if o.is_timeout() => 1,
        ScanOutcome::TransportClose { code: 0x128, .. } => 2,
        ScanOutcome::VersionMismatch => 3,
        _ => 4,
    }
}

/// Builds Table 3. Columns: [v4 no-SNI, v4 SNI, v6 no-SNI, v6 SNI].
pub fn table3(snap: &StatefulSnapshot) -> Table3 {
    let mut counts = [[0usize; 5]; 4];
    let mut totals = [0usize; 4];
    for r in &snap.quic_no_sni {
        let col = if r.addr.is_v4() { 0 } else { 2 };
        counts[col][classify(&r.outcome)] += 1;
        totals[col] += 1;
    }
    for (_, r) in &snap.quic_sni {
        let col = if r.addr.is_v4() { 1 } else { 3 };
        counts[col][classify(&r.outcome)] += 1;
        totals[col] += 1;
    }
    let share = |col: usize, class: usize| -> f64 {
        if totals[col] == 0 {
            0.0
        } else {
            100.0 * counts[col][class] as f64 / totals[col] as f64
        }
    };
    let labels = [
        "Success",
        "Timeout",
        "Crypto Error (0x128)",
        "Version Mismatch",
        "Other",
    ];
    let rows = labels
        .iter()
        .enumerate()
        .map(|(class, label)| {
            (
                *label,
                [
                    share(0, class),
                    share(1, class),
                    share(2, class),
                    share(3, class),
                ],
            )
        })
        .collect();
    Table3 { rows, totals }
}

/// Table 4: per-source SNI-scan success rates.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Source label.
    pub source: &'static str,
    /// v4 targets and success rate.
    pub v4_targets: usize,
    /// Success share (%).
    pub v4_success: f64,
    /// v6 targets.
    pub v6_targets: usize,
    /// Success share (%).
    pub v6_success: f64,
}

/// Builds Table 4.
pub fn table4(snap: &StatefulSnapshot) -> Vec<Table4Row> {
    let sources = [
        ("ZMAP + DNS", SniSource::ZMAP_DNS),
        ("ALT-SVC", SniSource::ALT_SVC),
        ("HTTPS", SniSource::HTTPS_RR),
    ];
    sources
        .iter()
        .map(|(label, mask)| {
            let mut v4 = (0usize, 0usize);
            let mut v6 = (0usize, 0usize);
            for (m, r) in &snap.quic_sni {
                if m & mask == 0 {
                    continue;
                }
                let slot = if r.addr.is_v4() { &mut v4 } else { &mut v6 };
                slot.0 += 1;
                if r.outcome == ScanOutcome::Success {
                    slot.1 += 1;
                }
            }
            let rate = |(n, s): (usize, usize)| {
                if n == 0 {
                    0.0
                } else {
                    100.0 * s as f64 / n as f64
                }
            };
            Table4Row {
                source: label,
                v4_targets: v4.0,
                v4_success: rate(v4),
                v6_targets: v6.0,
                v6_success: rate(v6),
            }
        })
        .collect()
}

/// Table 5: share of hosts with identical TLS properties on QUIC vs TCP.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Rows: property label → share (%) per column
    /// [v4 no-SNI, v4 SNI, v6 no-SNI, v6 SNI].
    pub rows: Vec<(&'static str, [f64; 4])>,
    /// Compared target counts per column.
    pub compared: [usize; 4],
}

/// Builds Table 5 by joining QUIC and TCP scans of identical targets.
pub fn table5(snap: &StatefulSnapshot) -> Table5 {
    // Index TCP scan results.
    let mut tcp_by_addr = HashMap::new();
    for r in &snap.tcp_no_sni {
        if r.handshake_ok() {
            tcp_by_addr.insert(r.target.addr, r);
        }
    }
    let mut tcp_by_pair = HashMap::new();
    for r in &snap.tcp_sni {
        if let (true, Some(d)) = (r.handshake_ok(), &r.target.domain) {
            tcp_by_pair.insert((r.target.addr, d.clone()), r);
        }
    }

    // counts[col] = [compared, same_cert, same_version, tls13_both,
    //                same_group, same_cipher, same_ext]
    let mut counts = [[0usize; 7]; 4];
    let mut tally = |col: usize, q: &QuicScanResult, t: &goscanner::TlsScanResult| {
        let (Some(qt), Some(tt)) = (&q.tls, &t.tls) else {
            return;
        };
        counts[col][0] += 1;
        let same_cert = qt.certificates.first().map(|c| c.fingerprint())
            == tt.certificates.first().map(|c| c.fingerprint());
        counts[col][1] += usize::from(same_cert);
        counts[col][2] += usize::from(qt.tls_version == tt.tls_version);
        // Remaining properties only where TCP also did TLS 1.3.
        if tt.tls_version == qtls::TlsVersion::Tls13 {
            counts[col][3] += 1;
            counts[col][4] += usize::from(qt.group == tt.group);
            counts[col][5] += usize::from(qt.cipher == tt.cipher);
            let strip = |exts: &[u16]| -> Vec<u16> {
                let mut e: Vec<u16> = exts.iter().copied().filter(|&t| t != 0x39).collect();
                e.sort_unstable();
                e
            };
            counts[col][6] +=
                usize::from(strip(&qt.server_extensions) == strip(&tt.server_extensions));
        }
    };

    for q in &snap.quic_no_sni {
        if q.outcome != ScanOutcome::Success {
            continue;
        }
        if let Some(t) = tcp_by_addr.get(&q.addr) {
            let col = if q.addr.is_v4() { 0 } else { 2 };
            tally(col, q, t);
        }
    }
    for (_, q) in &snap.quic_sni {
        if q.outcome != ScanOutcome::Success {
            continue;
        }
        let Some(sni) = &q.sni else { continue };
        if let Some(t) = tcp_by_pair.get(&(q.addr, sni.clone())) {
            let col = if q.addr.is_v4() { 1 } else { 3 };
            tally(col, q, t);
        }
    }

    let share = |col: usize, idx: usize, base_idx: usize| -> f64 {
        let base = counts[col][base_idx];
        if base == 0 {
            0.0
        } else {
            100.0 * counts[col][idx] as f64 / base as f64
        }
    };
    let rows = vec![
        (
            "Certificate",
            [
                share(0, 1, 0),
                share(1, 1, 0),
                share(2, 1, 0),
                share(3, 1, 0),
            ],
        ),
        (
            "TLS Version",
            [
                share(0, 2, 0),
                share(1, 2, 0),
                share(2, 2, 0),
                share(3, 2, 0),
            ],
        ),
        (
            "Key Exchange Group",
            [
                share(0, 4, 3),
                share(1, 4, 3),
                share(2, 4, 3),
                share(3, 4, 3),
            ],
        ),
        (
            "Cipher",
            [
                share(0, 5, 3),
                share(1, 5, 3),
                share(2, 5, 3),
                share(3, 5, 3),
            ],
        ),
        (
            "Extensions",
            [
                share(0, 6, 3),
                share(1, 6, 3),
                share(2, 6, 3),
                share(3, 6, 3),
            ],
        ),
    ];
    Table5 {
        rows,
        compared: [counts[0][0], counts[1][0], counts[2][0], counts[3][0]],
    }
}

/// Table 6: top HTTP Server values by AS spread.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Server header value.
    pub server: String,
    /// Distinct ASes.
    pub ases: u64,
    /// Successful targets returning the value.
    pub targets: u64,
    /// Distinct transport-parameter configurations seen with it.
    pub parameters: u64,
}

/// Builds Table 6 from successful stateful scans (SNI and no-SNI).
pub fn table6(snap: &StatefulSnapshot, k: usize) -> Vec<Table6Row> {
    let mut per_server: HashMap<String, (HashSet<u32>, u64, HashSet<String>)> = HashMap::new();
    let mut feed = |r: &QuicScanResult| {
        if r.outcome != ScanOutcome::Success {
            return;
        }
        let Some(server) = r.server_header() else {
            return;
        };
        let entry = per_server.entry(server.to_string()).or_default();
        if let Some(asn) = snap.universe.asdb.lookup(&r.addr) {
            entry.0.insert(asn);
        }
        entry.1 += 1;
        if let Some(key) = r.tp_config_key() {
            entry.2.insert(key);
        }
    };
    for r in &snap.quic_no_sni {
        feed(r);
    }
    for (_, r) in &snap.quic_sni {
        feed(r);
    }
    let mut rows: Vec<Table6Row> = per_server
        .into_iter()
        .map(|(server, (ases, targets, params))| Table6Row {
            server,
            ases: ases.len() as u64,
            targets,
            parameters: params.len() as u64,
        })
        .collect();
    // The server name breaks ties the `HashMap` would leave open — also at
    // the cut, so the same rows make the top `k` in every process.
    rows.sort_by(|a, b| (b.ases, b.targets, &a.server).cmp(&(a.ases, a.targets, &b.server)));
    rows.truncate(k);
    rows
}

/// Table 7: the AS name mapping.
pub fn table7(snap: &StatefulSnapshot) -> Vec<(u32, String)> {
    let mut rows = internet::asdb::well_known_names()
        .into_iter()
        .map(|(asn, _)| (asn, snap.universe.asdb.name(asn)))
        .collect::<Vec<_>>();
    rows.sort_by_key(|(asn, _)| *asn);
    rows
}

/// Source overlap analysis (§4 "Overlap between sources").
#[derive(Debug, Clone, Default)]
pub struct Overlap {
    /// Addresses seen by every source.
    pub all_three: usize,
    /// Unique to ZMap.
    pub zmap_only: usize,
    /// Unique to Alt-Svc.
    pub alt_only: usize,
    /// Unique to HTTPS RRs.
    pub https_only: usize,
}

/// Computes per-family source overlap.
pub fn overlap(snap: &StatefulSnapshot, v4: bool) -> Overlap {
    let sets = source_sets(snap);
    let f = |s: &HashSet<IpAddr>| -> HashSet<IpAddr> {
        s.iter().filter(|a| a.is_v4() == v4).copied().collect()
    };
    let (z, a, h) = (f(&sets.zmap), f(&sets.alt), f(&sets.https));
    Overlap {
        all_three: z.intersection(&a).filter(|x| h.contains(x)).count(),
        zmap_only: z
            .iter()
            .filter(|x| !a.contains(x) && !h.contains(x))
            .count(),
        alt_only: a
            .iter()
            .filter(|x| !z.contains(x) && !h.contains(x))
            .count(),
        https_only: h
            .iter()
            .filter(|x| !z.contains(x) && !a.contains(x))
            .count(),
    }
}

/// Renders Table 3 as text.
pub fn render_table3(t: &Table3) -> String {
    let mut rows = Vec::new();
    for (label, shares) in &t.rows {
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", shares[0]),
            format!("{:.2}", shares[1]),
            format!("{:.2}", shares[2]),
            format!("{:.2}", shares[3]),
        ]);
    }
    rows.push(vec![
        "Total Targets".into(),
        t.totals[0].to_string(),
        t.totals[1].to_string(),
        t.totals[2].to_string(),
        t.totals[3].to_string(),
    ]);
    crate::render::table(
        "Table 3: Stateful scan results (%)",
        &[
            "Outcome",
            "IPv4 noSNI",
            "IPv4 SNI",
            "IPv6 noSNI",
            "IPv6 SNI",
        ],
        &rows,
    )
}

/// Renders the padding experiment summary (§3.1).
pub fn render_padding(snap: &StatefulSnapshot) -> String {
    let p = &snap.padding;
    format!(
        "== §3.1 padding ablation ==\npadded probe hits:   {}\nunpadded probe hits: {} ({})\nunpadded hits in top AS: {:.1}%\n",
        p.padded_hits,
        p.unpadded_hits,
        pct(p.unpadded_hits, p.padded_hits),
        100.0 * p.unpadded_top_as_share,
    )
}
