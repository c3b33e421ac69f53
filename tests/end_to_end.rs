//! Cross-crate integration tests: the full measurement pipeline against a
//! small universe, asserting the *structure* of the paper's findings (who
//! wins, by roughly what factor); one test pins the exact counts.

use std::sync::OnceLock;

use its_over_9000::analysis::campaign::{Campaign, StatefulSnapshot};
use its_over_9000::analysis::{figures, tables};
use its_over_9000::internet::FaultPlan;
use its_over_9000::qscanner::{QuicScanResult, ScanOutcome};

mod common;

/// `Campaign::tiny()` over a materialized network, run once per binary.
fn snapshot() -> &'static StatefulSnapshot {
    static SNAP: OnceLock<StatefulSnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Campaign::tiny().run_stateful())
}

/// Beyond the shapes below, the exact values: the shared snapshot renders
/// the digests and Tables 1, 3, 4 and 6 committed in
/// `golden/campaign_tiny.txt` (which `lazy_equivalence.rs` holds lazy
/// binding to). A clean run also lands on the committed failure-mode
/// breakdown, which a faulted run redistributes over the silent modes.
#[test]
fn snapshot_matches_the_committed_tables() {
    common::check_stateful_sections(snapshot());
    if FaultPlan::from_env().is_none() {
        common::golden::check_section(
            "campaign_tiny.txt",
            "failure breakdown, FaultPlan::none()",
            &format!("{:?}\n", snapshot().failure_breakdown()),
        );
    }
}

#[test]
fn table1_zmap_dominates_addresses() {
    let rows = tables::table1(snapshot());
    let get = |source: &str, family: &str| {
        rows.iter()
            .find(|r| r.source == source && r.family == family)
            .cloned()
            .unwrap()
    };
    let zmap4 = get("ZMap", "v4");
    let alt4 = get("ALT-SVC", "v4");
    let https4 = get("HTTPS", "v4");
    // The paper's ordering: ZMap finds a magnitude more IPv4 addresses than
    // Alt-Svc, which in turn beats HTTPS RRs.
    assert!(
        zmap4.addresses > 5 * alt4.addresses,
        "{} vs {}",
        zmap4.addresses,
        alt4.addresses
    );
    assert!(alt4.addresses * 2 > https4.addresses);
    // But Alt-Svc reveals comparable or more domains than ZMap's join.
    assert!(alt4.domains * 3 > zmap4.domains);
    // Each source sees many ASes (the exact ZMap-vs-ALT ordering only
    // stabilizes at larger scales; see EXPERIMENTS.md).
    assert!(zmap4.ases * 2 >= alt4.ases);
    assert!(zmap4.ases > 20);
    // The scan space dwarfs the hit count (sparse sweep).
    assert!(zmap4.scanned > 100 * zmap4.addresses);
}

#[test]
fn table2_cloudflare_leads_everywhere_it_should() {
    let rows = tables::table2(snapshot(), 5);
    let top = |source: &str, family: &str| -> &str {
        &rows
            .iter()
            .find(|r| r.source == source && r.family == family && r.rank == 1)
            .unwrap()
            .provider
    };
    assert_eq!(top("ZMap", "v4"), "Cloudflare, Inc.");
    assert_eq!(top("HTTPS", "v4"), "Cloudflare, Inc.");
    assert_eq!(top("ALT-SVC", "v4"), "Cloudflare, Inc.");
    // IPv6 Alt-Svc is the Hostinger anomaly (Table 2).
    assert_eq!(top("ALT-SVC", "v6"), "Hostinger International Limited");
    // Google ranks second for ZMap v4.
    let zmap_v4_rank2 = rows
        .iter()
        .find(|r| r.source == "ZMap" && r.family == "v4" && r.rank == 2)
        .unwrap();
    assert_eq!(zmap_v4_rank2.provider, "Google LLC");
}

#[test]
fn table3_outcome_structure_matches_paper() {
    let t = tables::table3(snapshot());
    let row = |label: &str| t.rows.iter().find(|(l, _)| *l == label).unwrap().1;
    let success = row("Success");
    let timeout = row("Timeout");
    let crypto = row("Crypto Error (0x128)");
    let mismatch = row("Version Mismatch");
    // v4 no-SNI: crypto error dominates, then timeouts; success is small.
    assert!(
        crypto[0] > 40.0 && crypto[0] < 60.0,
        "crypto v4 noSNI {}",
        crypto[0]
    );
    assert!(timeout[0] > 20.0 && timeout[0] < 45.0);
    assert!(success[0] < 15.0);
    assert!(mismatch[0] > 4.0 && mismatch[0] < 15.0);
    assert!(
        crypto[0] > timeout[0],
        "0x128 ({}) should dominate timeouts ({})",
        crypto[0],
        timeout[0]
    );
    // SNI flips the picture: success dominates.
    assert!(
        success[1] > 65.0 && success[1] < 90.0,
        "success v4 SNI {}",
        success[1]
    );
    assert!(success[3] > success[1], "v6 SNI beats v4 SNI");
}

#[test]
fn discovery_hits_and_sni_success_rates() {
    let snap = snapshot();
    assert!(
        snap.zmap_v4.len() > 500,
        "zmap v4 hits: {}",
        snap.zmap_v4.len()
    );
    assert!(
        snap.zmap_v6.len() > 50,
        "zmap v6 hits: {}",
        snap.zmap_v6.len()
    );
    // SNI scans succeed far more often than v4 no-SNI ones.
    let success_rate = |results: Vec<&QuicScanResult>| {
        let ok = results.iter().filter(|r| r.outcome == ScanOutcome::Success);
        ok.count() as f64 / results.len() as f64
    };
    let sni_rate = success_rate(snap.quic_sni.iter().map(|(_, r)| r).collect());
    let no_sni_rate = success_rate(snap.quic_no_sni.iter().filter(|r| r.addr.is_v4()).collect());
    assert!(sni_rate > 0.5, "sni rate {sni_rate}");
    assert!(no_sni_rate < 0.3, "no-sni rate {no_sni_rate}");
}

#[test]
fn table4_sources_all_succeed_with_https_lowest() {
    let rows = tables::table4(snapshot());
    for r in &rows {
        assert!(r.v4_targets > 0, "{} has no targets", r.source);
        assert!(r.v4_success > 60.0, "{}: {}", r.source, r.v4_success);
    }
    let rate = |s: &str| rows.iter().find(|r| r.source == s).unwrap().v4_success;
    assert!(rate("ZMAP + DNS") >= rate("HTTPS") - 5.0);
}

#[test]
fn table5_tls_deployments_match_across_stacks() {
    let t = tables::table5(snapshot());
    let row = |label: &str| t.rows.iter().find(|(l, _)| *l == label).unwrap().1;
    // SNI scans: near-total agreement (paper: ≥98%).
    assert!(
        row("Certificate")[1] > 90.0,
        "cert SNI v4 {}",
        row("Certificate")[1]
    );
    assert!(row("Cipher")[1] > 99.0);
    assert!(row("Key Exchange Group")[1] > 99.0);
    // No-SNI: certificates diverge badly (Google's self-signed artifact).
    assert!(
        row("Certificate")[0] < 60.0,
        "cert noSNI v4 should diverge: {}",
        row("Certificate")[0]
    );
    // TLS version almost always matches (the TLS1.2-only slice is tiny —
    // at tiny population scale it is over-represented, hence the margin).
    assert!(row("TLS Version")[1] > 95.0);
    assert!(
        row("TLS Version")[1] < 100.0,
        "the Cloudflare TLS1.2 artifact exists"
    );
}

#[test]
fn table6_edge_pop_fingerprints() {
    let rows = tables::table6(snapshot(), 5);
    assert!(!rows.is_empty());
    // proxygen-bolt spans the most ASes (Facebook edge POPs), gvs second.
    assert_eq!(rows[0].server, "proxygen-bolt", "{rows:?}");
    assert_eq!(rows[1].server, "gvs 1.0");
    // Facebook uses several configs; gvs exactly one (Table 6).
    assert!(rows[0].parameters >= 2);
    assert_eq!(rows[1].parameters, 1);
    // LiteSpeed/nginx/Caddy follow in the AS ranking.
    let names: Vec<&str> = rows.iter().map(|r| r.server.as_str()).collect();
    assert!(names.contains(&"LiteSpeed"), "{names:?}");
}

#[test]
fn fig4_concentration_and_fig8_coverage() {
    let snap = snapshot();
    let fig4 = figures::fig4(snap);
    let zmap_v4 = fig4.iter().find(|s| s.label == "[IPv4] ZMap").unwrap();
    let top1 = its_over_9000::analysis::cdf::share_at_rank(&zmap_v4.points, 1);
    let top4 = its_over_9000::analysis::cdf::share_at_rank(&zmap_v4.points, 4);
    // Paper: top AS ≈ 35%, top-4 ≈ 80%.
    assert!(top1 > 0.25 && top1 < 0.45, "top-1 share {top1}");
    assert!(top4 > 0.65 && top4 < 0.92, "top-4 share {top4}");
    // HTTPS RRs are drastically Cloudflare-biased: top-1 much higher.
    let https_v4 = fig4.iter().find(|s| s.label == "[IPv4] SVCB").unwrap();
    let https_top1 = its_over_9000::analysis::cdf::share_at_rank(&https_v4.points, 1);
    assert!(https_top1 > 0.7, "HTTPS top-1 {https_top1}");

    // Fig 8: successful no-SNI scans still cover most seen ASes.
    let fig8 = figures::fig8(snap);
    let no_sni = fig8.iter().find(|s| s.label == "[IPv4] no SNI").unwrap();
    assert!(
        no_sni.points.len() > 20,
        "ASes with a success: {}",
        no_sni.points.len()
    );
}

#[test]
fn fig9_structure_45_configs_and_pop_triplet() {
    let snap = snapshot();
    let rows = figures::fig9(snap);
    // At tiny scale not all 45 configs have a successful representative,
    // but a substantial diversity must be visible with a heavy head.
    assert!(rows.len() >= 15, "only {} configs observed", rows.len());
    assert!(rows[0].targets > 5 * rows[rows.len() / 2].targets);
    // The top config (Cloudflare's) spans multiple ASes but few compared
    // to the POP configs' AS spread.
    let histogram = figures::configs_per_as(snap);
    let three = histogram.get(&3).copied().unwrap_or(0);
    let total: usize = histogram.values().sum();
    // The paper's "42.2% of ASes show exactly three configurations".
    assert!(
        three * 100 / total > 25,
        "three-config ASes: {three}/{total}"
    );
}

#[test]
fn padding_ablation_matches_section_3_1() {
    let p = &snapshot().padding;
    let rate = p.unpadded_hits as f64 / p.padded_hits as f64;
    // Paper: 11.3% respond without padding, 95.4% of them in one AS.
    assert!(rate > 0.05 && rate < 0.25, "unpadded response rate {rate}");
    assert!(
        p.unpadded_top_as_share > 0.75,
        "top AS share {}",
        p.unpadded_top_as_share
    );
}

#[test]
fn source_overlap_every_source_contributes_unique_addresses() {
    let o = tables::overlap(snapshot(), true);
    assert!(o.zmap_only > 0);
    assert!(o.alt_only > 0, "Alt-Svc must reveal hosts ZMap misses");
    assert!(o.https_only > 0, "HTTPS hints must reveal unique hosts");
    assert!(
        o.zmap_only > o.alt_only,
        "ZMap finds the most unique addresses"
    );
}

#[test]
fn version_mismatch_concentrated_at_google() {
    let snap = snapshot();
    let google_asn = its_over_9000::internet::asdb::asn::GOOGLE;
    let mismatches: Vec<_> = snap
        .quic_no_sni
        .iter()
        .filter(|r| r.outcome == ScanOutcome::VersionMismatch)
        .collect();
    assert!(!mismatches.is_empty());
    let at_google = mismatches
        .iter()
        .filter(|r| snap.universe.asdb.lookup(&r.addr) == Some(google_asn))
        .count();
    // Paper: 99% of version mismatches are Google's roll-out.
    assert!(
        at_google * 100 / mismatches.len() > 95,
        "{at_google}/{} at Google",
        mismatches.len()
    );
}
