//! Rows that tie on their ranking count must still come out in one order.
//! `fig5`, `fig7` and `table6` group through a `HashMap`, and every
//! `HashMap` iterates in an order of its own — so each is rendered several
//! times here, from inputs built independently each time, and the renderings
//! must be the same bytes.

use std::net::Ipv4Addr;

use analysis::campaign::{AltSvcObservation, Campaign, WeeklySnapshot};
use analysis::{figures, tables};
use quic::version::Version;
use simnet::addr::{IpAddr, SocketAddr};
use zmapq::modules::quic_vn::VnResult;

/// Eight version sets and eight ALPN sets per week, every set with the same
/// count, so the ranking key alone decides nothing.
fn tied_weeklies() -> Vec<WeeklySnapshot> {
    const VERSIONS: [Version; 4] = [
        Version::V1,
        Version::DRAFT_29,
        Version::DRAFT_27,
        Version::Q050,
    ];
    (10..13)
        .map(|week| {
            let mut zmap_v4 = Vec::new();
            let mut alt_svc = Vec::new();
            for set in 1u8..=8 {
                let versions: Vec<Version> = VERSIONS
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| set >> bit & 1 == 1)
                    .map(|(_, v)| *v)
                    .collect();
                let value: Vec<String> = versions
                    .iter()
                    .map(|v| format!("h3-{}=\":443\"", v.0 & 0xff))
                    .collect();
                for host in 0u8..5 {
                    let ip = Ipv4Addr::new(10, week as u8, set, host);
                    zmap_v4.push(VnResult {
                        addr: SocketAddr::new(ip, 443),
                        versions: versions.clone(),
                    });
                    alt_svc.push(AltSvcObservation {
                        addr: IpAddr::V4(ip),
                        asn: 64_500,
                        alt_svc: value.join(", "),
                        domain_pairs: 7,
                    });
                }
            }
            WeeklySnapshot {
                week,
                zmap_v4_asn: vec![Some(64_500); zmap_v4.len()],
                zmap_v4,
                zmap_v6: Vec::new(),
                dns_lists: Vec::new(),
                alt_svc,
            }
        })
        .collect()
}

#[test]
fn fig5_and_fig7_order_ties_the_same_way_every_time() {
    let render = || {
        let weeklies = tied_weeklies();
        (
            format!("{:?}", figures::fig5(&weeklies)),
            format!("{:?}", figures::fig7(&weeklies)),
        )
    };
    let (fig5, fig7) = render();
    assert_eq!(
        figures::fig5(&tied_weeklies()).len(),
        3 * 8,
        "every set is its own row"
    );
    assert_eq!(
        figures::fig7(&tied_weeklies()).len(),
        3 * 8,
        "every set is its own row"
    );
    for _ in 0..8 {
        let (again5, again7) = render();
        assert_eq!(again5, fig5);
        assert_eq!(again7, fig7);
    }
    // And the order is the documented one: week, count descending, label.
    let rows = figures::fig5(&tied_weeklies());
    assert!(rows
        .windows(2)
        .all(|w| (w[0].week, &w[0].set) < (w[1].week, &w[1].set)));
    let rows = figures::fig7(&tied_weeklies());
    assert!(rows
        .windows(2)
        .all(|w| (w[0].week, &w[0].set) < (w[1].week, &w[1].set)));
}

#[test]
fn table6_orders_ties_the_same_way_every_time() {
    let snapshot = || {
        Campaign {
            size_factor: 0.01,
            workers: 2,
            ..Campaign::tiny()
        }
        .run_stateful()
    };
    let first = tables::table6(&snapshot(), usize::MAX);
    assert!(
        first
            .windows(2)
            .any(|w| (w[0].ases, w[0].targets) == (w[1].ases, w[1].targets)),
        "the campaign has no tied rows, so this test shows nothing: {first:?}"
    );
    assert!(
        first
            .windows(2)
            .all(|w| (w[1].ases, w[1].targets, &w[0].server)
                < (w[0].ases, w[0].targets, &w[1].server))
    );
    let rendered = format!("{first:?}");
    let again = snapshot();
    for _ in 0..4 {
        assert_eq!(
            format!("{:?}", tables::table6(&again, usize::MAX)),
            rendered
        );
    }
}
