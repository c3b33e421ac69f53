//! `repro`: regenerates every table and figure of the paper's evaluation
//! from a fresh measurement campaign against the synthetic Internet.
//!
//! Usage:
//!   repro [--fast|--factor F] [--out DIR] [--only tableN|figN|extras] [--workers N]
//!         [--qlog-dir DIR]
//!   repro workload [--fast] [--seed N] [--workers N] [--out DIR]
//!   repro workload --mux [--fast] [--conns N] [--streams N] [--per-packet]
//!                  [--seed N] [--workers N] [--out DIR]
//!   repro scale [--endpoints N] [--seed N] [--workers N] [--capacity N]
//!               [--sample ONE_IN] [--out DIR]
//!
//! `--fast` runs at 10% population scale. Without `--only`, everything is
//! produced. CSV exports land in `--out` (default `results/`).
//!
//! `repro workload` runs the transfer-plane sweeps instead of the scan
//! campaign: bulk HTTP/3 goodput and RTC frame latency across the
//! loss/jitter grid. `SIM_LOSS_PERMILLE` adds baseline loss to every grid
//! cell; the deterministic table artifact lands in `--out/workload.txt`
//! (byte-identical for a given seed at any worker count).
//!
//! `repro workload --mux` runs the multiplexed-serving sweep instead:
//! many concurrent connections (default 10k × 4 streams) driven through a
//! bounded per-worker active window (client memory stays O(active), not
//! O(total)), against hosts using the batched seal path. One `key value`
//! pair per line on stdout, including `mux_ok` and `mux_peak_rss_mb`, which
//! the CI `mux-smoke` job gates on; `--per-packet` selects the unbatched
//! baseline.
//!
//! `repro scale` runs the million-endpoint lazy-universe campaign: an
//! IPv4-scale stateless sweep plus a sampled stateful follow-up, analysed
//! through streaming constant-memory accumulators. Output is one `key
//! value` pair per line on stdout (and `--out/scale.txt`), including
//! `universe_sweep_ms`, `stateful_ms` and `campaign_peak_rss_mb`, which the
//! CI `universe-scale-smoke` job gates on.
//!
//! `--qlog-dir DIR` traces the stateful campaign: the merged per-connection
//! event stream is written to `DIR/stateful.qlog.jsonseq` (RFC 7464 JSON
//! text sequence), aggregated counters/histograms to `DIR/metrics.txt`, and
//! the run fails if the event-derived failure breakdown disagrees with the
//! table-derived one (`analysis::telemetry_audit`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use analysis::campaign::{Campaign, StatefulSnapshot, WeeklySnapshot};
use analysis::{export, figures, render, tables, telemetry_audit};
use telemetry::{FanoutSink, JsonSeqFileSink, MemorySink, Telemetry};

struct Args {
    factor: f64,
    out: PathBuf,
    only: Option<String>,
    workers: usize,
    qlog_dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        factor: 1.0,
        out: PathBuf::from("results"),
        only: None,
        workers: 8,
        qlog_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => args.factor = 0.1,
            "--factor" => {
                args.factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--factor needs a float");
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a path")),
            "--only" => args.only = Some(it.next().expect("--only needs a name")),
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs an integer");
            }
            "--qlog-dir" => {
                args.qlog_dir = Some(PathBuf::from(it.next().expect("--qlog-dir needs a path")));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn wants(args: &Args, name: &str) -> bool {
    args.only.as_deref().map(|o| o == name).unwrap_or(true)
}

fn run_mux() {
    let mut config = transfer::MuxConfig::c10k(0x9000, 8);
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mux" => {}
            "--fast" => {
                config = transfer::MuxConfig::fast(config.seed, config.workers);
            }
            "--conns" => {
                config.conns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--conns needs an integer");
            }
            "--streams" => {
                config.streams_per_conn = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--streams needs an integer");
            }
            "--seed" => {
                config.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs an integer");
            }
            "--per-packet" => {
                config.batched = false;
                config.scheduler = transfer::SchedKind::IdOrder;
            }
            "--out" => out = PathBuf::from(it.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown mux argument: {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out).expect("create output directory");
    eprintln!(
        "[repro] mux sweep: seed {:#x}, {} workers × {} active, {} conns × {} streams × {} B across {} hosts ({}‰ loss, {})…",
        config.seed,
        config.workers,
        config.active_per_worker,
        config.conns,
        config.streams_per_conn,
        config.bytes_per_stream,
        config.hosts,
        config.loss_permille,
        if config.batched { "batched seal path" } else { "per-packet baseline" },
    );
    let report = transfer::mux::run(&config);
    print!("{}", analysis::workload::render_mux_report(&report));
    std::fs::write(out.join("mux.txt"), report.tables()).expect("write mux.txt");
    println!("mux_conns {}", report.conns);
    println!("mux_ok {}", report.ok);
    println!("mux_bytes_served {}", report.bytes_served);
    println!("mux_sweep_ms {}", report.sweep_ms);
    println!("mux_mbps_served {:.2}", report.mbps_served_wall);
    println!(
        "mux_mbps_served_virtual {:.2}",
        analysis::workload::mux_mbps_served_virtual(&report)
    );
    println!("mux_serve_cpu_ms {}", report.serve_cpu_us / 1_000);
    println!("mux_mbps_served_model {:.2}", report.mbps_served_model);
    println!("mux_peak_active {}", report.peak_active);
    println!("mux_peak_rss_mb {}", analysis::scale::peak_rss_mb());
    println!("mux_scheduler {}", report.scheduler);
    println!("mux_batched {}", report.batched);
    eprintln!(
        "[repro] mux done: {}/{} conns in {} ms, {:.2} MB/s served (wall), peak active {}; tables in {}",
        report.ok,
        report.conns,
        report.sweep_ms,
        report.mbps_served_wall,
        report.peak_active,
        out.join("mux.txt").display()
    );
    if report.ok != report.conns {
        eprintln!(
            "[repro] error: {} connections did not complete",
            report.conns - report.ok
        );
        std::process::exit(1);
    }
}

fn run_workload() {
    if std::env::args().skip(2).any(|a| a == "--mux") {
        run_mux();
        return;
    }
    let mut config = transfer::WorkloadConfig::full(0x9000, 8);
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => {
                let fast = transfer::WorkloadConfig::fast(config.seed, config.workers);
                config = transfer::WorkloadConfig {
                    extra_loss_permille: config.extra_loss_permille,
                    ..fast
                };
            }
            "--seed" => {
                config.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs an integer");
            }
            "--out" => out = PathBuf::from(it.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown workload argument: {other}");
                std::process::exit(2);
            }
        }
    }
    config.extra_loss_permille = internet::FaultPlan::from_env().loss_permille;
    std::fs::create_dir_all(&out).expect("create output directory");
    eprintln!(
        "[repro] workload sweep: seed {:#x}, {} workers, {} bulk + {} rtc connections, +{}‰ baseline loss…",
        config.seed,
        config.workers,
        transfer::workload::grid_cells().len() * config.bulk_sizes.len() * config.bulk_conns_per_cell,
        transfer::workload::grid_cells().len() * config.rtc_conns_per_cell,
        config.extra_loss_permille,
    );
    let report = transfer::workload::run(&config);
    print!("{}", analysis::workload::render_report(&report));
    let _ = export::write_csv(
        &out.join("workload_bulk.csv"),
        &[
            "loss_permille",
            "jitter_ms",
            "size_bytes",
            "ok",
            "mean_mbps",
            "min_mbps",
            "max_mbps",
        ],
        &analysis::workload::bulk_rows(&report.bulk),
    );
    let _ = export::write_csv(
        &out.join("workload_rtc.csv"),
        &[
            "loss_permille",
            "jitter_ms",
            "conns",
            "frames",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
        ],
        &analysis::workload::rtc_rows(&report.rtc),
    );
    std::fs::write(out.join("workload.txt"), report.tables()).expect("write workload.txt");
    let cwnd_events = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, telemetry::EventKind::CwndUpdated { .. }))
        .count();
    let losses = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, telemetry::EventKind::PacketLost { .. }))
        .count();
    eprintln!(
        "[repro] workload done: {} trace events ({} cwnd updates, {} losses); tables in {}",
        report.events.len(),
        cwnd_events,
        losses,
        out.join("workload.txt").display()
    );
    let all_ok = report.bulk.rows.iter().all(|r| r.ok == r.conns);
    if !all_ok {
        eprintln!("[repro] warning: some bulk transfers did not complete");
        std::process::exit(1);
    }
}

fn run_scale() {
    let mut campaign = analysis::ScaleCampaign::million(0x9000, 8);
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--endpoints" => {
                campaign.config.endpoints = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--endpoints needs an integer");
            }
            "--seed" => {
                campaign.config.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--workers" => {
                campaign.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs an integer");
            }
            "--capacity" => {
                campaign.resident_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--capacity needs an integer");
            }
            "--sample" => {
                campaign.sample_one_in = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sample needs an integer");
            }
            "--out" => out = Some(PathBuf::from(it.next().expect("--out needs a path"))),
            other => {
                eprintln!("unknown scale argument: {other}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[repro] scale campaign: {} endpoints, {} workers, residency cap {}, sampling 1/{}…",
        campaign.config.endpoints, campaign.workers, campaign.resident_cap, campaign.sample_one_in,
    );
    let report = campaign.run();
    let rendered = report.render();
    print!("{rendered}");
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).expect("create output directory");
        std::fs::write(dir.join("scale.txt"), &rendered).expect("write scale.txt");
    }
    eprintln!(
        "[repro] scale done: swept {} endpoints in {} ms ({}/s), follow-up {} ms, peak RSS {} MiB",
        report.tables.endpoints,
        report.perf.universe_sweep_ms,
        report.perf.universe_endpoints_per_sec,
        report.perf.stateful_ms,
        report.perf.campaign_peak_rss_mb,
    );
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("workload") => {
            run_workload();
            return;
        }
        Some("scale") => {
            run_scale();
            return;
        }
        _ => {}
    }
    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let mut campaign = Campaign {
        size_factor: args.factor,
        seed: 0x9000,
        workers: args.workers,
        ..Default::default()
    };

    // With --qlog-dir the stateful run is traced: the stream goes to a
    // JSON-SEQ file on disk and, in parallel, to a memory sink the
    // post-run audit replays.
    let qlog_memory = args.qlog_dir.as_ref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create qlog directory");
        let path = dir.join("stateful.qlog.jsonseq");
        let file = JsonSeqFileSink::create(&path)
            .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        let memory = Arc::new(MemorySink::new());
        let fanout = FanoutSink::new(vec![Arc::new(file), memory.clone()]);
        campaign.telemetry = Some(Telemetry::with_sink(Arc::new(fanout)));
        memory
    });

    eprintln!(
        "[repro] size factor {} — running stateful campaign (week 18)…",
        args.factor
    );
    let snap = campaign.run_stateful();
    eprintln!(
        "[repro] stateful done: {} ZMap v4 hits, {} SNI targets",
        snap.zmap_v4.len(),
        snap.quic_sni.len()
    );

    if let Some(memory) = &qlog_memory {
        let dir = args
            .qlog_dir
            .as_ref()
            .expect("qlog memory implies qlog dir");
        let tel = campaign
            .telemetry
            .as_ref()
            .expect("qlog memory implies telemetry");
        if let Some(sink) = &tel.sink {
            sink.flush();
        }
        std::fs::write(dir.join("metrics.txt"), tel.metrics.snapshot().render())
            .expect("write metrics.txt");
        match telemetry_audit::audit_stateful(&snap, &memory.events()) {
            Ok(b) => eprintln!(
                "[repro] telemetry audit ok — {} traced outcomes match the tables\n{}",
                b.total(),
                b.render()
            ),
            Err(e) => {
                eprintln!("[repro] {e}");
                std::process::exit(1);
            }
        }
        eprintln!(
            "[repro] qlog trace: {} ({} events); metrics: {}",
            dir.join("stateful.qlog.jsonseq").display(),
            memory.len(),
            dir.join("metrics.txt").display()
        );
    }

    let needs_weekly = ["fig3", "fig5", "fig6", "fig7"]
        .iter()
        .any(|f| wants(&args, f));
    let weeklies: Vec<WeeklySnapshot> = if needs_weekly {
        let weeks = [5u32, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18];
        weeks
            .iter()
            .map(|&w| {
                eprintln!("[repro] weekly scans for calendar week {w}…");
                campaign.run_weekly(w)
            })
            .collect()
    } else {
        Vec::new()
    };

    if wants(&args, "table1") {
        print_table1(&args, &snap);
    }
    if wants(&args, "table2") {
        print_table2(&args, &snap);
    }
    if wants(&args, "table3") {
        println!("{}", tables::render_table3(&tables::table3(&snap)));
    }
    if wants(&args, "table4") {
        print_table4(&snap);
    }
    if wants(&args, "table5") {
        print_table5(&snap);
    }
    if wants(&args, "table6") {
        print_table6(&snap);
    }
    if wants(&args, "table7") {
        print_table7(&snap);
    }
    if wants(&args, "extras") {
        println!("{}", tables::render_padding(&snap));
        print_overlap(&snap);
        print_configs_per_as(&snap);
    }
    if wants(&args, "fig3") {
        print_fig3(&args, &weeklies);
    }
    if wants(&args, "fig4") {
        print_cdf(
            &args,
            "Figure 4: AS distribution of addresses",
            "fig4.csv",
            &figures::fig4(&snap),
        );
    }
    if wants(&args, "fig5") {
        print_fig5(&args, &weeklies);
    }
    if wants(&args, "fig6") {
        print_fig6(&args, &weeklies);
    }
    if wants(&args, "fig7") {
        print_fig7(&args, &weeklies);
    }
    if wants(&args, "fig8") {
        print_cdf(
            &args,
            "Figure 8: AS distribution of successful targets",
            "fig8.csv",
            &figures::fig8(&snap),
        );
    }
    if wants(&args, "fig9") {
        print_fig9(&args, &snap);
    }
    eprintln!("[repro] done; CSV exports in {}", args.out.display());
}

fn print_table1(args: &Args, snap: &StatefulSnapshot) {
    let rows = tables::table1(snap);
    let text_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.source.to_string(),
                r.family.to_string(),
                r.scanned.to_string(),
                r.addresses.to_string(),
                r.ases.to_string(),
                r.domains.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Table 1: Found QUIC targets",
            &["Source", "Fam", "Scanned", "Addresses", "ASes", "Domains"],
            &text_rows,
        )
    );
    let _ = export::write_csv(
        &args.out.join("table1.csv"),
        &[
            "source",
            "family",
            "scanned",
            "addresses",
            "ases",
            "domains",
        ],
        &text_rows,
    );
}

fn print_table2(args: &Args, snap: &StatefulSnapshot) {
    let rows = tables::table2(snap, 5);
    let text_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.source.to_string(),
                r.family.to_string(),
                r.rank.to_string(),
                r.provider.clone(),
                r.addresses.to_string(),
                r.domains.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Table 2: Top 5 providers hosting QUIC services",
            &["Source", "Fam", "Rank", "Provider", "#Addr", "#Domains"],
            &text_rows,
        )
    );
    let _ = export::write_csv(
        &args.out.join("table2.csv"),
        &[
            "source",
            "family",
            "rank",
            "provider",
            "addresses",
            "domains",
        ],
        &text_rows,
    );
}

fn print_table4(snap: &StatefulSnapshot) {
    let rows = tables::table4(snap);
    let text_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.source.to_string(),
                r.v4_targets.to_string(),
                format!("{:.1}%", r.v4_success),
                r.v6_targets.to_string(),
                format!("{:.1}%", r.v6_success),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Table 4: Individual success rate per input",
            &[
                "Source",
                "IPv4 Targets",
                "Success",
                "IPv6 Targets",
                "Success"
            ],
            &text_rows,
        )
    );
}

fn print_table5(snap: &StatefulSnapshot) {
    let t = tables::table5(snap);
    let mut rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|(label, shares)| {
            vec![
                label.to_string(),
                format!("{:.1}", shares[0]),
                format!("{:.1}", shares[1]),
                format!("{:.1}", shares[2]),
                format!("{:.1}", shares[3]),
            ]
        })
        .collect();
    rows.push(vec![
        "Compared targets".into(),
        t.compared[0].to_string(),
        t.compared[1].to_string(),
        t.compared[2].to_string(),
        t.compared[3].to_string(),
    ]);
    println!(
        "{}",
        render::table(
            "Table 5: Same TLS properties on TCP and QUIC (%)",
            &[
                "Property",
                "IPv4 noSNI",
                "IPv4 SNI",
                "IPv6 noSNI",
                "IPv6 SNI"
            ],
            &rows,
        )
    );
}

fn print_table6(snap: &StatefulSnapshot) {
    let rows = tables::table6(snap, 5);
    let text_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.server.clone(),
                r.ases.to_string(),
                r.targets.to_string(),
                r.parameters.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Table 6: Top 5 HTTP Server values",
            &["Server Value", "#ASes", "#Targets", "#Parameters"],
            &text_rows,
        )
    );
}

fn print_table7(snap: &StatefulSnapshot) {
    let rows: Vec<Vec<String>> = tables::table7(snap)
        .into_iter()
        .map(|(asn, name)| vec![format!("AS{asn}"), name])
        .collect();
    println!(
        "{}",
        render::table("Table 7: Important ASes", &["AS", "Name"], &rows)
    );
}

fn print_overlap(snap: &StatefulSnapshot) {
    for (v4, fam) in [(true, "IPv4"), (false, "IPv6")] {
        let o = tables::overlap(snap, v4);
        println!(
            "== Source overlap ({fam}) ==\nshared by all sources: {}\nZMap only: {}\nALT-SVC only: {}\nHTTPS only: {}\n",
            o.all_three, o.zmap_only, o.alt_only, o.https_only
        );
    }
}

fn print_configs_per_as(snap: &StatefulSnapshot) {
    let hist: BTreeMap<usize, usize> = figures::configs_per_as(snap).into_iter().collect();
    let total: usize = hist.values().sum();
    println!("== Transport-parameter configurations per AS ==");
    for (n, ases) in hist {
        println!("{n} config(s): {ases} ASes ({})", render::pct(ases, total));
    }
    println!();
}

fn print_fig3(args: &Args, weeklies: &[WeeklySnapshot]) {
    let points = figures::fig3(weeklies);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.week.to_string(),
                p.list.to_string(),
                format!("{:.2}", p.success_rate),
                p.domains.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Figure 3: HTTPS DNS RR success rate per list",
            &["Week", "List", "Success %", "#Domains"],
            &rows,
        )
    );
    let _ = export::write_csv(
        &args.out.join("fig3.csv"),
        &["week", "list", "success_pct", "domains"],
        &rows,
    );
}

fn print_cdf(args: &Args, title: &str, file: &str, series: &[figures::CdfSeries]) {
    let sample_ranks = [1usize, 2, 3, 4, 5, 10, 20, 50, 100, 200, 500];
    let mut rows = Vec::new();
    for s in series {
        for &r in &sample_ranks {
            let share = analysis::cdf::share_at_rank(&s.points, r);
            if share > 0.0 {
                rows.push(vec![s.label.clone(), r.to_string(), format!("{share:.3}")]);
            }
        }
    }
    println!(
        "{}",
        render::table(title, &["Series", "AS rank", "CDF"], &rows)
    );
    let mut csv_rows = Vec::new();
    for s in series {
        for (rank, share) in &s.points {
            csv_rows.push(vec![
                s.label.clone(),
                rank.to_string(),
                format!("{share:.6}"),
            ]);
        }
    }
    let _ = export::write_csv(&args.out.join(file), &["series", "rank", "cdf"], &csv_rows);
}

fn print_fig5(args: &Args, weeklies: &[WeeklySnapshot]) {
    let points = figures::fig5(weeklies);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.week.to_string(),
                p.set.clone(),
                format!("{:.1}", p.share),
                p.count.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Figure 5: Supported QUIC version sets (ZMap IPv4)",
            &["Week", "Version set", "Share %", "#Addresses"],
            &rows,
        )
    );
    let _ = export::write_csv(
        &args.out.join("fig5.csv"),
        &["week", "set", "share_pct", "count"],
        &rows,
    );
}

fn print_fig6(args: &Args, weeklies: &[WeeklySnapshot]) {
    let points = figures::fig6(weeklies);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.week.to_string(),
                p.version.clone(),
                format!("{:.1}", p.share),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Figure 6: Individual version support (ZMap IPv4)",
            &["Week", "Version", "Share %"],
            &rows,
        )
    );
    let _ = export::write_csv(
        &args.out.join("fig6.csv"),
        &["week", "version", "share_pct"],
        &rows,
    );
}

fn print_fig7(args: &Args, weeklies: &[WeeklySnapshot]) {
    let points = figures::fig7(weeklies);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.week.to_string(),
                p.set.clone(),
                format!("{:.1}", p.share),
                p.pairs.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Figure 7: QUIC-related ALPN sets from Alt-Svc",
            &["Week", "ALPN set", "Share %", "#Pairs"],
            &rows,
        )
    );
    let _ = export::write_csv(
        &args.out.join("fig7.csv"),
        &["week", "set", "share_pct", "pairs"],
        &rows,
    );
}

fn print_fig9(args: &Args, snap: &StatefulSnapshot) {
    let rows_data = figures::fig9(snap);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                r.targets.to_string(),
                r.ases.to_string(),
                r.config.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::table(
            "Figure 9: Transport parameter configurations",
            &["Rank", "#Targets", "#ASes", "Configuration"],
            &rows,
        )
    );
    println!("distinct configurations: {}\n", rows_data.len());
    let _ = export::write_csv(
        &args.out.join("fig9.csv"),
        &["rank", "targets", "ases", "config"],
        &rows,
    );
}
