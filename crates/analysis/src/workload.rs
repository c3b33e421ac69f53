//! Rendering and summary extraction for the transfer-plane workload sweeps
//! (bulk goodput and RTC frame latency): aligned text tables for the repro
//! binary and CSV rows for export.

use transfer::mux::MuxReport;
use transfer::workload::{BulkReport, RtcReport};
use transfer::WorkloadReport;

use crate::render;

/// Bulk goodput table rows (one per grid cell × size).
pub fn bulk_rows(report: &BulkReport) -> Vec<Vec<String>> {
    report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.loss_permille),
                format!("{}", r.jitter_us / 1_000),
                format!("{}", r.size),
                format!("{}/{}", r.ok, r.conns),
                format!("{:.2}", r.goodput_kbps_mean as f64 / 1_000.0),
                format!("{:.2}", r.goodput_kbps_min as f64 / 1_000.0),
                format!("{:.2}", r.goodput_kbps_max as f64 / 1_000.0),
            ]
        })
        .collect()
}

/// RTC frame-latency table rows (one per grid cell).
pub fn rtc_rows(report: &RtcReport) -> Vec<Vec<String>> {
    report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.loss_permille),
                format!("{}", r.jitter_us / 1_000),
                format!("{}", r.conns),
                format!("{}", r.frames),
                format!("{:.2}", r.p50_us as f64 / 1_000.0),
                format!("{:.2}", r.p95_us as f64 / 1_000.0),
                format!("{:.2}", r.p99_us as f64 / 1_000.0),
                format!("{:.2}", r.max_us as f64 / 1_000.0),
            ]
        })
        .collect()
}

/// Headers matching [`bulk_rows`].
pub const BULK_HEADERS: [&str; 7] = [
    "Loss ‰",
    "Jitter ms",
    "Size B",
    "OK",
    "Mean Mbps",
    "Min Mbps",
    "Max Mbps",
];

/// Headers matching [`rtc_rows`].
pub const RTC_HEADERS: [&str; 8] = [
    "Loss ‰",
    "Jitter ms",
    "Conns",
    "Frames",
    "p50 ms",
    "p95 ms",
    "p99 ms",
    "Max ms",
];

/// Renders both workload tables as the repro binary prints them.
pub fn render_report(report: &WorkloadReport) -> String {
    let mut out = render::table(
        "Bulk transfer goodput vs loss/jitter",
        &BULK_HEADERS,
        &bulk_rows(&report.bulk),
    );
    out.push('\n');
    out.push_str(&render::table(
        "RTC frame latency vs loss/jitter",
        &RTC_HEADERS,
        &rtc_rows(&report.rtc),
    ));
    out
}

/// Per-host rows of the multiplexed-serving sweep (one per host).
pub fn mux_rows(report: &MuxReport) -> Vec<Vec<String>> {
    report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.host),
                format!("{}", r.conns),
                format!("{}", r.ok),
                format!("{}", r.bytes),
                format!("{:.2}", r.sum_elapsed_us as f64 / 1_000.0),
                format!("{:.2}", r.serve_cpu_us as f64 / 1_000.0),
                format!("{:.2}", r.kbps as f64 / 1_000.0),
            ]
        })
        .collect()
}

/// Headers matching [`mux_rows`].
pub const MUX_HEADERS: [&str; 7] = [
    "Host",
    "Conns",
    "OK",
    "Bytes",
    "Elapsed ms",
    "CPU ms",
    "Mbps",
];

/// Renders the per-host mux serve table plus an aggregate summary line.
pub fn render_mux_report(report: &MuxReport) -> String {
    let mut out = render::table(
        "Multiplexed serving per host",
        &MUX_HEADERS,
        &mux_rows(report),
    );
    out.push_str(&format!(
        "\ntotal: {}/{} conns, {} bytes served, {:.2} MB/s (virtual), \
         {:.2} MB/s (CPU model), scheduler {}, batched {}\n",
        report.ok,
        report.conns,
        report.bytes_served,
        mux_mbps_served_virtual(report),
        report.mbps_served_model,
        report.scheduler,
        report.batched,
    ));
    out
}

/// Aggregate serve rate in MB/s over flow-local virtual time (total bytes
/// over summed per-connection elapsed time). Worker-invariant, unlike the
/// wall-clock figure. 0.0 when nothing completed.
pub fn mux_mbps_served_virtual(report: &MuxReport) -> f64 {
    if report.sum_elapsed_us == 0 {
        return 0.0;
    }
    report.bytes_served as f64 / report.sum_elapsed_us as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use transfer::workload::BulkRow;

    fn bulk() -> BulkReport {
        BulkReport {
            rows: vec![
                BulkRow {
                    loss_permille: 0,
                    jitter_us: 0,
                    size: 50_000,
                    conns: 2,
                    ok: 2,
                    goodput_kbps_mean: 4_000,
                    goodput_kbps_min: 3_000,
                    goodput_kbps_max: 5_000,
                },
                BulkRow {
                    loss_permille: 50,
                    jitter_us: 0,
                    size: 50_000,
                    conns: 2,
                    ok: 1,
                    goodput_kbps_mean: 2_000,
                    goodput_kbps_min: 2_000,
                    goodput_kbps_max: 2_000,
                },
            ],
        }
    }

    #[test]
    fn rows_match_headers() {
        let b = bulk();
        for row in bulk_rows(&b) {
            assert_eq!(row.len(), BULK_HEADERS.len());
        }
    }

    #[test]
    fn mux_rows_and_virtual_rate() {
        let report = MuxReport {
            rows: vec![transfer::mux::MuxHostRow {
                host: 0,
                conns: 4,
                ok: 4,
                bytes: 8_192,
                sum_elapsed_us: 2_000,
                serve_cpu_us: 500,
                kbps: 32_768,
            }],
            conns: 4,
            ok: 4,
            bytes_served: 8_192,
            sum_elapsed_us: 2_000,
            serve_cpu_us: 500,
            mbps_served_model: 8_192.0 / 500.0,
            mbps_served_wall: 1.0,
            sweep_ms: 1,
            peak_active: 4,
            scheduler: "round-robin",
            batched: true,
            events: Vec::new(),
        };
        for row in mux_rows(&report) {
            assert_eq!(row.len(), MUX_HEADERS.len());
        }
        assert_eq!(mux_mbps_served_virtual(&report), 8_192.0 / 2_000.0);
        let rendered = render_mux_report(&report);
        assert!(rendered.contains("4/4 conns"));
        assert!(rendered.contains("round-robin"));
    }
}
