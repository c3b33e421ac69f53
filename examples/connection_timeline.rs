//! Connection timeline: traces one stateful QUIC scan through the telemetry
//! subsystem and prints its qlog-style event stream as a human-readable
//! timeline — every packet, key derivation, PTO, backoff, and injected fault
//! with its flow-local virtual timestamp.
//!
//! Run with: `cargo run --release --example connection_timeline`

use its_over_9000::internet::{FaultPlan, Universe, UniverseConfig};
use its_over_9000::qscanner::{QScanner, QuicTarget};
use its_over_9000::simnet::addr::Ipv4Addr;
use its_over_9000::simnet::IpAddr;
use its_over_9000::telemetry::{Event, EventKind, LocalMetrics};

fn main() {
    // The paper's main measurement week, at 5% scale, over the calibrated
    // fault plan (5% loss) so the trace shows recovery machinery at work.
    let universe = Universe::generate(UniverseConfig::tiny(18));
    let network = universe.build_network_with_faults(&FaultPlan::calibrated(50));

    let domain = universe
        .domains
        .iter()
        .find(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
        .expect("cloudflare customer domain");
    let host = &universe.hosts[domain.v4_hosts[0] as usize];
    let addr = IpAddr::V4(host.v4.expect("v4 host"));

    let scanner = QScanner::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)), 1);
    let mut metrics = LocalMetrics::new();

    // Trace the SNI handshake (succeeds) and the SNI-less one (dies with
    // crypto error 0x128) side by side — the contrast behind Table 3.
    for (flow, sni) in [(0u64, Some(domain.name.clone())), (1, None)] {
        let target = QuicTarget::new(addr, sni.clone());
        let (result, events) =
            scanner.scan_one_traced(&network, &target, flow, Some(18), &mut metrics);
        println!(
            "=== {} (SNI: {}) → {:?} ===",
            addr,
            sni.as_deref().unwrap_or("<none>"),
            result.outcome
        );
        for e in &events {
            println!("{}", render_line(e));
        }
        println!();
    }

    println!("--- metrics across both scans ---");
    print!("{}", metrics.render());
}

/// One timeline line: `+NNN.NNNms  event_name  details`.
fn render_line(e: &Event) -> String {
    let detail = match &e.kind {
        EventKind::PacketSent { space, bytes } => format!("→ {space} ({bytes} bytes)"),
        EventKind::PacketReceived { space, bytes } => format!("← {space} ({bytes} bytes)"),
        EventKind::PtoFired { count, wait_us } => {
            format!(
                "PTO #{count} after {:.1}ms of silence",
                *wait_us as f64 / 1000.0
            )
        }
        EventKind::AttemptStarted { attempt, version } => {
            format!("attempt {attempt}, offering {version}")
        }
        EventKind::BackoffWaited { attempt, wait_us } => {
            format!(
                "attempt {attempt} gave up, backed off {:.1}ms",
                *wait_us as f64 / 1000.0
            )
        }
        EventKind::KeyDerived { level } => format!("{level} keys available"),
        EventKind::HandshakePhase { phase } => format!("handshake {phase}"),
        EventKind::VersionNegotiation { server_versions } => {
            format!("server offers [{}]", server_versions.join(", "))
        }
        EventKind::RetryReceived => "retry accepted (address validated)".into(),
        EventKind::FaultInjected { fault } => format!("network fault: {}", fault.label()),
        EventKind::OutcomeDecided { outcome } => format!("verdict: {outcome}"),
        EventKind::PlanSummary { loss_permille, .. } => {
            format!("fault plan: {loss_permille}‰ loss")
        }
        EventKind::CwndUpdated {
            cwnd,
            in_flight,
            phase,
            ..
        } => {
            format!("cwnd {cwnd}, {in_flight} in flight ({phase})")
        }
        EventKind::PacketLost { pn, bytes, trigger } => {
            format!("pn {pn} lost ({bytes} bytes, {trigger})")
        }
        EventKind::GoodputSampled { bytes, kbps, .. } => {
            format!("{bytes} bytes at {kbps} kbit/s")
        }
        EventKind::FrameLatency { frame, latency_us } => {
            format!(
                "frame {frame} acked after {:.1}ms",
                *latency_us as f64 / 1000.0
            )
        }
        EventKind::HostServeRate { conns, bytes, kbps } => {
            format!("{conns} conns served {bytes} bytes at {kbps} kbit/s")
        }
    };
    format!(
        "+{:>9.3}ms  {:<19} {}",
        e.t_us as f64 / 1000.0,
        e.kind.name(),
        detail
    )
}
