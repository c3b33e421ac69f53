//! Handshake-throughput bench for the work-stealing scan driver.
//!
//! The workload is the straggler scenario from
//! `qscanner/tests/straggler.rs`: 96 targets where a contiguous slice
//! (indices 24..48) are silent VN-only middleboxes that burn the scanner's
//! whole PTO/attempt budget, and the rest complete fast handshakes. A
//! static chunk split would land the slow slice in one worker's chunk and
//! serialize the sweep behind it; the stealing driver spreads it.
//!
//! Two kinds of numbers come out:
//!
//! * `handshake/*` — wall-clock criterion benches of the scan driver at
//!   1/2/4/8 workers, clean and under the 50‰ calibrated fault plan.
//! * `handshake_model/*` — a deterministic makespan model printed as
//!   `handshake_model/<name> makespan_ms <x>` lines. Per-target costs are
//!   measured once by a serial sweep, then a static chunk split (a
//!   scheduler the product no longer has) and the stealing schedule are
//!   replayed as list schedules over those costs. The model is arithmetic,
//!   not a measurement; it isolates the scheduling effect from host core
//!   count (the CI runner may have fewer cores than workers).
//!   `scripts/bench_scan.sh` lifts both kinds of lines into
//!   BENCH_scan.json.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use internet::{Universe, UniverseConfig};
use qscanner::{QScanner, QuicTarget};
use simnet::addr::Ipv4Addr;
use simnet::{IpAddr, Network};

/// Targets per sweep; `bench_scan.sh` divides by the measured time to
/// report handshakes/s — keep the two in sync.
const HANDSHAKE_BENCH_TARGETS: usize = 96;

/// The slow slice: silent middleboxes at indices 24..48.
const SLOW: std::ops::Range<usize> = 24..48;

fn vantage() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 11))
}

/// Same skew as the straggler regression test: fast Cloudflare handshakes
/// everywhere except the contiguous slow slice of silent Akamai
/// middleboxes.
fn skewed_targets(u: &Universe) -> Vec<QuicTarget> {
    // SNI scans of Cloudflare customer domains — the handshake-completing
    // fast path (a no-SNI probe of the same host ends in a 0x128 close).
    let fast: Vec<QuicTarget> = u
        .domains
        .iter()
        .filter(|d| d.name.contains("cf-customer") && !d.v4_hosts.is_empty())
        .map(|d| {
            let host = &u.hosts[d.v4_hosts[0] as usize];
            QuicTarget::new(IpAddr::V4(host.v4.unwrap()), Some(d.name.clone()))
        })
        .collect();
    let slow: Vec<&internet::HostSpec> = u
        .hosts
        .iter()
        .filter(|h| h.provider == "akamai" && h.v4.is_some())
        .collect();
    assert!(!fast.is_empty() && !slow.is_empty(), "universe lacks needed providers");
    (0..HANDSHAKE_BENCH_TARGETS)
        .map(|i| {
            if SLOW.contains(&i) {
                let host = slow[i % slow.len()];
                QuicTarget::new(IpAddr::V4(host.v4.unwrap()), None)
            } else {
                fast[i % fast.len()].clone()
            }
        })
        .collect()
}

/// Fresh network per sweep (server endpoints keep per-flow state), with
/// the calibrated fault plan when `loss_permille > 0`.
fn network(u: &Universe, loss_permille: u32) -> Network {
    let mut net = u.build_network();
    if loss_permille > 0 {
        net.set_loss_permille(loss_permille);
    }
    net
}

fn bench_handshake(c: &mut Criterion) {
    let u = Universe::generate(UniverseConfig::tiny(18));
    // A patient probe profile: silent targets get 8 attempts × 8 PTOs
    // before the scanner gives up. Responsive targets still finish on the
    // first attempt, so this widens the fast/straggler cost gap to what a
    // patient production scan sees — the regime the scheduler exists for.
    let mut scanner = QScanner::new(vantage(), 1);
    scanner.max_attempts = 8;
    scanner.max_ptos = 8;
    scanner.budget_us = 600_000_000;
    let targets = skewed_targets(&u);

    // Worker counts must agree before their times mean anything.
    let serial = scanner.scan_many(&network(&u, 50), &targets, 1);
    let stealing = scanner.scan_many(&network(&u, 50), &targets, 4);
    assert_eq!(stealing, serial, "worker counts diverged; times are meaningless");

    let mut g = c.benchmark_group("handshake");
    g.sample_size(10);
    for loss in [0u32, 50] {
        for workers in [1usize, 2, 4, 8] {
            g.bench_function(format!("stealing_w{workers}_loss{loss}"), |b| {
                b.iter(|| scanner.scan_many(&network(&u, loss), &targets, workers).len())
            });
        }
    }
    g.finish();

    makespan_model(&scanner, &u, &targets);
}

/// Measures each target's serial scan cost once, then replays both
/// schedulers as deterministic list schedules over those costs. Printed
/// (not criterion-timed): the makespans are computed, and computing them
/// serially is exactly the point — the model does not depend on how many
/// cores this host happens to have.
fn makespan_model(scanner: &QScanner, u: &Universe, targets: &[QuicTarget]) {
    // One serial sweep under the fault plan, timing each target. Median of
    // three sweeps per target keeps scheduler noise out of the model.
    let mut costs_ms = vec![0f64; targets.len()];
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(3); targets.len()];
    for _ in 0..3 {
        let net = network(u, 50);
        for (i, t) in targets.iter().enumerate() {
            let start = Instant::now();
            criterion::black_box(scanner.scan_one(&net, t, i as u64));
            samples[i].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    for (i, mut s) in samples.into_iter().enumerate() {
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        costs_ms[i] = s[s.len() / 2];
    }
    let slow_ms: f64 = SLOW.clone().map(|i| costs_ms[i]).sum::<f64>() / SLOW.len() as f64;
    let fast_ms: f64 = costs_ms.iter().sum::<f64>() / costs_ms.len() as f64;
    println!("handshake_model/cost_slow_mean_ms {slow_ms:.3}");
    println!("handshake_model/cost_all_mean_ms {fast_ms:.3}");

    for workers in [1usize, 2, 4, 8] {
        let chunked = chunked_makespan(&costs_ms, workers);
        let stealing = stealing_makespan(&costs_ms, workers);
        println!("handshake_model/chunked_w{workers}_loss50 makespan_ms {chunked:.3}");
        println!("handshake_model/stealing_w{workers}_loss50 makespan_ms {stealing:.3}");
        println!(
            "handshake_model/speedup_w{workers}_loss50 ratio {:.2}",
            chunked / stealing.max(1e-9)
        );
    }
}

/// Static split: worker `w` owns one contiguous `ceil(n/workers)` chunk;
/// the makespan is the most expensive chunk.
fn chunked_makespan(costs_ms: &[f64], workers: usize) -> f64 {
    let chunk = costs_ms.len().div_ceil(workers);
    costs_ms.chunks(chunk).map(|c| c.iter().sum::<f64>()).fold(0.0, f64::max)
}

/// Replays the `StealQueue` claim dynamics: the worker with the smallest
/// accumulated clock claims the next guided batch. With deterministic
/// per-target costs this is exactly the schedule the real driver executes.
fn stealing_makespan(costs_ms: &[f64], workers: usize) -> f64 {
    let total = costs_ms.len();
    let mut clocks = vec![0f64; workers.max(1)];
    let mut cursor = 0usize;
    while cursor < total {
        let remaining = total - cursor;
        // Mirror of StealQueue::claim's guided batch size.
        let batch = (remaining / (4 * workers.max(1))).clamp(1, 32).min(remaining);
        let next = clocks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        clocks[next] += costs_ms[cursor..cursor + batch].iter().sum::<f64>();
        cursor += batch;
    }
    clocks.into_iter().fold(0.0, f64::max)
}

criterion_group!(benches, bench_handshake);
criterion_main!(benches);
