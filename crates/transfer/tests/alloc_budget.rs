//! The serving path's allocation budget, counted by a global allocator that
//! tallies every allocation this test binary makes (its own binary, so no
//! other test's allocations are counted; one `#[test]`, so nothing runs
//! beside it).
//!
//! Two sweeps of the mux client against `transfer`'s bulk hosts, one
//! worker each:
//! - a `mux_bulk_lossy`-shaped one, 4 connections × 4 streams × 250 kB at
//!   2 % loss, pinned per megabyte served: steady-state serving makes no
//!   allocation per packet, so what is left is per connection, per stream
//!   and per round;
//! - connections that open no request stream, pinned per connection: the
//!   handshake, the HTTP/3 control stream and the close, which is what the
//!   set-up path costs.
//!
//! Run with `--nocapture` to print the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use transfer::mux::{self, MuxConfig};

/// Counts allocations, reallocations and the bytes they request, then
/// hands every call to the system allocator unchanged.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics that
// publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's contract for `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: as in `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations, reallocations and bytes requested while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 3]) {
    let before = [&ALLOCS, &REALLOCS, &BYTES].map(|c| c.load(Relaxed));
    let result = f();
    let after = [&ALLOCS, &REALLOCS, &BYTES].map(|c| c.load(Relaxed));
    (result, [0, 1, 2].map(|i| after[i] - before[i]))
}

/// Allocations per megabyte served by the lossy bulk sweep: 775 are
/// measured, all per connection, stream or round. A megabyte is about 900
/// data packets, so one allocation per packet anywhere on the path —
/// sealing, opening, decoding or a reply container — goes past the bound.
const PER_MB_BOUND: f64 = 1_000.0;
/// Allocations per connection that opens no request stream: 210 are
/// measured. Its exchange is about a dozen datagrams each way, so one more
/// allocation per datagram goes past the bound.
const PER_HANDSHAKE_BOUND: f64 = 215.0;

#[test]
fn serving_stays_within_its_allocation_budget() {
    let bulk = MuxConfig {
        conns: 4,
        streams_per_conn: 4,
        bytes_per_stream: 250_000,
        hosts: 2,
        active_per_worker: 4,
        loss_permille: 20,
        ..MuxConfig::c10k(0x9000, 1)
    };
    let (report, [allocs, reallocs, bytes]) = counted(|| mux::run(&bulk));
    assert_eq!(report.ok, bulk.conns, "every download completes");
    let mb = report.bytes_served as f64 / 1e6;
    let per_mb = allocs as f64 / mb;
    println!(
        "bulk: {:.1} MB served, {allocs} allocations ({per_mb:.0} per MB), \
         {reallocs} reallocations, {:.2} bytes requested per byte served",
        mb,
        bytes as f64 / report.bytes_served as f64
    );

    let setup = MuxConfig {
        conns: 64,
        streams_per_conn: 0,
        ..bulk.clone()
    };
    let (report, [allocs, reallocs, bytes]) = counted(|| mux::run(&setup));
    assert_eq!(report.ok, setup.conns, "every connection closes cleanly");
    let per_conn = allocs as f64 / setup.conns as f64;
    println!(
        "set-up: {} connections, {allocs} allocations ({per_conn:.0} per connection), \
         {reallocs} reallocations, {bytes} bytes requested",
        setup.conns
    );

    assert!(per_mb <= PER_MB_BOUND, "{per_mb:.0} allocations per MB");
    assert!(
        per_conn <= PER_HANDSHAKE_BOUND,
        "{per_conn:.0} allocations per connection set up"
    );
}
