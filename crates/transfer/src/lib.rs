//! Application data plane for the simulated QUIC internet: 1-RTT STREAM
//! transfer with RFC 9000 flow control, RFC 9002 loss recovery, pluggable
//! congestion control (NewReno first), and the PEMI-style workloads the
//! paper's performance discussion motivates — bulk file downloads (goodput)
//! and a 30 fps real-time stream (per-frame latency).
//!
//! The layering mirrors a real stack but stays sans-IO and deterministic:
//!
//! - [`sender::DataSender`] chunks stream buffers into 1-RTT payloads under
//!   congestion-window + flow-control + pacing gates and retransmits from
//!   ACK-driven loss detection ([`recovery`]: a ledger of packets in
//!   flight and packets declared lost, queried by range, so an ACK costs
//!   what it newly covers however much history it repeats) or PTO.
//! - [`recv::DataReceiver`] reassembles, deduplicates, generates ACK ranges,
//!   and grants MAX_DATA / MAX_STREAM_DATA windows.
//! - [`host::TransferHost`] runs the server side on the simnet via
//!   `quic::AppSession`, serving HTTP/3 bulk responses with the `internet`
//!   deployment personalities; one function in [`host`] binds every host
//!   the workloads talk to.
//! - [`mux`] holds the one HTTP/3 download client (`MuxConn`: handshake,
//!   `GET /bulk/<n>` on each of its streams, body validation, explicit
//!   close) and the production-shaped sweep that keeps a bounded window of
//!   them live per worker.
//! - [`workload`] drives both PEMI workloads across the `LinkProfile`
//!   loss/jitter grid on the sharded simnet, producing byte-identical
//!   tables at any worker count: the bulk rows are that client with one
//!   stream, the RTC rows a client-sender loop of their own, both fanned
//!   out with `simnet::fan_out`.

pub mod cc;
pub mod flow;
pub mod host;
pub mod mux;
pub mod pace;
pub mod ranges;
pub mod recovery;
pub mod recv;
pub mod sched;
pub mod sender;
pub mod workload;

pub use cc::{CongestionController, NewReno};
pub use host::{HostOptions, TransferHost};
pub use mux::{MuxConfig, MuxReport};
pub use ranges::RangeSet;
pub use recv::DataReceiver;
pub use sched::{IdOrder, RoundRobin, SchedKind, StreamScheduler, StrictPriority};
pub use sender::DataSender;
pub use workload::{BulkReport, RtcReport, WorkloadConfig, WorkloadReport};
