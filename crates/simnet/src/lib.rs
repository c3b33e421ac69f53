//! Deterministic simulated network substrate.
//!
//! The paper's tool set scanned the real Internet; here every scanner talks
//! to a [`Network`] instead — a registry of simulated hosts offering UDP and
//! TCP services. The design is sans-IO and synchronous (following the
//! smoltcp guide): a scanner *sends* a datagram and receives the induced
//! response datagrams in the same call. Impairments (loss, jitter, ICMP
//! unreachable, rate limiting) come from per-path [`LinkProfile`]s whose decisions are keyed on per-flow
//! sequence numbers, so results are bit-reproducible at any worker count.
//!
//! Time is virtual: [`clock::SimClock`] is a monotonically advancing counter
//! that the drivers move forward; nothing reads the wall clock.

pub mod addr;
pub mod clock;
mod datagrams;
mod endpoints;
pub mod fanout;
pub mod fasthash;
pub mod fault;
pub mod net;
pub mod stats;

pub use addr::{IpAddr, Prefix, SocketAddr};
pub use clock::{Duration, ShardClock, SimClock, SimTime, VirtualClock};
pub use datagrams::Datagrams;
pub use endpoints::{LazyBinder, LazyStats};
pub use fanout::{fan_out, fan_out_cycles, fan_out_pulled, StealQueue};
pub use fault::{LinkProfile, ReplyRateLimit};
pub use net::{
    DatagramArena, FlightStatus, LockCounters, NetShard, Network, ServiceCtx, TcpAction,
    TcpFactory, TcpHandler, TcpStream, UdpService,
};
pub use stats::NetStats;
