//! QUIC (RFC 9000/9001 subset, plus the draft versions the paper scans for):
//! wire format, packet protection, version negotiation, and sans-IO client
//! and server connection state machines.
//!
//! What's implemented, because the paper's measurements exercise it:
//! * Long/short header packets, Initial/Handshake/1-RTT protection with
//!   header protection (validated against RFC 9001 Appendix A derivations).
//! * Version Negotiation, including the reserved `0x?a?a?a?a` versions used
//!   to *force* negotiation — the heart of the ZMap module (§3.1).
//! * The transport-parameters extension with the full RFC 9000 §18.2
//!   catalogue, and a configuration key used to cluster deployments (Fig. 9).
//! * CRYPTO/ACK/STREAM/CONNECTION_CLOSE/HANDSHAKE_DONE frames; enough stream
//!   machinery to run HTTP/3 requests on top.
//!
//! Also implemented: Retry packets with their integrity tag (RFC 9001 §5.8,
//! validated against Appendix A.4) — some 2021 deployments validated client
//! addresses via Retry.
//!
//! Both ends run on one crate-private packet-space core (`space`): the
//! connection IDs, keys, packet numbers, sealing and CRYPTO reassembly of a
//! connection live there, for the client and the server alike.
//!
//! The 1-RTT space has one path at each end. A server connection's belongs
//! to an [`server::AppSession`]; the HTTP/3 [`server::StreamHandler`] the
//! scanners' hosts run is one, through an adapter. A client connection
//! decodes every 1-RTT packet in one place, then hands it whole to a data
//! plane ([`ClientConnection::enable_app_frames`]) or keeps its stream data
//! ([`ClientConnection::poll_streams`]). RFC 9000 §13.1 is checked on both.
//!
//! Loss recovery, congestion control and flow-control enforcement live one
//! layer up in the `transfer` crate, which drives this crate's sealing
//! primitives ([`ClientConnection::send_app_payload`], [`server::AppSession`])
//! — the scanners themselves never needed them. Still not implemented:
//! connection migration, key update, 0-RTT.
//!
//! A handshake keeps one cache across connections: the process-wide
//! Initial-key memo ([`keys::initial_keys_shared`]), through which the
//! simulated server reuses the pair the client derived for the same
//! Initial. Everything else is per connection: each owns its sealing
//! buffers, and each server handshake selects and encodes its certificate.

pub mod conn;
pub mod error;
pub mod frame;
pub mod keys;
pub mod packet;
pub mod retry;
pub mod server;
mod space;
pub mod tparams;
pub mod version;

pub use conn::{AppPacket, ClientConfig, ClientConnection, ConnectionState, HandshakeOutcome};
pub use error::{ConnectionError, TransportError};
pub use frame::Frame;
pub use keys::{initial_keys, PacketKeys};
pub use packet::{ConnectionId, Packet, PacketType};
pub use server::{AppSession, Endpoint, EndpointConfig, StreamHandler, StreamSend};
pub use tparams::TransportParameters;
pub use version::Version;
