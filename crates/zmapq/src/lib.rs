//! ZMap-style stateless scanning (§3.1): a cyclic address-space permutation
//! (Feistel network, standing in for ZMap's multiplicative-group iteration),
//! token-bucket rate limiting, a blocklist, and pluggable probe modules —
//! the IETF-QUIC Version Negotiation module this paper contributes, plus a
//! TCP SYN module for the TLS-over-TCP pipeline.
//!
//! The three sweeps (`scan_v4`, `scan_v6`, `scan_tcp_syn`) are one sharded
//! driver and one shard loop in [`engine`]; what differs is where a scan
//! index finds its address and which probe is sent there. Prefix sweeps
//! generate addresses a block at a time with
//! [`FeistelPermutation::permute_into`], which encrypts a block's pending
//! cycle-walks in passes so the send loop does not wait on one walk per
//! address; [`FeistelPermutation::permute`] and
//! [`FeistelPermutation::rank`] remain the point lookups (and the definition
//! the block walk is tested against). A permutation of at most 2²⁵ values
//! (a /10 is 2²²) reads its Feistel rounds from tables filled when it is
//! built, one load a round instead of three dependent multiplies.

pub mod blocklist;
pub mod engine;
pub mod feistel;
pub mod modules;
pub mod ratelimit;

pub use blocklist::Blocklist;
pub use engine::{shard_ranges, ScanReport, ShardStats, SweepAccumulator, ZmapConfig, ZmapScanner};
pub use feistel::FeistelPermutation;
pub use modules::quic_vn::{ProbeScratch, QuicVnModule, VnResult};
pub use ratelimit::TokenBucket;
