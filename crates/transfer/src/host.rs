//! Server side of the data plane: application sessions (via
//! [`quic::AppSession`]) that `bind_transfer_host` installs on every
//! connection of an `internet::servers::QuicHost` — the same host type the
//! scanners meet, with the session in place of HTTP/3's stream handler. Two
//! session kinds cover the PEMI workloads:
//!
//! - [`BulkSession`] answers an HTTP/3 `GET /bulk/<n>` on stream 0 with an
//!   `n`-byte body, sent through a congestion-controlled [`DataSender`] —
//!   the response personality (Server header et al.) comes from the same
//!   `internet` deployment profiles the scanners fingerprint. The body is
//!   never built: the session enqueues the response head and the body
//!   length, and the sender generates each chunk (a retransmission too)
//!   with `extend_bulk_body` at its offset. Requests are one HEADERS frame
//!   each and are read whole at their FIN.
//! - [`RtcSession`] is the receiving end of a client-driven real-time
//!   stream: it acknowledges frames and extends flow-control windows.
//!
//! Sessions keep a synthetic flow-local clock advanced one RTT per packet
//! exchange — the same sans-IO determinism discipline the rest of the
//! simulation uses (no shared wall clock on the data path).

use std::collections::HashSet;
use std::sync::Arc;

use h3::request;
use internet::servers::{HttpProfile, QuicHost};
use internet::IMPLEMENTATIONS;
use qcodec::Writer;
use qtls::cert::CertificateAuthority;
use quic::server::{AppSession, EndpointConfig};
use quic::{ConnectionError, Frame, Frames, Seal};
use simnet::addr::Ipv4Addr;
use simnet::{IpAddr, LinkProfile, Network, SocketAddr};

use crate::recv::DataReceiver;
use crate::sched::SchedKind;
use crate::sender::DataSender;

/// Connection-level flow-control window both sides grant (bytes).
pub const CONN_WINDOW: u64 = 256 * 1024;
/// Per-stream flow-control window both sides grant (bytes).
pub const STREAM_WINDOW: u64 = 128 * 1024;
/// Largest bulk body a host will serve.
pub const MAX_BULK_BYTES: u64 = 16 * 1024 * 1024;

/// Deterministic bulk body, one byte at a time: byte `i` of an `n`-byte
/// object. The definition the run-at-a-time pair below is tested against.
#[cfg(test)]
pub(crate) fn bulk_body_byte(i: u64) -> u8 {
    (i.wrapping_mul(31) ^ (i >> 8)) as u8
}

/// One period of the bulk body: `PERIOD[j] = j·31 mod 256`. Body byte `i`
/// is `PERIOD[i mod 256] ^ (i >> 8) as u8`, so a stretch of the body inside
/// one aligned 256-byte run is a slice of this table XORed with one byte.
const PERIOD: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut j = 0;
    while j < 256 {
        t[j] = (j as u8).wrapping_mul(31);
        j += 1;
    }
    t
};

/// The body bytes `[from, from + len)` as runs that stay inside one
/// 256-byte period: each is a slice of [`PERIOD`] and the byte it is XORed
/// with.
fn body_runs(from: u64, len: u64) -> impl Iterator<Item = (&'static [u8], u8)> {
    let (mut at, end) = (from, from + len);
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let j = (at % 256) as usize;
            let n = (256 - j).min((end - at) as usize);
            let run = (&PERIOD[j..j + n], (at >> 8) as u8);
            at += n as u64;
            run
        })
    })
}

/// Appends the bulk body bytes `[from, from + len)` to `out`.
pub(crate) fn extend_bulk_body(out: &mut Vec<u8>, from: u64, len: u64) {
    out.reserve(len as usize);
    for (period, key) in body_runs(from, len) {
        out.extend(period.iter().map(|&p| p ^ key));
    }
}

/// Whether `bytes` are the bulk body from offset `from` on. Every byte is
/// compared; a run folds its differences together, so the compare has no
/// branch per byte.
pub(crate) fn is_bulk_body(bytes: &[u8], from: u64) -> bool {
    let mut rest = bytes;
    body_runs(from, bytes.len() as u64).all(|(period, key)| {
        let (run, tail) = rest.split_at(period.len());
        rest = tail;
        run.iter()
            .zip(period)
            .fold(0, |diff, (&b, &p)| diff | (b ^ p ^ key))
            == 0
    })
}

/// What a data-plane host's connections serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// HTTP/3 bulk downloads (server is the data sender).
    Bulk,
    /// Real-time media sink (client is the data sender).
    Rtc,
}

/// Serving-path knobs. [`Default`] reproduces the legacy (PR 6) host
/// byte-for-byte: id-order scheduling, control packets sealed separately.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostOptions {
    /// Coalesce pending ACK + window grants into the first STREAM payload of
    /// each turn instead of sealing them as their own packet — one sealed
    /// datagram fewer per served round (the batched serving path).
    pub coalesce_control: bool,
    /// Stream scheduling policy for response bodies.
    pub scheduler: SchedKind,
}

/// Server session for HTTP/3 bulk downloads: answers `GET /bulk/<n>` on
/// every client-initiated bidirectional stream (id ≡ 0 mod 4), multiplexing
/// the response bodies through one congestion-controlled sender.
pub(crate) struct BulkSession {
    recv: DataReceiver,
    send: DataSender,
    profile: Arc<HttpProfile>,
    opts: HostOptions,
    rtt_us: u64,
    now_us: u64,
    /// Request streams already answered.
    responded: HashSet<u64>,
    /// The frame payload each packet is composed in.
    payload: Writer,
}

impl BulkSession {
    pub(crate) fn new(profile: Arc<HttpProfile>, rtt_us: u64, opts: HostOptions) -> Self {
        BulkSession {
            recv: DataReceiver::new(CONN_WINDOW, STREAM_WINDOW),
            send: DataSender::new(rtt_us, CONN_WINDOW, STREAM_WINDOW, opts.scheduler),
            profile,
            opts,
            rtt_us,
            now_us: 0,
            responded: HashSet::new(),
            payload: Writer::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn sender(&self) -> &DataSender {
        &self.send
    }

    #[cfg(test)]
    pub(crate) fn receiver(&self) -> &DataReceiver {
        &self.recv
    }

    fn maybe_respond(&mut self) {
        loop {
            let (recv, responded) = (&self.recv, &self.responded);
            let ready = recv
                .stream_ids()
                .find(|&id| id % 4 == 0 && !responded.contains(&id) && recv.stream_done(id));
            let Some(id) = ready else {
                break;
            };
            self.responded.insert(id);
            // A request is one HEADERS frame: read whole at its FIN.
            let Some(req) = request::decode_request(self.recv.read(id)) else {
                continue;
            };
            let n = req
                .path
                .strip_prefix("/bulk/")
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0)
                .min(MAX_BULK_BYTES);
            let head = request::encode_response_head(200, &self.profile.response_headers(false), n);
            self.send.enqueue_bulk(id, head, n);
        }
    }
}

impl AppSession for BulkSession {
    fn on_app_packet(
        &mut self,
        pn: u64,
        frames: Frames<'_>,
        seal: &mut Seal<'_>,
    ) -> Result<(), ConnectionError> {
        self.now_us += self.rtt_us;
        let mut has_ping = false;
        for frame in frames {
            match frame {
                Frame::Ack { ranges, .. } => self.send.on_ack(ranges.iter(), self.now_us),
                Frame::MaxData(limit) => self.send.set_max_data(limit),
                Frame::MaxStreamData { id, max } => self.send.set_max_stream_data(id, max),
                Frame::Ping => has_ping = true,
                _ => {}
            }
        }
        self.recv.on_packet(pn, frames)?;
        self.maybe_respond();
        // A PING means the client saw a silent round (its keepalive may
        // piggyback ACK state and window grants): run the PTO counter so
        // stalled in-flight data eventually retransmits. Any ACK progress
        // above already reset the counter.
        if has_ping {
            self.send.on_silent_round(self.now_us);
        }
        let payload = &mut self.payload;
        payload.clear();
        if self.recv.control_into(payload) && !self.opts.coalesce_control {
            seal(payload.as_slice());
            payload.clear();
        }
        // Coalescing, ACK + grants ride in front of the first STREAM frame:
        // one sealed packet instead of two. They leave alone when there is
        // nothing to send.
        self.send.poll(self.now_us, payload, seal);
        if !payload.is_empty() {
            seal(payload.as_slice());
        }
        Ok(())
    }

    fn is_idle(&self) -> bool {
        // Every request seen has been answered, every response byte acked,
        // and no control output is owed. A connection in this state only
        // wakes again if the client opens a new stream.
        !self.responded.is_empty()
            && self.send.all_acked()
            && !self.send.has_queued_data()
            && !self.recv.has_pending_control()
    }
}

/// Server session for the real-time stream sink: pure receiver.
struct RtcSession {
    recv: DataReceiver,
    /// The control payload each answer is composed in.
    payload: Writer,
}

impl RtcSession {
    fn new() -> Self {
        // A continuous stream wants generous credit; the receiver extends
        // the windows as frames are consumed.
        RtcSession {
            recv: DataReceiver::new(4 * CONN_WINDOW, STREAM_WINDOW),
            payload: Writer::new(),
        }
    }
}

impl AppSession for RtcSession {
    fn on_app_packet(
        &mut self,
        pn: u64,
        frames: Frames<'_>,
        seal: &mut Seal<'_>,
    ) -> Result<(), ConnectionError> {
        self.recv.on_packet(pn, frames)?;
        self.payload.clear();
        if self.recv.control_into(&mut self.payload) {
            seal(self.payload.as_slice());
        }
        Ok(())
    }
}

/// Where a bound data-plane host listens and the name its certificate
/// carries (the SNI and `:authority` clients use).
pub(crate) struct BoundHost {
    pub(crate) addr: SocketAddr,
    pub(crate) name: String,
}

/// Binds host number `idx` of a workload topology at `ip`:443 — certificate
/// for `name` issued by `ca`, a `kind` session on every connection serving
/// through `opts` with the `idx`-th deployment personality as its `Server`
/// header and the simulation's path RTT as its first estimate, host seed
/// derived from the workload's master `seed` — and puts `profile` on the
/// path towards it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bind_transfer_host(
    net: &mut Network,
    ca: &CertificateAuthority,
    idx: u64,
    name: String,
    ip: Ipv4Addr,
    kind: SessionKind,
    opts: HostOptions,
    profile: LinkProfile,
    seed: u64,
) -> BoundHost {
    let digest = qcrypto::sha256::digest(name.as_bytes());
    let cert = ca.issue(idx, &name, vec![name.clone()], 0, 999, digest);
    let tls = Arc::new(qtls::ServerConfig {
        alpn: vec![b"h3".to_vec()],
        ..qtls::ServerConfig::single_cert(cert)
    });
    let http = Arc::new(HttpProfile {
        server_header: IMPLEMENTATIONS[idx as usize % IMPLEMENTATIONS.len()]
            .server_header
            .to_string(),
        alt_svc: None,
        extra_headers: vec![],
    });
    let rtt_us = net.rtt().0;
    let host = QuicHost::with_sessions(
        EndpointConfig::new(tls),
        seed ^ (idx << 17),
        Box::new(move || match kind {
            SessionKind::Bulk => Box::new(BulkSession::new(Arc::clone(&http), rtt_us, opts)),
            SessionKind::Rtc => Box::new(RtcSession::new()),
        }),
    );
    let addr = SocketAddr::new(IpAddr::V4(ip), 443);
    net.bind_udp(addr, Box::new(host));
    net.set_path_profile(addr.ip, profile);
    BoundHost { addr, name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::CHUNK_BYTES;
    use std::hint::black_box;
    use std::time::Instant;

    fn per_byte(from: u64, len: u64) -> Vec<u8> {
        (from..from + len).map(bulk_body_byte).collect()
    }

    proptest::proptest! {
        /// The run generator writes what the per-byte definition gives,
        /// from any offset, across any number of 256-byte boundaries, and
        /// the check accepts exactly that.
        #[test]
        fn runs_equal_the_per_byte_definition(from in 0u64..=1 << 40, len in 0u64..=4096) {
            let mut out = vec![0xa5];
            extend_bulk_body(&mut out, from, len);
            proptest::prop_assert_eq!(out[0], 0xa5, "appends, keeps what was there");
            let expected = per_byte(from, len);
            proptest::prop_assert_eq!(&out[1..], &expected[..]);
            proptest::prop_assert!(is_bulk_body(&expected, from));
        }
    }

    /// A body that starts off a 256-byte boundary passes; the same body
    /// with any one byte flipped fails — at its first byte, at the ends of
    /// its first run, mid-run and at its last byte.
    #[test]
    fn one_flipped_byte_fails_the_check() {
        let from = 3 * 256 + 77;
        let body = per_byte(from, 1_000);
        assert!(is_bulk_body(&body, from));
        assert!(!is_bulk_body(&body, from + 1), "right bytes, wrong offset");
        for at in [0, 255, 256, 600, body.len() - 1] {
            for bit in [0x01, 0x80] {
                let mut flipped = body.clone();
                flipped[at] ^= bit;
                assert!(!is_bulk_body(&flipped, from), "byte {at} ^ {bit:#x} passed");
            }
        }
        assert!(is_bulk_body(&[], from));
    }

    /// GB/s of generating and of checking a 1 MB body in 1100-byte chunks,
    /// the sender's cut, through the per-byte definition and through the
    /// 256-byte runs. Asserts nothing; run with
    /// `cargo test --release -p transfer -- --ignored --nocapture body_speed`.
    #[test]
    #[ignore]
    fn body_speed() {
        const BODY: u64 = 1_000_000;
        const ROUNDS: u32 = 64;
        let chunks: Vec<(u64, u64)> = (0..BODY)
            .step_by(CHUNK_BYTES as usize)
            .map(|at| (at, CHUNK_BYTES.min(BODY - at)))
            .collect();
        let body = per_byte(0, BODY);
        let gb_s = |f: &mut dyn FnMut()| {
            f();
            let t = Instant::now();
            for _ in 0..ROUNDS {
                f();
            }
            (BODY * u64::from(ROUNDS)) as f64 / t.elapsed().as_secs_f64() / 1e9
        };
        let mut out = Vec::with_capacity(CHUNK_BYTES as usize);
        let gen_byte = gb_s(&mut || {
            for &(at, len) in &chunks {
                out.clear();
                out.extend((at..at + len).map(bulk_body_byte));
                black_box(&out);
            }
        });
        let gen_runs = gb_s(&mut || {
            for &(at, len) in &chunks {
                out.clear();
                extend_bulk_body(&mut out, at, len);
                black_box(&out);
            }
        });
        let check_byte = gb_s(&mut || {
            for &(at, len) in &chunks {
                let bytes = black_box(&body[at as usize..(at + len) as usize]);
                let ok = bytes.iter().zip(at..).all(|(&b, i)| b == bulk_body_byte(i));
                assert!(black_box(ok));
            }
        });
        let check_runs = gb_s(&mut || {
            for &(at, len) in &chunks {
                let bytes = black_box(&body[at as usize..(at + len) as usize]);
                assert!(black_box(is_bulk_body(bytes, at)));
            }
        });
        println!("body_speed: generate  per-byte {gen_byte:6.2} GB/s   runs {gen_runs:6.2} GB/s");
        println!(
            "body_speed: check     per-byte {check_byte:6.2} GB/s   runs {check_runs:6.2} GB/s"
        );
    }
}
