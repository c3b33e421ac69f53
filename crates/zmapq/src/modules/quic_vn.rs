//! The IETF-QUIC ZMap module (§3.1): sends an Initial-shaped packet with a
//! reserved `0x?a?a?a?a` version to force a Version Negotiation. The payload
//! is *neither encrypted nor a Client Hello* — the server must answer based
//! on the header alone — which keeps the scanner cheap. Padding to 1200
//! bytes is required by RFC 9000 §14.1 (and §3.1 measures what happens
//! without it).

use qcodec::Writer;
use quic::version::Version;
use simnet::SocketAddr;

/// A Version Negotiation hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VnResult {
    /// The responding address.
    pub addr: SocketAddr,
    /// Versions the server advertised, in wire order.
    pub versions: Vec<Version>,
}

/// The QUIC VN probe module.
#[derive(Debug, Clone)]
pub struct QuicVnModule {
    /// Pad the probe to 1200 bytes (default true; §3.1 tests false).
    pub padded: bool,
    /// The reserved version offered.
    pub offered_version: Version,
    seed: u64,
}

/// Multiplier deriving per-target DCIDs from the scan index (PCG's LCG
/// constant — any odd mixer works, it only has to vary per target).
const DCID_MULT: u64 = 0x5851_f42d_4c95_7f2d;

/// Byte range of the DCID inside the probe datagram: 1 header byte + 4
/// version bytes + 1 length byte, then the 8-byte DCID.
const DCID_RANGE: std::ops::Range<usize> = 6..14;

/// The probe's source connection ID, the same for every target.
const SCID: &[u8] = b"zmapscan";

/// Per-thread scan scratch: the probe template (only the DCID bytes change
/// between targets) and a reusable reply buffer. One instance per sweep
/// shard makes the steady-state probe loop allocation-free — the serial
/// path previously built a fresh ≥1200-byte probe and a reply `Vec` for
/// every one of the ~4M addresses of a full-scale IPv4 sweep.
pub struct ProbeScratch {
    probe: Vec<u8>,
    replies: Vec<Vec<u8>>,
    invalid_replies: u64,
}

impl ProbeScratch {
    /// Version Negotiation packets received so far that were not hits: their
    /// connection IDs did not echo the probe's, or they listed no version.
    pub fn invalid_replies(&self) -> u64 {
        self.invalid_replies
    }
}

impl QuicVnModule {
    /// Standard padded module.
    pub fn new(seed: u64) -> Self {
        QuicVnModule {
            padded: true,
            offered_version: Version::FORCE_NEGOTIATION,
            seed,
        }
    }

    /// The §3.1 variant without padding.
    pub fn unpadded(seed: u64) -> Self {
        QuicVnModule {
            padded: false,
            ..QuicVnModule::new(seed)
        }
    }

    /// Builds the probe datagram for target index `i` (varies the DCID).
    pub fn build_probe(&self, i: u64) -> Vec<u8> {
        let mut w = Writer::new();
        // Long header, Initial type, pn length bits arbitrary (unprotected —
        // the server never decrypts a reserved-version packet).
        w.put_u8(0xc0);
        w.put_u32(self.offered_version.0);
        let dcid = (self.seed ^ i.wrapping_mul(DCID_MULT)).to_be_bytes();
        w.put_vec8(&dcid);
        w.put_vec8(SCID);
        w.put_varint(0); // token length
        let body_len: usize = if self.padded { 1200 - w.len() - 2 } else { 32 };
        w.put_varint(body_len as u64);
        // Unencrypted pseudo-payload (mostly PADDING-looking zero bytes).
        w.put_zeroes(body_len);
        w.into_vec()
    }

    /// Allocates the reusable per-thread scratch for
    /// [`QuicVnModule::probe_with_shard`].
    pub fn make_scratch(&self) -> ProbeScratch {
        ProbeScratch {
            probe: self.build_probe(0),
            replies: Vec::new(),
            invalid_replies: 0,
        }
    }

    /// Sends the probe to `dst` and classifies the response, reusing
    /// `scratch` — the allocation-free fast path of the sweep. The probe
    /// goes through a worker-private [`simnet::NetShard`], so traffic
    /// accounting, the virtual clock, and flow counters all stay
    /// shard-local (merged once when the shard finishes).
    ///
    /// A reply is a hit only if it is a Version Negotiation packet that
    /// echoes the probe's connection IDs (RFC 9000 §17.2.1: its DCID is the
    /// probe's SCID, its SCID the probe's DCID) and lists a version; any
    /// other VN is counted in [`ProbeScratch::invalid_replies`].
    // The sweep's per-probe body. Without the hint the compiler stops
    // inlining it into the shard loop once the echo check is in, and a
    // prefix sweep (qbench's `zmapq.sweep_v4_ms`) takes 15–35 % longer.
    #[inline]
    pub fn probe_with_shard(
        &self,
        scratch: &mut ProbeScratch,
        shard: &mut simnet::NetShard<'_>,
        src: SocketAddr,
        dst: SocketAddr,
        index: u64,
    ) -> Option<VnResult> {
        let dcid = (self.seed ^ index.wrapping_mul(DCID_MULT)).to_be_bytes();
        scratch.probe[DCID_RANGE].copy_from_slice(&dcid);
        // Sends append replies; drop the previous probe's before reusing.
        scratch.replies.clear();
        shard.udp_send_into(src, dst, &scratch.probe, &mut scratch.replies);
        for reply in &scratch.replies {
            let Some(vn) = parse_version_negotiation(reply) else {
                continue;
            };
            if vn.dcid == SCID && vn.scid == dcid && !vn.versions.is_empty() {
                return Some(VnResult {
                    addr: dst,
                    versions: vn.versions,
                });
            }
            scratch.invalid_replies += 1;
        }
        None
    }
}

/// A Version Negotiation packet (RFC 9000 §17.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionNegotiation<'a> {
    /// Destination connection ID: the probe's SCID, if the server echoed it.
    pub dcid: &'a [u8],
    /// Source connection ID: the probe's DCID, if the server echoed it.
    pub scid: &'a [u8],
    /// Versions advertised, in wire order (possibly none).
    pub versions: Vec<Version>,
}

/// Parses a Version Negotiation packet (long header, version 0) without any
/// connection state.
pub fn parse_version_negotiation(datagram: &[u8]) -> Option<VersionNegotiation<'_>> {
    let mut r = qcodec::Reader::new(datagram);
    let first = r.read_u8().ok()?;
    if first & 0x80 == 0 {
        return None;
    }
    let version = r.read_u32().ok()?;
    if version != 0 {
        return None;
    }
    let dcid = r.read_vec8().ok()?;
    let scid = r.read_vec8().ok()?;
    let mut versions = Vec::new();
    while let Ok(v) = r.read_u32() {
        versions.push(Version(v));
    }
    Some(VersionNegotiation {
        dcid,
        scid,
        versions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quic::packet::ConnectionId;

    #[test]
    fn probe_shape() {
        let m = QuicVnModule::new(1);
        let probe = m.build_probe(0);
        assert!(probe.len() >= 1200, "padded probe is {}", probe.len());
        assert_eq!(probe[0] & 0xc0, 0xc0);
        let version = u32::from_be_bytes(probe[1..5].try_into().unwrap());
        assert!(Version(version).is_reserved_negotiation());

        let unpadded = QuicVnModule::unpadded(1).build_probe(0);
        assert!(unpadded.len() < 100, "unpadded probe is {}", unpadded.len());
    }

    #[test]
    fn parses_vn_reply() {
        let reply = quic::packet::encode_version_negotiation(
            &ConnectionId::new(b"abc"),
            &ConnectionId::new(b"def"),
            &[Version::DRAFT_29, Version::Q050],
        );
        let vn = parse_version_negotiation(&reply).unwrap();
        assert_eq!((vn.dcid, vn.scid), (&b"abc"[..], &b"def"[..]));
        assert_eq!(vn.versions, vec![Version::DRAFT_29, Version::Q050]);
        assert_eq!(parse_version_negotiation(b"\x40junk"), None);
        // Non-VN long header packet is ignored.
        let mut not_vn = reply.clone();
        not_vn[1..5].copy_from_slice(&Version::V1.0.to_be_bytes());
        assert_eq!(parse_version_negotiation(&not_vn), None);
    }

    /// Answers every probe with one Version Negotiation packet whose DCID
    /// and SCID echo the probe's or not, listing `versions`.
    struct Vn {
        echo_dcid: bool,
        echo_scid: bool,
        versions: Vec<Version>,
    }

    impl simnet::UdpService for Vn {
        fn on_datagram(&mut self, ctx: &mut simnet::ServiceCtx<'_>, _: SocketAddr, probe: &[u8]) {
            let dcid = if self.echo_dcid { SCID } else { b"scanzmap" };
            let scid = if self.echo_scid {
                &probe[DCID_RANGE]
            } else {
                &[0; 8]
            };
            ctx.reply(quic::packet::encode_version_negotiation(
                &ConnectionId::new(dcid),
                &ConnectionId::new(scid),
                &self.versions,
            ));
        }
    }

    /// A VN is a hit only when it echoes both of the probe's connection IDs
    /// and lists a version; any other counts as an invalid reply.
    #[test]
    fn only_an_echoing_vn_is_a_hit() {
        use simnet::addr::Ipv4Addr;
        let src = SocketAddr::new(Ipv4Addr::new(192, 0, 2, 9), 50000);
        let dst = SocketAddr::new(Ipv4Addr::new(10, 50, 0, 5), 443);
        let one = vec![Version::DRAFT_29];
        for (echo_dcid, echo_scid, versions, hit) in [
            (true, true, one.clone(), true),
            (false, true, one.clone(), false),
            (true, false, one.clone(), false),
            (false, false, one, false),
            (true, true, Vec::new(), false),
        ] {
            let mut net = simnet::Network::new(5);
            let vn = Vn {
                echo_dcid,
                echo_scid,
                versions: versions.clone(),
            };
            net.bind_udp(dst, Box::new(vn));
            let m = QuicVnModule::new(3);
            let mut scratch = m.make_scratch();
            let mut shard = net.shard();
            let got = m.probe_with_shard(&mut scratch, &mut shard, src, dst, 17);
            let case = format!("echo dcid {echo_dcid}, scid {echo_scid}, {versions:?}");
            assert_eq!(got.is_some(), hit, "{case}");
            assert_eq!(scratch.invalid_replies(), u64::from(!hit), "{case}");
            if let Some(got) = got {
                assert_eq!(got.versions, versions);
            }
        }
    }

    #[test]
    fn distinct_dcids_per_target() {
        let m = QuicVnModule::new(9);
        assert_ne!(m.build_probe(1)[DCID_RANGE], m.build_probe(2)[DCID_RANGE]);
    }

    /// The in-place DCID patch of the scratch path must produce datagrams
    /// byte-identical to `build_probe`.
    #[test]
    fn scratch_probe_matches_built_probe() {
        for m in [QuicVnModule::new(7), QuicVnModule::unpadded(7)] {
            let mut scratch = m.make_scratch();
            for i in [0u64, 1, 2, 0xdead_beef, u64::MAX] {
                let dcid = (7u64 ^ i.wrapping_mul(DCID_MULT)).to_be_bytes();
                scratch.probe[DCID_RANGE].copy_from_slice(&dcid);
                assert_eq!(scratch.probe, m.build_probe(i), "index {i}");
            }
        }
    }
}
