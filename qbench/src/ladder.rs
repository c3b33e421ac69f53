//! The ladder: single-threaded unit costs, bottom rung (one AEAD seal) to
//! the rung below a whole scan target. Each rung repeats one public call for
//! a fixed slice of time in batches of about a millisecond and reports the
//! median batch's cost per call; the rung's whole interval is one span.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dns::massdns::BulkResolver;
use dns::resolver::Resolver;
use internet::lazy::{LazyUniverse, ScaleConfig};
use internet::FaultPlan;
use qcrypto::aead::{Aead, AeadAlgorithm};
use quic::keys::PacketKeys;
use quic::packet::{ConnectionId, KeySource, PacketType, SealScratch};
use quic::version::Version;
use simnet::addr::Ipv4Addr;
use simnet::{DatagramArena, IpAddr, SocketAddr};
use zmapq::modules::quic_vn::QuicVnModule;

use crate::fixtures;
use crate::layers::LayerValues;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::universe_week18;

/// Runs `op` for about `budget` and returns the median cost of one call in
/// nanoseconds.
fn unit_cost_ns(budget: Duration, mut op: impl FnMut()) -> f64 {
    // Size a batch to about a millisecond from one untimed call and one
    // timed one, so the clock reads cost nothing next to the work.
    op();
    let probe = Instant::now();
    op();
    let once = probe.elapsed().as_nanos().max(1) as u64;
    let per_batch = (1_000_000 / once).clamp(1, 1_000_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        samples.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

struct OneRtt(PacketKeys);

impl KeySource for OneRtt {
    fn keys_for(&self, ty: PacketType) -> Option<&PacketKeys> {
        (ty == PacketType::OneRtt).then_some(&self.0)
    }
}

/// Measures every rung, `budget` each, into `values`.
pub fn run(budget: Duration, tracer: &mut Tracer, values: &mut LayerValues) {
    let root = tracer.open("ladder", None);
    let mut rung = |name: &str, scale: f64, op: &mut dyn FnMut()| {
        let id = tracer.open(name, Some(root));
        let ns = unit_cost_ns(budget, op);
        tracer.close(id);
        values.set(name, ns / scale);
        ns / scale
    };
    const NS: f64 = 1.0;
    const US: f64 = 1e3;
    const MS: f64 = 1e6;

    // qcrypto: the primitives under packet protection and the handshake.
    let data_1200 = vec![0xabu8; 1200];
    let data_1k = vec![0xabu8; 1024];
    let nonce = [1u8; 12];
    let gcm = qcrypto::gcm::AesGcm::new(&[7u8; 16]);
    let sealed = gcm.seal(&nonce, b"aad", &data_1200);
    let seal_us = rung("qcrypto.aes128gcm_seal_1200_us", US, &mut || {
        black_box(gcm.seal(&nonce, b"aad", black_box(&data_1200)));
    });
    let open_us = rung("qcrypto.aes128gcm_open_1200_us", US, &mut || {
        black_box(
            gcm.open(&nonce, b"aad", black_box(&sealed))
                .expect("tag verifies"),
        );
    });
    rung("qcrypto.aes128gcm_seal_64_us", US, &mut || {
        black_box(gcm.seal(&nonce, b"aad", black_box(&data_1200[..64])));
    });
    let chacha = Aead::new(AeadAlgorithm::ChaCha20Poly1305, &[9u8; 32]);
    rung("qcrypto.chacha20poly1305_seal_1200_us", US, &mut || {
        black_box(chacha.seal(&nonce, b"aad", black_box(&data_1200)));
    });
    rung("qcrypto.sha256_1k_us", US, &mut || {
        black_box(qcrypto::sha256::digest(black_box(&data_1k)));
    });
    let secret = [0x42u8; 32];
    rung("qcrypto.hkdf_expand_label_us", US, &mut || {
        black_box(qcrypto::hkdf::expand_label(
            black_box(&secret),
            "quic key",
            &[],
            16,
        ));
    });
    let public = qcrypto::x25519::public_key(&secret);
    rung("qcrypto.x25519_us", US, &mut || {
        black_box(qcrypto::x25519::x25519(black_box(&secret), &public));
    });

    // Wire codecs.
    rung("qcodec.varint_roundtrip_ns", NS, &mut || {
        let mut out = Vec::with_capacity(8);
        qcodec::varint::encode(black_box(1_234_567), &mut out);
        black_box(qcodec::varint::decode(&out).expect("decodes").0);
    });
    let headers = [
        h3::qpack::Header::new(":method", "HEAD"),
        h3::qpack::Header::new(":scheme", "https"),
        h3::qpack::Header::new(":authority", "example.com"),
        h3::qpack::Header::new(":path", "/"),
        h3::qpack::Header::new("server", "proxygen-bolt"),
    ];
    rung("h3.qpack_roundtrip_us", US, &mut || {
        let enc = h3::qpack::encode_field_section(black_box(&headers));
        black_box(h3::qpack::decode_field_section(&enc).expect("decodes"));
    });

    // internet: generating the universe and both ways of building a network.
    rung("internet.universe_generate_ms", MS, &mut || {
        black_box(universe_week18(0x9000, 0.02).hosts.len());
    });
    let universe = universe_week18(0x9000, 0.02);
    let no_faults = FaultPlan::none();
    rung("internet.build_network_ms", MS, &mut || {
        black_box(
            universe
                .build_network_with_faults(&no_faults)
                .udp_socket_count(),
        );
    });
    rung("internet.build_network_lazy_ms", MS, &mut || {
        black_box(
            universe
                .build_network_lazy_with_faults(&no_faults)
                .udp_socket_count(),
        );
    });
    let lazy = LazyUniverse::new(ScaleConfig::million(0x9000));
    let mut index = 0u64;
    rung("internet.lazy_persona_ns", NS, &mut || {
        index = (index + 1) % lazy.endpoints();
        black_box(lazy.persona(index));
    });

    // dns: one name through all four record types.
    let bulk = BulkResolver::new(Resolver::new(Arc::new(universe.zone())));
    let names: Vec<&str> = universe.domains.iter().map(|d| d.name.as_str()).collect();
    let mut next = 0usize;
    rung("dns.resolve_domain_us", US, &mut || {
        next = (next + 1) % names.len();
        black_box(bulk.resolve_domain(names[next]));
    });

    // quic: Initial keys, packet protection, one handshake without simnet.
    let mut dcid = 0u64;
    rung("quic.initial_keys_cold_us", US, &mut || {
        dcid += 1;
        black_box(quic::keys::initial_keys(
            Version::DRAFT_29,
            &dcid.to_be_bytes(),
        ));
    });
    rung("quic.initial_keys_memo_us", US, &mut || {
        black_box(quic::keys::initial_keys_shared(
            Version::DRAFT_29,
            b"memohit!",
        ));
    });
    let (client_initial, _) = quic::keys::initial_keys(Version::DRAFT_29, b"12345678");
    let cid = ConnectionId::new(b"12345678");
    let mut scratch = SealScratch::new();
    let mut packet = Vec::with_capacity(1500);
    let crypto_payload = vec![0x06u8; 300];
    rung("quic.seal_long_1200_us", US, &mut || {
        packet.clear();
        quic::packet::seal_long_into(
            &mut packet,
            &mut scratch,
            PacketType::Initial,
            Version::DRAFT_29,
            &cid,
            &cid,
            &[],
            1,
            black_box(&crypto_payload),
            &client_initial,
            1154,
        );
        assert_eq!(
            packet.len(),
            1200,
            "long-header rung is not the 1200-byte packet it names"
        );
    });
    let one_rtt = OneRtt(PacketKeys::from_secret(AeadAlgorithm::Aes128Gcm, &secret));
    let stream_payload = vec![0x08u8; 1171];
    rung("quic.seal_short_1200_us", US, &mut || {
        packet.clear();
        quic::packet::seal_short_into(
            &mut packet,
            &mut scratch,
            &cid,
            7,
            black_box(&stream_payload),
            &one_rtt.0,
        );
        black_box(packet.len());
    });
    let short = quic::packet::seal_short(&cid, 7, &stream_payload, &one_rtt.0);
    assert_eq!(
        short.len(),
        1200,
        "short-header rung is not the 1200-byte packet it names"
    );
    rung("quic.open_1200_us", US, &mut || {
        black_box(quic::packet::decode_first(black_box(&short), 8, &one_rtt).expect("opens"));
    });
    let quic_tls = fixtures::bench_quic_tls_config();
    let mut seed = 0u64;
    let mut datagrams = 0usize;
    rung("quic.handshake_mem_us", US, &mut || {
        seed += 1;
        datagrams = fixtures::quic_handshake_once(&quic_tls, seed).expect("handshake completes");
    });
    let tcp_tls = fixtures::bench_tls_config();
    rung("qtls.tcp_handshake_mem_us", US, &mut || {
        seed += 1;
        assert!(fixtures::tls_tcp_handshake_once(&tcp_tls, seed));
    });

    // simnet and zmapq: one datagram, one probe, against the /16 fixture
    // (a QUIC host on every 64th address; every other address is a miss).
    let (net, _) = fixtures::sweep_network();
    let src = fixtures::sweep_source();
    let base = u32::from(fixtures::sweep_base());
    let hit = |i: u32| SocketAddr::new(IpAddr::V4(Ipv4Addr::from(base + (i % 1024) * 64)), 443);
    let miss =
        |i: u32| SocketAddr::new(IpAddr::V4(Ipv4Addr::from(base + (i % 1024) * 64 + 1)), 443);
    let module = QuicVnModule::new(0x9000);
    let probe = module.build_probe(0);
    let flight: Vec<Vec<u8>> = vec![probe.clone(); 8];
    let mut shard = net.shard();
    let mut replies: Vec<Vec<u8>> = Vec::new();
    let mut arena = DatagramArena::new();
    let mut i = 0u32;
    rung("simnet.udp_miss_ns", NS, &mut || {
        i += 1;
        replies.clear();
        shard.udp_send_into(src, miss(i), &probe, &mut replies);
        black_box(replies.len());
    });
    rung("simnet.udp_send_single_us", US, &mut || {
        i += 1;
        replies.clear();
        shard.udp_send_into(src, hit(i), &probe, &mut replies);
        assert_eq!(
            replies.len(),
            1,
            "a bound QUIC host answers the forced-VN probe"
        );
    });
    rung("simnet.udp_batch8_us_per_dgram", US * 8.0, &mut || {
        i += 1;
        shard.udp_send_batch(src, hit(i), &flight, &mut arena);
        for reply in shard.udp_recv_batch(&mut arena).collect::<Vec<_>>() {
            arena.recycle(reply);
        }
    });
    let perm = zmapq::FeistelPermutation::new(1 << 22, 7);
    let mut at = 0u64;
    rung("zmapq.feistel_permute_ns", NS, &mut || {
        at = (at + 1) % (1 << 22);
        black_box(perm.permute(at));
    });
    let mut probe_scratch = module.make_scratch();
    rung("zmapq.probe_miss_ns", NS, &mut || {
        i += 1;
        let r = module.probe_with_shard(&mut probe_scratch, &mut shard, src, miss(i), u64::from(i));
        assert!(r.is_none());
    });
    rung("zmapq.probe_hit_us", US, &mut || {
        i += 1;
        let r = module.probe_with_shard(&mut probe_scratch, &mut shard, src, hit(i), u64::from(i));
        assert!(r.is_some());
    });
    shard.finish();

    tracer.close(root);
    values.set("qcrypto.aead_mb_s", 1200.0 / (seal_us + open_us));
    values.set("quic.handshake_mem_datagrams", datagrams as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
            }
        };
        let small = unit_cost_ns(Duration::from_millis(5), spin(1_000));
        let large = unit_cost_ns(Duration::from_millis(5), spin(100_000));
        assert!(large > small * 10.0, "{small} ns vs {large} ns");
    }
}
