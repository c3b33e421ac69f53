//! The implementation/configuration catalogue: 45 distinct transport-
//! parameter configurations (the number the paper observes in §5.2), the
//! HTTP `Server` header values they ship with, and the implementation-
//! specific CONNECTION_CLOSE wordings the paper fingerprints.

use quic::tparams::TransportParameters;

/// One row of the transport-parameter configuration table:
/// (max_udp_payload, initial_max_data, initial stream data, streams_bidi,
/// streams_uni, idle_ms, ack_delay_exp, max_ack_delay, disable_migration,
/// active_cid_limit).
type TpRow = (u64, u64, u64, u64, u64, u64, u64, u64, bool, u64);

/// The 45 configurations. Paper-grounded anchors:
/// * #0 Cloudflare: stream data 1 MiB, max data an order of magnitude larger.
/// * #1/#2 Facebook origin: 10 485 760 stream data, udp 1500 vs 1404.
/// * #3/#4 Facebook edge POPs: 67 584 stream data, udp 1500 vs 1404.
/// * #5 Google edge (gvs).
/// * 12 configs use udp 65527 (the RFC default), 12 use 1500, and 10
///   distinct udp values appear overall.
/// * max data spans 8 192 … 16 777 216; stream data spans 32 768 … 10 485 760.
const TP_TABLE: [TpRow; 45] = [
    // udp,   data,       stream,     sb,  su, idle,   ade, mad, mig,  acl
    (
        65527, 10_485_760, 1_048_576, 256, 3, 30_000, 3, 25, false, 2,
    ), // 0 quiche/Cloudflare
    (
        1500, 16_777_216, 10_485_760, 100, 100, 60_000, 3, 25, false, 4,
    ), // 1 mvfst origin a
    (
        1404, 16_777_216, 10_485_760, 100, 100, 60_000, 3, 25, false, 4,
    ), // 2 mvfst origin b
    (1500, 1_081_344, 67_584, 100, 100, 60_000, 3, 25, false, 4), // 3 mvfst edge a
    (1404, 1_081_344, 67_584, 100, 100, 60_000, 3, 25, false, 4), // 4 mvfst edge b
    (
        1472, 15_728_640, 6_291_456, 100, 103, 240_000, 3, 25, true, 2,
    ), // 5 google gvs edge
    (
        1472, 15_728_640, 8_388_608, 100, 103, 240_000, 3, 25, true, 2,
    ), // 6 google internal
    (
        65527, 12_582_912, 1_572_864, 100, 3, 30_000, 3, 25, false, 8,
    ), // 7 lsquic a
    (1452, 12_582_912, 1_572_864, 100, 3, 30_000, 3, 25, false, 8), // 8 lsquic b
    (
        65527, 16_777_216, 2_097_152, 128, 3, 60_000, 3, 25, false, 2,
    ), // 9 nginx 1.20.0
    (
        65527, 16_777_216, 1_048_576, 128, 3, 60_000, 3, 25, false, 2,
    ), // 10 nginx 1.19.9
    (65527, 8_388_608, 1_048_576, 128, 3, 60_000, 3, 25, false, 2), // 11 nginx 1.19.4
    (65527, 4_194_304, 524_288, 128, 3, 60_000, 3, 25, false, 2), // 12 nginx 1.18.x
    (65527, 2_097_152, 262_144, 128, 3, 60_000, 3, 25, false, 2), // 13 nginx 1.17.x
    (1500, 16_777_216, 2_097_152, 128, 3, 60_000, 3, 25, false, 2), // 14 nginx tuned a
    (1500, 8_388_608, 1_048_576, 128, 3, 60_000, 3, 25, false, 2), // 15 nginx tuned b
    (1500, 4_194_304, 524_288, 128, 3, 60_000, 3, 25, false, 2),  // 16 nginx tuned c
    (1350, 16_777_216, 2_097_152, 128, 3, 60_000, 3, 25, false, 2), // 17 cf-fork nginx
    (1350, 10_485_760, 1_048_576, 128, 3, 60_000, 3, 25, false, 2), // 18 cf-fork nginx b
    (1200, 2_097_152, 1_048_576, 16, 3, 30_000, 3, 25, false, 2), // 19 nginx minimal
    (1200, 1_048_576, 262_144, 16, 3, 30_000, 3, 25, false, 2),   // 20 nginx minimal b
    (65527, 1_048_576, 131_072, 32, 3, 30_000, 3, 25, false, 2),  // 21 nginx small
    (1500, 1_048_576, 131_072, 32, 3, 30_000, 3, 25, false, 2),   // 22 nginx small b
    (65527, 524_288, 65_536, 16, 3, 30_000, 3, 25, false, 2),     // 23 nginx tiny
    (1252, 524_288, 65_536, 16, 3, 30_000, 3, 25, false, 2),      // 24 nginx tiny b
    (
        1452, 10_485_760, 2_097_152, 250, 3, 120_000, 3, 25, false, 4,
    ), // 25 caddy/quic-go
    (
        16383, 16_777_216, 1_048_576, 100, 100, 30_000, 8, 25, false, 2,
    ), // 26 h2o
    (65527, 8192, 32_768, 4, 1, 10_000, 3, 25, false, 2),         // 27 picoquic-min
    (1500, 8192, 32_768, 4, 1, 10_000, 3, 25, false, 2),          // 28 picoquic-min b
    (
        65527, 1_048_576, 1_048_576, 100, 100, 30_000, 3, 25, false, 2,
    ), // 29 quinn
    (
        1200, 1_048_576, 1_048_576, 100, 100, 30_000, 3, 25, false, 2,
    ), // 30 quinn tuned
    (
        65527, 10_485_760, 10_485_760, 512, 256, 300_000, 3, 25, false, 2,
    ), // 31 ats
    (
        1500, 10_485_760, 10_485_760, 512, 256, 300_000, 3, 25, false, 2,
    ), // 32 ats b
    (16383, 786_432, 98_304, 64, 64, 30_000, 3, 25, false, 2),    // 33 ngtcp2
    (1452, 786_432, 98_304, 64, 64, 30_000, 3, 25, false, 2),     // 34 ngtcp2 b
    (1452, 1_048_576, 262_144, 8, 8, 60_000, 3, 26, false, 2),    // 35 aioquic
    (1500, 1_048_576, 262_144, 8, 8, 60_000, 3, 26, false, 2),    // 36 aioquic b
    (4096, 3_145_728, 393_216, 100, 3, 30_000, 3, 25, false, 2),  // 37 haproxy
    (4096, 3_145_728, 786_432, 100, 3, 30_000, 3, 25, false, 2),  // 38 haproxy b
    (1350, 2_097_152, 1_048_576, 100, 3, 30_000, 2, 20, false, 2), // 39 quant
    (1500, 2_097_152, 1_048_576, 100, 3, 30_000, 2, 20, false, 2), // 40 quant b
    (1500, 1_572_864, 196_608, 50, 50, 45_000, 3, 25, true, 3),   // 41 neqo
    (1252, 1_572_864, 196_608, 50, 50, 45_000, 3, 25, true, 3),   // 42 neqo b
    (1252, 6_291_456, 786_432, 100, 3, 30_000, 3, 25, false, 2),  // 43 kwik
    (1500, 524_288, 49_152, 10, 10, 15_000, 3, 25, false, 2),     // 44 s2n-mini
];

/// Number of distinct transport-parameter configurations in the catalogue —
/// the paper's 45 (§5.2).
pub const TP_CONFIG_COUNT: usize = TP_TABLE.len();

/// Materializes configuration `idx` (0..45).
pub fn tp_config(idx: usize) -> TransportParameters {
    let (udp, data, stream, sb, su, idle, ade, mad, mig, acl) = TP_TABLE[idx];
    TransportParameters {
        max_udp_payload_size: udp,
        initial_max_data: data,
        initial_max_stream_data_bidi_local: stream,
        initial_max_stream_data_bidi_remote: stream,
        initial_max_stream_data_uni: stream,
        initial_max_streams_bidi: sb,
        initial_max_streams_uni: su,
        max_idle_timeout: idle,
        ack_delay_exponent: ade,
        max_ack_delay: mad,
        disable_active_migration: mig,
        active_connection_id_limit: acl,
        ..TransportParameters::default()
    }
}

/// An implementation fingerprint: Server header plus close wording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Implementation {
    /// Short id.
    pub name: &'static str,
    /// HTTP `Server` header value.
    pub server_header: &'static str,
    /// CONNECTION_CLOSE reason wording (implementation-specific, §5).
    pub close_reason: &'static str,
}

/// Catalogue of implementations the universe deploys.
pub const IMPLEMENTATIONS: &[Implementation] = &[
    Implementation {
        name: "quiche-cf",
        server_header: "cloudflare",
        close_reason: "handshake failure",
    },
    Implementation {
        name: "google-quic",
        server_header: "gvs 1.0",
        close_reason: "TLS handshake failure (ENCRYPTION_HANDSHAKE) 40: handshake failure",
    },
    Implementation {
        name: "google-fe",
        server_header: "ESF",
        close_reason: "TLS handshake failure (ENCRYPTION_HANDSHAKE) 40: handshake failure",
    },
    Implementation {
        name: "mvfst",
        server_header: "proxygen-bolt",
        close_reason: "fizz::FizzException: handshake failure",
    },
    Implementation {
        name: "lsquic",
        server_header: "LiteSpeed",
        close_reason: "TLS alert 40",
    },
    Implementation {
        name: "nginx-quic",
        server_header: "nginx",
        close_reason: "handshake failed: alert 40",
    },
    Implementation {
        name: "caddy",
        server_header: "Caddy",
        close_reason: "CRYPTO_ERROR: handshake failure",
    },
    Implementation {
        name: "h2o",
        server_header: "h2o",
        close_reason: "handshake failure",
    },
    Implementation {
        name: "aioquic",
        server_header: "Python/3.7 aiohttp/3.7.2",
        close_reason: "handshake failure (40)",
    },
];

/// Looks an implementation up by id.
pub fn implementation(name: &str) -> &'static Implementation {
    IMPLEMENTATIONS
        .iter()
        .find(|i| i.name == name)
        .unwrap_or_else(|| panic!("unknown implementation {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The paper's headline: exactly 45 distinct configurations.
    #[test]
    fn exactly_45_distinct_configs() {
        let keys: HashSet<String> = (0..TP_CONFIG_COUNT)
            .map(|i| tp_config(i).config_key())
            .collect();
        assert_eq!(keys.len(), 45);
    }

    /// §5.2: 12 configs use the 65527 default, 12 use 1500, 10 distinct
    /// udp payload values overall.
    #[test]
    fn udp_payload_distribution_matches_paper() {
        let udps: Vec<u64> = (0..TP_CONFIG_COUNT)
            .map(|i| tp_config(i).max_udp_payload_size)
            .collect();
        assert_eq!(udps.iter().filter(|&&u| u == 65527).count(), 12);
        assert_eq!(udps.iter().filter(|&&u| u == 1500).count(), 12);
        let distinct: HashSet<u64> = udps.into_iter().collect();
        assert_eq!(distinct.len(), 10);
    }

    /// §5.2: max data spans orders of magnitude (8 KiB … 16 MiB); stream
    /// data spans 32 KiB … 10 MiB.
    #[test]
    fn data_ranges_match_paper() {
        let datas: Vec<u64> = (0..TP_CONFIG_COUNT)
            .map(|i| tp_config(i).initial_max_data)
            .collect();
        assert_eq!(*datas.iter().min().unwrap(), 8192);
        assert_eq!(*datas.iter().max().unwrap(), 16_777_216);
        let streams: Vec<u64> = (0..TP_CONFIG_COUNT)
            .map(|i| tp_config(i).initial_max_stream_data_bidi_local)
            .collect();
        assert_eq!(*streams.iter().min().unwrap(), 32_768);
        assert_eq!(*streams.iter().max().unwrap(), 10_485_760);
    }

    /// Facebook origin/edge configs differ only in udp payload within pairs.
    #[test]
    fn facebook_config_structure() {
        let a = tp_config(1);
        let b = tp_config(2);
        assert_eq!(a.initial_max_stream_data_uni, 10_485_760);
        assert_eq!(a.max_udp_payload_size, 1500);
        assert_eq!(b.max_udp_payload_size, 1404);
        let edge = tp_config(3);
        assert_eq!(edge.initial_max_stream_data_uni, 67_584);
    }

    #[test]
    fn implementations_resolve() {
        assert_eq!(implementation("mvfst").server_header, "proxygen-bolt");
        assert_eq!(implementation("google-quic").server_header, "gvs 1.0");
    }

    #[test]
    fn configs_roundtrip_through_wire() {
        for i in 0..TP_CONFIG_COUNT {
            let tp = tp_config(i);
            let decoded = TransportParameters::decode(&tp.encode()).unwrap();
            assert_eq!(decoded.config_key(), tp.config_key(), "config {i}");
        }
    }
}
