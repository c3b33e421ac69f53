//! The per-layer metrics: one table naming every metric a traced run
//! reports, its unit, which way is better, and which end-to-end metric it
//! is expected to move on which workload ("-" = no visible move expected
//! anywhere). `BENCHMARK.json`'s `per_layer` list is this table; a test
//! keeps the two equal.

use std::collections::BTreeMap;

/// One row of the table.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const AEAD: &str = "ops_per_s on mux_bulk_lossy (near 1:1), then stateful_sni, then wall_s on campaign_paper at its share; none on sweep_sparse";
const HANDSHAKE_CRYPTO: &str = "ops_per_s on stateful_sni, mux_manyconn";
const HANDSHAKE: &str = "ops_per_s on stateful_sni, mux_manyconn";
const SEND_PATH: &str = "ops_per_s on sweep_sparse (miss) and both mux workloads (single/batch)";
const COUNT: &str = "context for the simnet unit costs, per workload";
const LAZY: &str = "ops_per_s, peak_rss_mb on scale_lazy only";
const BUILD: &str =
    "setup_s everywhere; wall_s, peak_rss_mb on campaign_paper; ops_per_s on scale_lazy";
const SWEEP: &str = "ops_per_s on sweep_sparse, scale_lazy; wall_s on campaign_paper at ~35 %; none on stateful_sni, mux";
const STATEFUL: &str = "ops_per_s on stateful_sni; wall_s on campaign_paper";
const MANYCONN: &str = "ops_per_s on mux_manyconn; none on the four scan workloads";
const BULK: &str = "ops_per_s on mux_bulk_lossy; none on the four scan workloads";
const NONE: &str = "-";

/// Every per-layer metric, grouped by crate.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("qcrypto.aes128gcm_seal_1200_us", "us", "lower", AEAD),
    m("qcrypto.aes128gcm_open_1200_us", "us", "lower", AEAD),
    m("qcrypto.aead_mb_s", "MB/s", "higher", AEAD),
    m(
        "qcrypto.aes128gcm_seal_64_us",
        "us",
        "lower",
        HANDSHAKE_CRYPTO,
    ),
    m(
        "qcrypto.chacha20poly1305_seal_1200_us",
        "us",
        "lower",
        HANDSHAKE_CRYPTO,
    ),
    m("qcrypto.sha256_1k_us", "us", "lower", HANDSHAKE_CRYPTO),
    m(
        "qcrypto.hkdf_expand_label_us",
        "us",
        "lower",
        HANDSHAKE_CRYPTO,
    ),
    m(
        "qcrypto.x25519_us",
        "us",
        "lower",
        "ops_per_s on stateful_sni, mux_manyconn; none on mux_bulk_lossy, sweep_sparse",
    ),
    m("qcodec.varint_roundtrip_ns", "ns", "lower", NONE),
    m("h3.qpack_roundtrip_us", "us", "lower", NONE),
    m("dns.resolve_domain_us", "us", "lower", NONE),
    m("dns.stage_ms", "ms", "lower", NONE),
    m("quic.initial_keys_cold_us", "us", "lower", HANDSHAKE),
    m("quic.initial_keys_memo_us", "us", "lower", HANDSHAKE),
    m("quic.seal_long_1200_us", "us", "lower", HANDSHAKE),
    m(
        "quic.seal_short_1200_us",
        "us",
        "lower",
        "ops_per_s on stateful_sni, mux_manyconn, mux_bulk_lossy",
    ),
    m(
        "quic.open_1200_us",
        "us",
        "lower",
        "ops_per_s on stateful_sni, mux_manyconn, mux_bulk_lossy",
    ),
    m("quic.handshake_mem_us", "us", "lower", HANDSHAKE),
    m("quic.handshake_mem_datagrams", "count", "lower", HANDSHAKE),
    m(
        "qtls.tcp_handshake_mem_us",
        "us",
        "lower",
        "ops_per_s on stateful_sni (TLS half); wall_s on campaign_paper",
    ),
    m("simnet.udp_miss_ns", "ns", "lower", SEND_PATH),
    m("simnet.udp_send_single_us", "us", "lower", SEND_PATH),
    m("simnet.udp_batch8_us_per_dgram", "us", "lower", SEND_PATH),
    m("simnet.datagrams_sent", "count", "lower", COUNT),
    m("simnet.bytes_sent", "count", "lower", COUNT),
    m("simnet.lock_acquired", "count", "lower", COUNT),
    m("simnet.lock_contended", "count", "lower", COUNT),
    m("simnet.cross_shard", "count", "lower", COUNT),
    m("simnet.lazy_instantiated", "count", "lower", LAZY),
    m("simnet.lazy_evicted", "count", "lower", LAZY),
    m("simnet.lazy_peak_resident", "count", "lower", LAZY),
    m("simnet.lazy_rebuild_ratio", "ratio", "lower", LAZY),
    m("internet.universe_generate_ms", "ms", "lower", BUILD),
    m("internet.build_network_ms", "ms", "lower", BUILD),
    m("internet.build_network_lazy_ms", "ms", "lower", BUILD),
    m("internet.lazy_persona_ns", "ns", "lower", BUILD),
    m("zmapq.feistel_permute_ns", "ns", "lower", SWEEP),
    m("zmapq.probe_miss_ns", "ns", "lower", SWEEP),
    m("zmapq.probe_hit_us", "us", "lower", SWEEP),
    m("zmapq.sweep_v4_ms", "ms", "lower", SWEEP),
    m("zmapq.sweep_syn_ms", "ms", "lower", SWEEP),
    m("zmapq.probes", "count", "lower", SWEEP),
    m("zmapq.hits", "count", "higher", SWEEP),
    m("zmapq.hit_ratio", "ratio", "higher", SWEEP),
    m("zmapq.shard_wall_imbalance", "ratio", "lower", SWEEP),
    m("goscanner.target_p50_us", "us", "lower", STATEFUL),
    m("goscanner.target_p99_us", "us", "lower", STATEFUL),
    m("goscanner.targets", "count", "higher", STATEFUL),
    m("goscanner.ok_ratio", "ratio", "higher", STATEFUL),
    m("goscanner.stage_ms", "ms", "lower", STATEFUL),
    m("qscanner.target_p50_us", "us", "lower", STATEFUL),
    m("qscanner.target_p99_us", "us", "lower", STATEFUL),
    m("qscanner.targets", "count", "higher", STATEFUL),
    m("qscanner.success_ratio", "ratio", "higher", STATEFUL),
    m("qscanner.stage_ms", "ms", "lower", STATEFUL),
    m("qscanner.worker_imbalance", "ratio", "lower", STATEFUL),
    m("transfer.conn_us", "us", "lower", MANYCONN),
    m("transfer.bulk_mb_s_per_core", "MB/s", "higher", BULK),
    m(
        "transfer.peak_active",
        "count",
        "lower",
        "peak_rss_mb on mux_manyconn, mux_bulk_lossy",
    ),
    m("transfer.virtual_goodput_mb_s", "MB/s", "higher", BULK),
    m("telemetry.tracing_tax_share", "ratio", "lower", NONE),
    m("telemetry.events", "count", "lower", NONE),
    m(
        "analysis.tables_ms",
        "ms",
        "lower",
        "wall_s on campaign_paper (~1 %)",
    ),
    m(
        "analysis.figures_ms",
        "ms",
        "lower",
        "wall_s on campaign_paper (~1 %)",
    ),
    m(
        "analysis.scale_stateful_ms",
        "ms",
        "lower",
        "wall_s on scale_lazy, follow-up phase",
    ),
    m(
        "analysis.scale_sweep_ms",
        "ms",
        "lower",
        "wall_s on scale_lazy, sweep phase",
    ),
    m(
        "bench.campaign_unattributed_share",
        "ratio",
        "lower",
        "the harness's own check: joins, sorting, orchestration no stage owns",
    ),
    m(
        "bench.trace_overhead_share",
        "ratio",
        "lower",
        "the harness's own check: staged replay vs untraced pass",
    ),
];

/// Values a traced run measured, keyed by metric name. A metric the run's
/// workload does not exercise stays unset and reads as 0.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records `value` for `name`, which must be a row of [`LAYER_METRICS`].
    pub fn set(&mut self, name: &str, value: f64) {
        let row = LAYER_METRICS
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        self.0.insert(row.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn is_set(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        assert!(LAYER_METRICS.len() <= 128);
        for r in LAYER_METRICS {
            assert!(seen.insert(r.name), "duplicate {}", r.name);
            assert!(r.name.len() <= 64 && r.unit.len() <= 16);
            assert!(matches!(r.better, "lower" | "higher"));
        }
    }

    #[test]
    fn unset_metrics_read_as_zero() {
        let mut v = LayerValues::default();
        v.set("zmapq.probes", 7.0);
        assert_eq!(v.get("zmapq.probes"), 7.0);
        assert_eq!(v.get("zmapq.hits"), 0.0);
        assert!(!v.is_set("zmapq.hits"));
    }
}
