#!/bin/bash
# Runs the `campaign` criterion group (the full scan-and-analyze pipeline
# behind the paper's tables) plus the `sweep` worker-scaling, `telemetry`
# tracing-tax, and `handshake` scheduler groups, and appends one JSON line
# per run to BENCH_scan.json so successive PRs leave a perf trajectory.
#
# Usage: ./scripts/bench_scan.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_scan.json}
LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

cargo bench -p bench --bench paper -- campaign 2>&1 | tee "$LOG"
cargo bench -p bench --bench sweep -- sweep 2>&1 | tee -a "$LOG"
cargo bench -p bench --bench sweep -- telemetry 2>&1 | tee -a "$LOG"
cargo bench -p bench --bench handshake -- handshake 2>&1 | tee -a "$LOG"
cargo bench -p bench --bench workload -- workload 2>&1 | tee -a "$LOG"

# Million-endpoint lazy-universe campaign: wall-clock, throughput, and peak
# RSS come straight from `repro scale`'s key-value output.
cargo build --release -p repro 2>&1 | tee -a "$LOG"
./target/release/repro scale --workers 8 2>&1 | tee -a "$LOG"

# 10k-connection multiplexed-serving sweep: MB/s served and peak RSS come
# from `repro workload --mux`'s key-value output.
./target/release/repro workload --mux --workers 8 2>&1 | tee -a "$LOG"

# criterion text output: "<name>  time: [<low> <unit> <mid> <unit> <high> <unit>]"
# (the offline stub harness prints "<name>: mean <x> ms ..." instead — both
# formats are handled, always normalized to ms)
extract() {
    awk -v name="$1" '
        BEGIN { n = split(name, parts, "/"); base = parts[n] ":" }
        $0 ~ name { found = 1 }
        found && /time:/ {
            for (i = 1; i <= NF; i++) {
                if ($i == "time:") {
                    mid = $(i + 3); unit = $(i + 4)
                    if (unit ~ /^ns/) mid /= 1e6
                    else if (unit ~ /^us|^µs/) mid /= 1e3
                    else if (unit ~ /^s/) mid *= 1e3
                    printf "%.3f", mid
                    exit
                }
            }
        }
        index($0, base) && /mean/ {
            for (i = 1; i <= NF; i++) {
                if ($i == "mean") { printf "%.3f", $(i + 1); exit }
            }
        }' "$LOG"
}

# makespan-model lines from benches/handshake.rs:
# "handshake_model/<name> makespan_ms <x>" / "... ratio <x>"
extract_model() {
    awk -v name="$1" '$1 == name { printf "%s", $NF; exit }' "$LOG"
}

STATEFUL=$(extract "campaign/stateful_week18")
WEEKLY=$(extract "campaign/weekly_stateless")
W1=$(extract "sweep/workers_1")
W4=$(extract "sweep/workers_4")
W8=$(extract "sweep/workers_8")
UNTRACED=$(extract "telemetry/scan_untraced")
TRACED=$(extract "telemetry/scan_traced")
HS_STEAL8=$(extract "handshake/stealing_w8_loss50")
HS_STEAL1=$(extract "handshake/stealing_w1_loss50")
HS_M_CHUNK8=$(extract_model "handshake_model/chunked_w8_loss50")
HS_M_STEAL8=$(extract_model "handshake_model/stealing_w8_loss50")
HS_M_SPEEDUP=$(extract_model "handshake_model/speedup_w8_loss50")
WL_GOODPUT0=$(extract_model "workload_model/bulk_goodput_mbps_loss0")
WL_GOODPUT50=$(extract_model "workload_model/bulk_goodput_mbps_loss50")
WL_RTC_P99=$(extract_model "workload_model/rtc_p99_frame_ms_loss50")
SEAL_SPEEDUP=$(extract_model "workload_model/server_seal_batched_speedup")
MUX_MBPS_C10K=$(extract_model "mux_mbps_served")
MUX_RSS_C10K=$(extract_model "mux_peak_rss_mb")
SCALE_SWEEP_MS=$(extract_model "universe_sweep_ms")
SCALE_EPS=$(extract_model "universe_endpoints_per_sec")
SCALE_RSS_MB=$(extract_model "campaign_peak_rss_mb")

# targets/s for the telemetry pair: each iteration scans 64 targets
# (TELEMETRY_BENCH_TARGETS in benches/sweep.rs).
pps() {
    [ -n "${1:-}" ] || return 0
    awk -v ms="$1" 'BEGIN { printf "%.1f", 64 * 1000 / ms }'
}
PPS_OFF=$(pps "${UNTRACED:-}")
PPS_ON=$(pps "${TRACED:-}")

# handshakes/s: each handshake-group iteration scans 96 targets
# (HANDSHAKE_BENCH_TARGETS in benches/handshake.rs).
hps() {
    [ -n "${1:-}" ] || return 0
    awk -v ms="$1" 'BEGIN { printf "%.1f", 96 * 1000 / ms }'
}
HPS_STEAL8=$(hps "${HS_STEAL8:-}")
HPS_M_CHUNK8=$(hps "${HS_M_CHUNK8:-}")
HPS_M_STEAL8=$(hps "${HS_M_STEAL8:-}")

# Wall-clock scaling ratios for the sharded simnet: how much faster the
# same scan runs at 8 workers than at 1 on this host.
ratio() {
    [ -n "${1:-}" ] && [ -n "${2:-}" ] || return 0
    awk -v a="$1" -v b="$2" 'BEGIN { if (b > 0) printf "%.2f", a / b }'
}
SWEEP_SPEEDUP_W8=$(ratio "${W1:-}" "${W8:-}")
HS_WALL_SPEEDUP_W8=$(ratio "${HS_STEAL1:-}" "${HS_STEAL8:-}")

printf '{"date":"%s","commit":"%s","campaign_stateful_ms":%s,"campaign_weekly_ms":%s,"sweep_workers1_ms":%s,"sweep_workers4_ms":%s,"sweep_workers8_ms":%s,"sweep_speedup_w8":%s,"scan_pps_tracing_off":%s,"scan_pps_tracing_on":%s,"hs_stealing_w8_loss50_ms":%s,"hs_stealing_w1_loss50_ms":%s,"hs_wall_speedup_w8_loss50":%s,"hs_hps_stealing_w8_loss50":%s,"hs_model_chunked_w8_loss50_ms":%s,"hs_model_stealing_w8_loss50_ms":%s,"hs_model_hps_chunked_w8_loss50":%s,"hs_model_hps_stealing_w8_loss50":%s,"hs_model_speedup_w8_loss50":%s,"bulk_goodput_mbps_loss0":%s,"bulk_goodput_mbps_loss50":%s,"rtc_p99_frame_ms_loss50":%s,"universe_sweep_ms":%s,"universe_endpoints_per_sec":%s,"campaign_peak_rss_mb":%s,"server_seal_batched_speedup":%s,"mux_mbps_served_c10k":%s,"mux_peak_rss_mb_c10k":%s}\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    "${STATEFUL:-null}" "${WEEKLY:-null}" \
    "${W1:-null}" "${W4:-null}" "${W8:-null}" \
    "${SWEEP_SPEEDUP_W8:-null}" \
    "${PPS_OFF:-null}" "${PPS_ON:-null}" \
    "${HS_STEAL8:-null}" "${HS_STEAL1:-null}" \
    "${HS_WALL_SPEEDUP_W8:-null}" \
    "${HPS_STEAL8:-null}" \
    "${HS_M_CHUNK8:-null}" "${HS_M_STEAL8:-null}" \
    "${HPS_M_CHUNK8:-null}" "${HPS_M_STEAL8:-null}" \
    "${HS_M_SPEEDUP:-null}" \
    "${WL_GOODPUT0:-null}" "${WL_GOODPUT50:-null}" \
    "${WL_RTC_P99:-null}" \
    "${SCALE_SWEEP_MS:-null}" "${SCALE_EPS:-null}" "${SCALE_RSS_MB:-null}" \
    "${SEAL_SPEEDUP:-null}" "${MUX_MBPS_C10K:-null}" "${MUX_RSS_C10K:-null}" >> "$OUT"

echo "appended to $OUT:"
tail -1 "$OUT"
