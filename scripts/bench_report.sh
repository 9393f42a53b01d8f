#!/usr/bin/env bash
# Guidance-latency perf report: runs bench_fig02_response_time (default
# scale — the paper's per-iteration response time, Fig. 2), the hardware-
# fast kernel speedup bench (bench_kernel_speedup at --scale=8: batched
# fan-out + chromatic RB E-step vs the committed reference kernels,
# DESIGN.md §12, gate >= 5x), the CRF backend dispatch bench
# (bench_backend_speedup: exact-where-tractable dispatcher vs the all-Gibbs
# E-step, DESIGN.md §13, gates >= 1.0x at no-worse precision), the
# multi-session service throughput bench (bench_service_throughput: open-
# loop Poisson workload at 1/2/4/8 workers, DESIGN.md §9), its --socket
# wire-overhead mode (per-step codec+transport cost of the JSON-over-TCP
# loopback API, DESIGN.md §10), its --metrics-overhead mode (cost of the
# always-on metrics registry, DESIGN.md §14, gate <= 1%), its --fleet mode
# (event-loop vs threaded front end and the session router's 1/2/4-backend
# scaling curve, DESIGN.md §11) plus the HypotheticalEngine micro-kernels
# from bench_micro_kernels (when Google Benchmark is available), and emits
# BENCH_guidance.json next to the repo root. The committed scripts/bench_baseline_fig02.json (pre-refactor
# capture) is embedded so every future PR has a perf trajectory to compare
# against.
#
# Usage: scripts/bench_report.sh [build-dir] [output-json]
#        (defaults: build, BENCH_guidance.json)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"
out_json="${2:-$repo_root/BENCH_guidance.json}"

cmake --build "$build_dir" -j "$(nproc)" --target bench_fig02_response_time \
  > /dev/null

fig02_txt="$(mktemp)"
trap 'rm -f "$fig02_txt"' EXIT
"$build_dir"/bench/bench_fig02_response_time | tee "$fig02_txt"

# Parse the fig02 table (dataset origin scalable parallel+partition) into
# JSON rows. Data rows follow the dashed separator and precede the
# shape-check footer.
fig02_rows="$(awk '
  /^-+$/ { in_table = 1; next }
  /^#/   { in_table = 0 }
  in_table && NF >= 4 {
    if (count++) printf ",\n";
    printf "    {\"dataset\": \"%s\", \"origin\": %s, \"scalable\": %s, \"parallel_partition\": %s}", $1, $2, $3, $4
  }
' "$fig02_txt")"

# Hardware-fast kernel speedup (bench_kernel_speedup, DESIGN.md §12):
# guidance-step latency of the batched fan-out + chromatic RB E-step vs the
# committed per-candidate + sequential-Gibbs reference, on the fig02 corpora
# at larger-than-default scale. Gate: >= 5x geometric-mean speedup.
cmake --build "$build_dir" -j "$(nproc)" --target bench_kernel_speedup \
  > /dev/null

kernel_scale=8
kernel_txt="$(mktemp)"
trap 'rm -f "$fig02_txt" "$kernel_txt"' EXIT
"$build_dir"/bench/bench_kernel_speedup --scale=$kernel_scale | tee "$kernel_txt"

kernel_field() {
  awk -v key="$1" '$0 ~ "^# kernel " key " = " { print $NF }' "$kernel_txt"
}
kernel_speedup="$(kernel_field speedup)"
kernel_min_speedup="$(kernel_field min_speedup)"
kernel_speed_holds="$(kernel_field speed_holds)"
kernel_precision_holds="$(kernel_field precision_holds)"
# The two gates are judged apart. The >= 5x speed gate assumes the
# chromatic E-step can actually run its color classes in parallel: on a
# single-core host the batched kernels still win (memory layout, fewer
# passes) but the parallel term of the speedup is unavailable, so a speed
# miss there is an advisory about the host, not a regression in the
# kernels. The precision gate does not depend on the host, so its miss is
# always recorded as a MISS (non-fatal, like every shape check here).
# Record the core count so readers of the committed report can tell the
# cases apart.
host_cores="$(nproc)"
if [[ "$kernel_speed_holds" == "1" ]]; then
  kernel_speed="PASS"
elif [[ "$host_cores" -le 1 ]]; then
  kernel_speed="ADVISORY"
else
  kernel_speed="MISS"
fi
speed_advisory="ADVISORY (>=5x gate not enforced: single-core host, parallel chromatic sweep unavailable)"
case "$kernel_speed,$kernel_precision_holds" in
  PASS,1)     kernel_shape="PASS" ;;
  ADVISORY,1) kernel_shape="$speed_advisory" ;;
  MISS,1)     kernel_shape="MISS (speed)" ;;
  PASS,*)     kernel_shape="MISS (precision)" ;;
  ADVISORY,*) kernel_shape="MISS (precision); speed $speed_advisory" ;;
  *)          kernel_shape="MISS (speed, precision)" ;;
esac
kernel_rows="$(awk '
  /^-+$/ { in_table = 1; next }
  /^#/   { in_table = 0 }
  in_table && NF >= 6 {
    if (count++) printf ",\n";
    printf "    {\"dataset\": \"%s\", \"reference_ms_per_step\": %s, \"fast_ms_per_step\": %s, \"speedup\": %s, \"reference_precision\": %s, \"fast_precision\": %s}", $1, $2, $3, $4, $5, $6
  }
' "$kernel_txt")"
if [[ -z "$kernel_speedup" || -z "$kernel_speed_holds" ||
      -z "$kernel_precision_holds" ]]; then
  echo "error: bench_kernel_speedup emitted no '# kernel speedup|speed_holds|precision_holds' footer" >&2
  exit 1
fi

# CRF backend speedup (bench_backend_speedup, DESIGN.md §13): validation-
# step latency of the exact-where-tractable dispatcher vs the all-Gibbs
# E-step on the fig02 corpora, identical guidance configuration in both
# arms. Gates: >= 1.0x geometric-mean speedup AND precision fairness —
# dispatcher precision within sampling noise of the sampler's per dataset
# and no worse in aggregate (both arms are stochastic; the bench owns the
# noise allowance).
cmake --build "$build_dir" -j "$(nproc)" --target bench_backend_speedup \
  > /dev/null

backend_txt="$(mktemp)"
trap 'rm -f "$fig02_txt" "$kernel_txt" "$backend_txt"' EXIT
"$build_dir"/bench/bench_backend_speedup | tee "$backend_txt"

backend_field() {
  awk -v key="$1" '$0 ~ "^# backend " key " = " { print $NF }' "$backend_txt"
}
backend_speedup="$(backend_field speedup)"
backend_min_speedup="$(backend_field min_speedup)"
backend_precision_holds="$(backend_field precision_holds)"
backend_shape="$(awk '/^# shape-check: / { print $3 }' "$backend_txt")"
backend_rows="$(awk '
  /^-+$/ { in_table = 1; next }
  /^#/   { in_table = 0 }
  in_table && NF >= 6 {
    if (count++) printf ",\n";
    printf "    {\"dataset\": \"%s\", \"gibbs_ms_per_step\": %s, \"dispatch_ms_per_step\": %s, \"speedup\": %s, \"gibbs_precision\": %s, \"dispatch_precision\": %s}", $1, $2, $3, $4, $5, $6
  }
' "$backend_txt")"
if [[ -z "$backend_speedup" ]]; then
  echo "error: bench_backend_speedup emitted no '# backend speedup' footer" >&2
  exit 1
fi
if ! awk -v s="$backend_speedup" 'BEGIN { exit !(s >= 1.0) }'; then
  echo "error: backend_speedup $backend_speedup below the 1.0 gate" >&2
  exit 1
fi
if [[ "$backend_precision_holds" != "1" ]]; then
  echo "error: dispatcher precision fell below the all-Gibbs reference" >&2
  exit 1
fi

# Service throughput (sessions/s + step-latency percentiles per worker
# count, and the 4-worker/1-worker scaling ratio the acceptance gate pins).
cmake --build "$build_dir" -j "$(nproc)" --target bench_service_throughput \
  > /dev/null

service_txt="$(mktemp)"
trap 'rm -f "$fig02_txt" "$kernel_txt" "$backend_txt" "$service_txt"' EXIT
"$build_dir"/bench/bench_service_throughput | tee "$service_txt"

service_rows="$(awk '
  /^-+$/ { in_table = 1; next }
  /^#/   { in_table = 0 }
  in_table && NF >= 6 {
    if (count++) printf ",\n";
    printf "    {\"workers\": %s, \"steps_per_s\": %s, \"sessions_per_s\": %s, \"p50_ms\": %s, \"p99_ms\": %s, \"sheds\": %s}", $1, $2, $3, $4, $5, $6
  }
' "$service_txt")"
service_scaling="$(awk '/^# scaling 4w\/1w = / { gsub(/x$/, "", $5); print $5 }' "$service_txt")"
service_scaling="${service_scaling:-null}"

# Wire protocol overhead (bench_service_throughput --socket, DESIGN.md §10):
# per-step codec+transport cost of the JSON-over-TCP loopback API relative
# to driving the same session in-process.
socket_txt="$(mktemp)"
trap 'rm -f "$fig02_txt" "$kernel_txt" "$backend_txt" "$service_txt" "$socket_txt"' EXIT
"$build_dir"/bench/bench_service_throughput --socket | tee "$socket_txt"

socket_field() {
  awk -v key="$1" '$0 ~ "^# socket " key " = " { print $NF }' "$socket_txt"
}
socket_in_process="$(socket_field in_process_ms_per_step)"
socket_loopback="$(socket_field loopback_ms_per_step)"
socket_overhead="$(socket_field overhead_ms_per_step)"
socket_codec_us="$(socket_field codec_us_per_roundtrip)"
socket_bytes="$(socket_field step_response_bytes)"

# A negative overhead means the loopback arm outran the in-process arm —
# only possible when drift between non-interleaved runs swamps the sub-ms
# protocol tax. The bench interleaves ABAB and compares medians precisely
# so this cannot happen; fail loudly if it regresses.
if [[ -n "${socket_overhead:-}" ]] &&
    awk -v o="$socket_overhead" 'BEGIN { exit !(o < 0) }'; then
  echo "error: negative wire-overhead measurement ($socket_overhead ms/step)" >&2
  exit 1
fi

# Metrics overhead (bench_service_throughput --metrics-overhead, DESIGN.md
# §14): step throughput with the always-on metrics registry enabled vs the
# runtime kill switch. Gate: the instrumented arm stays within 1% of the
# disabled arm — observability must never tax the serving hot path.
metrics_txt="$(mktemp)"
trap 'rm -f "$fig02_txt" "$kernel_txt" "$backend_txt" "$service_txt" "$socket_txt" "$metrics_txt"' EXIT
"$build_dir"/bench/bench_service_throughput --metrics-overhead | tee "$metrics_txt"

metrics_field() {
  awk -v key="$1" '$0 ~ "^# metrics " key " = " { print $NF }' "$metrics_txt"
}
metrics_enabled="$(metrics_field steps_per_second_enabled)"
metrics_disabled="$(metrics_field steps_per_second_disabled)"
metrics_overhead_pct="$(metrics_field overhead_pct)"
if [[ -z "${metrics_overhead_pct:-}" ]]; then
  echo "error: bench_service_throughput --metrics-overhead emitted no '# metrics overhead_pct' footer" >&2
  exit 1
fi
if ! awk -v o="$metrics_overhead_pct" 'BEGIN { exit !(o <= 1.0) }'; then
  echo "error: metrics overhead ${metrics_overhead_pct}% exceeds the 1% gate" >&2
  exit 1
fi

# Fleet scaling (bench_service_throughput --fleet, DESIGN.md §11): the
# event-loop front end vs thread-per-connection at 64 connections, and the
# router's 1/2/4-backend scaling curve over think-time-bound sessions.
fleet_txt="$(mktemp)"
trap 'rm -f "$fig02_txt" "$kernel_txt" "$backend_txt" "$service_txt" "$socket_txt" "$metrics_txt" "$fleet_txt"' EXIT
"$build_dir"/bench/bench_service_throughput --fleet | tee "$fleet_txt"

fleet_field() {
  awk -v key="$1" '$0 ~ "^# fleet " key " = " { print $NF }' "$fleet_txt"
}
fleet_threaded="$(fleet_field threaded_steps_per_s)"
fleet_event="$(fleet_field event_steps_per_s)"
fleet_event_ratio="$(fleet_field event_over_threaded)"
fleet_scaling="$(fleet_field scaling_4b_over_1b)"
fleet_rows="$(awk '
  /^# fleet backends=/ {
    split($3, kv, "=");
    if (count++) printf ",\n";
    printf "    {\"backends\": %s, \"steps_per_s\": %s}", kv[2], $NF
  }
' "$fleet_txt")"

# Micro-kernels (optional: needs Google Benchmark at configure time).
micro_json="null"
if cmake --build "$build_dir" -j "$(nproc)" --target bench_micro_kernels \
    > /dev/null 2>&1 && [[ -x "$build_dir"/bench/bench_micro_kernels ]]; then
  micro_file="$(mktemp)"
  "$build_dir"/bench/bench_micro_kernels \
    --benchmark_filter='GibbsSweep|Chromatic|Neighborhood|EvaluateCandidate|Fanout|IncrementalEntropy|Checkpoint' \
    --benchmark_format=json --benchmark_min_time=0.05 \
    > "$micro_file" 2>/dev/null || true
  if [[ -s "$micro_file" ]]; then
    micro_json="$(cat "$micro_file")"
  fi
  rm -f "$micro_file"
fi

baseline_json="null"
if [[ -f "$repo_root/scripts/bench_baseline_fig02.json" ]]; then
  baseline_json="$(cat "$repo_root/scripts/bench_baseline_fig02.json")"
fi

{
  echo "{"
  echo "  \"generated_by\": \"scripts/bench_report.sh\","
  echo "  \"fig02_response_time\": {"
  echo "    \"unit\": \"seconds/iteration\","
  echo "    \"rows\": ["
  printf '%s\n' "$fig02_rows"
  echo "    ]"
  echo "  },"
  echo "  \"kernel_speedup\": $kernel_speedup,"
  echo "  \"kernel_speedup_detail\": {"
  echo "    \"workload\": \"fig02 corpora at --scale=$kernel_scale: per-candidate fan-out + sequential Gibbs vs batched fan-out + chromatic RB E-step (bench_kernel_speedup)\","
  echo "    \"speedup_geomean\": $kernel_speedup,"
  echo "    \"min_dataset_speedup\": ${kernel_min_speedup:-null},"
  echo "    \"gate_min_speedup\": 5.0,"
  echo "    \"host_cores\": $host_cores,"
  echo "    \"speed_holds\": $([ "$kernel_speed_holds" = "1" ] && echo true || echo false),"
  echo "    \"precision_holds\": $([ "$kernel_precision_holds" = "1" ] && echo true || echo false),"
  echo "    \"shape_check\": \"$kernel_shape\","
  echo "    \"rows\": ["
  printf '%s\n' "$kernel_rows"
  echo "    ]"
  echo "  },"
  echo "  \"backend_speedup\": $backend_speedup,"
  echo "  \"backend_speedup_detail\": {"
  echo "    \"workload\": \"fig02 corpora, identical guidance config: all-Gibbs E-step vs exact-where-tractable dispatch (bench_backend_speedup)\","
  echo "    \"speedup_geomean\": $backend_speedup,"
  echo "    \"min_dataset_speedup\": ${backend_min_speedup:-null},"
  echo "    \"gate_min_speedup\": 1.0,"
  echo "    \"precision_fairness_holds\": $([ "$backend_precision_holds" = "1" ] && echo true || echo false),"
  echo "    \"shape_check\": \"${backend_shape:-MISS}\","
  echo "    \"rows\": ["
  printf '%s\n' "$backend_rows"
  echo "    ]"
  echo "  },"
  echo "  \"service_throughput\": {"
  echo "    \"workload\": \"open-loop Poisson, mixed batch+streaming sessions (bench_service_throughput)\","
  echo "    \"scaling_4w_over_1w\": $service_scaling,"
  echo "    \"rows\": ["
  printf '%s\n' "$service_rows"
  echo "    ]"
  echo "  },"
  echo "  \"wire_api_overhead\": {"
  echo "    \"workload\": \"one batch session, in-process vs JSON-over-TCP loopback (bench_service_throughput --socket)\","
  echo "    \"in_process_ms_per_step\": ${socket_in_process:-null},"
  echo "    \"loopback_ms_per_step\": ${socket_loopback:-null},"
  echo "    \"codec_transport_overhead_ms_per_step\": ${socket_overhead:-null},"
  echo "    \"codec_us_per_roundtrip\": ${socket_codec_us:-null},"
  echo "    \"step_response_bytes\": ${socket_bytes:-null}"
  echo "  },"
  echo "  \"metrics_overhead\": {"
  echo "    \"workload\": \"one batch session, global metrics registry enabled vs disabled (bench_service_throughput --metrics-overhead)\","
  echo "    \"steps_per_second_enabled\": ${metrics_enabled:-null},"
  echo "    \"steps_per_second_disabled\": ${metrics_disabled:-null},"
  echo "    \"overhead_pct\": ${metrics_overhead_pct:-null},"
  echo "    \"gate_max_overhead_pct\": 1.0"
  echo "  },"
  echo "  \"fleet_scaling\": {"
  echo "    \"workload\": \"closed-loop think-time-bound sessions over the session router (bench_service_throughput --fleet)\","
  echo "    \"threaded_steps_per_s_64conns\": ${fleet_threaded:-null},"
  echo "    \"event_loop_steps_per_s_64conns\": ${fleet_event:-null},"
  echo "    \"event_over_threaded\": ${fleet_event_ratio:-null},"
  echo "    \"scaling_4b_over_1b\": ${fleet_scaling:-null},"
  echo "    \"rows\": ["
  printf '%s\n' "$fleet_rows"
  echo "    ]"
  echo "  },"
  echo "  \"pre_refactor_baseline\": $baseline_json,"
  echo "  \"micro_kernels\": $micro_json"
  echo "}"
} > "$out_json"

echo "wrote $out_json"
