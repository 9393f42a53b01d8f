#!/usr/bin/env bash
# CI gate: configure + build + test, exactly the tier-1 verify sequence
# from ROADMAP.md. Any failure (configure error, compile error, test
# failure) exits non-zero.
#
# Usage: scripts/check.sh [build-dir]          (default: build)
#        ASAN=1 scripts/check.sh [build-dir]   (default: build-asan)
#        TSAN=1 scripts/check.sh [build-dir]   (default: build-tsan)
#        SMOKE=1 scripts/check.sh [build-dir]  (loopback smoke only; the
#                                               build dir must be configured)
#        SMOKE=0 scripts/check.sh [build-dir]  (skip the smoke — for CI,
#                                               which runs it as its own step)
#
# The default path ends with three smokes: the server/client loopback
# smoke (a veritas_server on an ephemeral port driven by a veritas_client
# session over the wire protocol, DESIGN.md §10), the fleet failover smoke
# (a veritas_router over two workers, one worker killed mid-session, the
# client finishing on the survivor and no router checkpoint left behind
# once the session is terminated, DESIGN.md §11), and the metrics scrape
# smoke (a veritas_server with --metrics-port, one session driven through
# it, /metrics scraped over raw HTTP and checked against the Prometheus
# text grammar with a non-empty step-latency histogram, DESIGN.md §14).
#
# ASAN=1 builds with Address + UndefinedBehavior sanitizers and runs the
# optim/, crf/ and core/ suites — the ones exercising the M-step kernel's
# per-example evaluation cache (optim_logistic_test), the
# HypotheticalEngine scratch-buffer pooling, the CSR adjacency and the
# exact solve's component extraction (crf_solver_test) — so
# buffer reuse stays leak- and UB-clean; plus the suites that feed bytes to
# the decoders and byte parsers (the JSON reader, the wire codec and its
# golden fixtures, the seeded mutation of wire frames through the decoders
# and the envelope readers, the binary readers and the fact-database
# record, the session checkpoint, its golden files and the seeded mutation
# of those files through the checkpoint reader, the event server's
# frame reassembly, the metrics endpoint's HTTP head read, the session
# manager's create path, which refuses oversized step work from the wire,
# and the router and loopback suites, since the router reads and splices
# untrusted frames itself), so malformed, truncated and pipelined input
# stays memory-safe.
#
# TSAN=1 builds with ThreadSanitizer and runs the service/, api/, fleet/,
# obs/, crf/ and core/ suites — the ones exercising the SessionManager's
# per-session locking, the RequestQueue worker pool, the event server's
# loop thread and dispatch pool, the router's connection pool, the
# sharded MetricsRegistry counters under contention
# (obs_metrics_test) and its HTTP scrape thread (obs_exposition_test), the
# HypotheticalEngine's striped caches, the parallel inference kernels
# (chromatic color-class sweeps in crf_chromatic_test, sharded batched
# fan-out in crf_fanout_test, DispatchMarginals' per-component fan-out in
# crf_solver_test), the guidance, batch and E-step calls that borrow the
# shared compute pool (core_*_test, service_session_manager_test) and the
# pool's per-call completion under concurrent callers
# (common_thread_pool_test) — so the concurrent serving path stays
# race-clean.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Server/client loopback smoke: start veritas_server on an ephemeral port,
# drive one external-answer session through veritas_client over the wire,
# and require both processes to exit cleanly.
run_smoke() {
  local build_dir="$1"
  echo "== loopback smoke (veritas_server + veritas_client)"
  cmake --build "$build_dir" -j "$(nproc)" \
    --target example_veritas_server example_veritas_client > /dev/null
  local port_file
  port_file="$(mktemp)"
  rm -f "$port_file"
  "$build_dir"/examples/example_veritas_server \
    --port=0 --port-file="$port_file" --once &
  local server_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$port_file" ]]; then
    echo "smoke: server never published its port" >&2
    kill "$server_pid" 2> /dev/null || true
    return 1
  fi
  local status=0
  # Bounded: a wedged server (accepts but never responds) would otherwise
  # hang the blocking client — and this CI step — forever.
  timeout 60 "$build_dir"/examples/example_veritas_client \
    --port="$(cat "$port_file")" --claims=12 --budget=3 || status=1
  # A --once server only exits after serving a full connection; if the
  # client failed before connecting, kill it after a deadline instead of
  # hanging the CI job on `wait`.
  local waited=0
  while kill -0 "$server_pid" 2> /dev/null && (( waited < 100 )); do
    sleep 0.1
    waited=$((waited + 1))
  done
  if kill -0 "$server_pid" 2> /dev/null; then
    echo "smoke: server still running after deadline; killing" >&2
    kill "$server_pid" 2> /dev/null || true
    status=1
  fi
  wait "$server_pid" || status=1
  rm -f "$port_file"
  if [[ "$status" != 0 ]]; then
    echo "smoke: FAILED" >&2
    return 1
  fi
  echo "smoke: PASS"
}

# Fleet failover smoke: a veritas_router fronting two veritas_server
# workers with per-step checkpointing; the worker hosting the session is
# killed (-9) mid-run and the client must finish, bit-for-bit on the
# surviving worker, with the router logging the failover. A router
# checkpoint lives exactly as long as its session, so once the client has
# terminated its session no session.bin may remain under the checkpoint
# directory.
run_fleet_smoke() {
  local build_dir="$1"
  echo "== fleet failover smoke (veritas_router + 2 workers, kill one)"
  cmake --build "$build_dir" -j "$(nproc)" --target \
    example_veritas_server example_veritas_client example_veritas_router \
    > /dev/null
  local tmp_dir
  tmp_dir="$(mktemp -d)"
  local status=0
  local worker_pids=()
  local backends=""
  for w in 1 2; do
    rm -f "$tmp_dir/worker$w.port"
    "$build_dir"/examples/example_veritas_server \
      --port=0 --port-file="$tmp_dir/worker$w.port" &
    worker_pids+=($!)
  done
  for w in 1 2; do
    for _ in $(seq 1 100); do
      [[ -s "$tmp_dir/worker$w.port" ]] && break
      sleep 0.1
    done
    if [[ ! -s "$tmp_dir/worker$w.port" ]]; then
      echo "fleet smoke: worker $w never published its port" >&2
      kill "${worker_pids[@]}" 2> /dev/null || true
      rm -rf "$tmp_dir"
      return 1
    fi
    backends="${backends:+$backends,}127.0.0.1:$(cat "$tmp_dir/worker$w.port")"
  done
  rm -f "$tmp_dir/router.port"
  "$build_dir"/examples/example_veritas_router \
    --backends="$backends" --port=0 --port-file="$tmp_dir/router.port" \
    --checkpoint-dir="$tmp_dir/ckpt" \
    > "$tmp_dir/router.log" &
  local router_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$tmp_dir/router.port" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$tmp_dir/router.port" ]]; then
    echo "fleet smoke: router never published its port" >&2
    kill "$router_pid" "${worker_pids[@]}" 2> /dev/null || true
    rm -rf "$tmp_dir"
    return 1
  fi
  # Slow session (300ms per answer, 8 steps) so the kill lands mid-run.
  timeout 90 "$build_dir"/examples/example_veritas_client \
    --port="$(cat "$tmp_dir/router.port")" --claims=60 --budget=8 \
    --think=300 > "$tmp_dir/client.log" 2>&1 &
  local client_pid=$!
  # Kill the worker hosting the session once the router logs its placement.
  local placed=""
  for _ in $(seq 1 100); do
    placed="$(grep -o 'routed to backend 127.0.0.1:[0-9]*' \
      "$tmp_dir/router.log" 2> /dev/null | head -1 | grep -o '[0-9]*$')" \
      || true
    [[ -n "$placed" ]] && break
    sleep 0.1
  done
  if [[ -z "$placed" ]]; then
    echo "fleet smoke: router never placed the session" >&2
    status=1
  else
    sleep 0.8  # let a few steps land first
    for pid in "${worker_pids[@]}"; do
      local port_of_pid=""
      for w in 1 2; do
        [[ "$(cat "$tmp_dir/worker$w.port")" == "$placed" ]] \
          && port_of_pid="${worker_pids[$((w - 1))]}"
      done
      if [[ "$pid" == "$port_of_pid" ]]; then
        echo "fleet smoke: killing worker on port $placed (pid $pid)"
        kill -9 "$pid" || status=1
      fi
    done
    wait "$client_pid" || {
      echo "fleet smoke: client failed after worker kill" >&2
      cat "$tmp_dir/client.log" >&2
      status=1
    }
    if ! grep -q 'failed over' "$tmp_dir/router.log"; then
      echo "fleet smoke: router never logged a failover" >&2
      cat "$tmp_dir/router.log" >&2
      status=1
    fi
    local leftover
    leftover="$(find "$tmp_dir/ckpt" -name session.bin 2> /dev/null || true)"
    if [[ -n "$leftover" ]]; then
      echo "fleet smoke: checkpoints outlived their session:" >&2
      echo "$leftover" >&2
      status=1
    fi
  fi
  kill "$router_pid" "${worker_pids[@]}" 2> /dev/null || true
  wait 2> /dev/null || true
  rm -rf "$tmp_dir"
  if [[ "$status" != 0 ]]; then
    echo "fleet smoke: FAILED" >&2
    return 1
  fi
  echo "fleet smoke: PASS"
}

# Metrics scrape smoke: a veritas_server with a Prometheus endpoint
# (--metrics-port), one session driven through it, then /metrics scraped
# over raw HTTP (bash /dev/tcp — no curl in minimal CI images) and
# validated: HTTP 200, every body line conforms to the Prometheus text
# grammar, and the step-latency histogram is non-empty (the session's
# steps actually landed in the registry).
run_metrics_smoke() {
  local build_dir="$1"
  echo "== metrics scrape smoke (veritas_server --metrics-port)"
  cmake --build "$build_dir" -j "$(nproc)" \
    --target example_veritas_server example_veritas_client > /dev/null
  local tmp_dir
  tmp_dir="$(mktemp -d)"
  local status=0
  "$build_dir"/examples/example_veritas_server \
    --port=0 --port-file="$tmp_dir/server.port" \
    --metrics-port=0 --metrics-port-file="$tmp_dir/metrics.port" &
  local server_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$tmp_dir/server.port" && -s "$tmp_dir/metrics.port" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$tmp_dir/server.port" || ! -s "$tmp_dir/metrics.port" ]]; then
    echo "metrics smoke: server never published its ports" >&2
    kill "$server_pid" 2> /dev/null || true
    rm -rf "$tmp_dir"
    return 1
  fi
  timeout 60 "$build_dir"/examples/example_veritas_client \
    --port="$(cat "$tmp_dir/server.port")" --claims=12 --budget=3 \
    > /dev/null || status=1
  local scrape=""
  scrape="$(timeout 10 bash -c '
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf "GET /metrics HTTP/1.0\r\n\r\n" >&3
    cat <&3' -- "$(cat "$tmp_dir/metrics.port")" 2> /dev/null)" || status=1
  kill "$server_pid" 2> /dev/null || true
  wait "$server_pid" 2> /dev/null || true
  if ! head -1 <<< "$scrape" | grep -q '200 OK'; then
    echo "metrics smoke: scrape did not return HTTP 200" >&2
    status=1
  fi
  local body
  body="$(printf '%s\n' "$scrape" | tr -d '\r' | sed '1,/^$/d')"
  if [[ -z "$body" ]]; then
    echo "metrics smoke: empty exposition body" >&2
    status=1
  # Prometheus text grammar: every line is a `# TYPE` comment or a
  # `name[{labels}] value` sample.
  elif ! printf '%s\n' "$body" | awk '
      /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
      /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9][0-9.eE+-]*$/ { next }
      { bad = 1; exit }
      END { exit bad }'; then
    echo "metrics smoke: exposition failed the Prometheus grammar check" >&2
    printf '%s\n' "$body" >&2
    status=1
  elif ! printf '%s\n' "$body" | awk '
      $1 == "veritas_queue_service_seconds_count" && $2 + 0 > 0 { ok = 1 }
      END { exit !ok }'; then
    echo "metrics smoke: step-latency histogram is empty" >&2
    printf '%s\n' "$body" >&2
    status=1
  fi
  rm -rf "$tmp_dir"
  if [[ "$status" != 0 ]]; then
    echo "metrics smoke: FAILED" >&2
    return 1
  fi
  echo "metrics smoke: PASS"
}

if [[ "${SMOKE:-0}" == "1" ]]; then
  run_smoke "${1:-build}"
  run_fleet_smoke "${1:-build}"
  run_metrics_smoke "${1:-build}"
  exit
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  build_dir="${1:-build-tsan}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVERITAS_BUILD_BENCH=OFF \
    -DVERITAS_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$build_dir" -j "$(nproc)"
  status=0
  for suite in "$build_dir"/tests/service_*_test "$build_dir"/tests/api_*_test \
               "$build_dir"/tests/fleet_*_test "$build_dir"/tests/crf_*_test \
               "$build_dir"/tests/core_*_test "$build_dir"/tests/obs_*_test \
               "$build_dir"/tests/common_thread_pool_test \
               "$build_dir"/tests/common_socket_test; do
    echo "== ${suite##*/}"
    TSAN_OPTIONS=halt_on_error=1 "$suite" --gtest_brief=1 || status=1
  done
  exit "$status"
fi

if [[ "${ASAN:-0}" == "1" ]]; then
  build_dir="${1:-build-asan}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVERITAS_BUILD_BENCH=OFF \
    -DVERITAS_BUILD_EXAMPLES=OFF \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$build_dir" -j "$(nproc)"
  status=0
  # Kernel suites (buffer reuse) and decoder/parser suites (untrusted
  # bytes).
  for suite in "$build_dir"/tests/optim_*_test "$build_dir"/tests/crf_*_test \
               "$build_dir"/tests/core_*_test \
               "$build_dir"/tests/fleet_*_test \
               "$build_dir"/tests/api_json_test \
               "$build_dir"/tests/api_event_server_test \
               "$build_dir"/tests/api_loopback_test \
               "$build_dir"/tests/api_wire_mutation_test \
               "$build_dir"/tests/service_checkpoint_mutation_test \
               "$build_dir"/tests/obs_exposition_test \
               "$build_dir"/tests/api_codec_roundtrip_test \
               "$build_dir"/tests/api_codec_golden_test \
               "$build_dir"/tests/data_io_test \
               "$build_dir"/tests/service_checkpoint_test \
               "$build_dir"/tests/service_checkpoint_golden_test \
               "$build_dir"/tests/service_session_manager_test; do
    echo "== ${suite##*/}"
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 "$suite" \
      --gtest_brief=1 || status=1
  done
  exit "$status"
fi

build_dir="${1:-build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
(cd "$build_dir" && ctest --output-on-failure -j "$(nproc)")
# Static analysis (veritas-lint + clang-tidy baseline) reusing the build
# dir's compile_commands.json. Opt out with LINT=0.
if [[ "${LINT:-1}" != "0" ]]; then
  "$repo_root"/scripts/lint.sh "$build_dir"
fi
if [[ "${SMOKE:-}" != "0" ]]; then
  run_smoke "$build_dir"
  run_metrics_smoke "$build_dir"
fi
