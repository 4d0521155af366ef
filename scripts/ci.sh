#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline (no network, no
# external dev-dependencies) before a change lands.
#
#   ./scripts/ci.sh            # full gate
#   ./scripts/ci.sh --quick    # skip the release build (fmt+clippy+test)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

if [[ "$quick" == 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

# The end-to-end benchmark is its own workspace, so the root test run
# never compiles it; build and test it here so a library change that
# breaks its calls fails the gate.
echo "==> cargo test -q --offline --manifest-path e2ebench/Cargo.toml"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

smoke_blif='.model smoke\n.inputs a b c\n.outputs y\n.names a b t\n11 1\n.names t c y\n1- 1\n-1 1\n.end\n'

echo "==> telemetry report smoke (--report json | report-check)"
report="$(printf "$smoke_blif" \
  | cargo run -q -p chortle-cli --bin chortle-map -- --report json --jobs 2)"
printf '%s\n' "$report" | cargo run -q -p chortle-cli --bin report-check
printf '%s' "$report" | grep -q '"cache.hits"' \
  || { echo "ci: report is missing the cache counters" >&2; exit 1; }

echo "==> chrome trace smoke (--trace | report-check --chrome-trace)"
trace_tmp="$(mktemp -d)"
printf "$smoke_blif" | cargo run -q -p chortle-cli --bin chortle-map -- \
  --trace "$trace_tmp/run.json" --jobs 2 > /dev/null
cargo run -q -p chortle-cli --bin report-check -- --chrome-trace \
  < "$trace_tmp/run.json"
grep -q '"ph":"B"' "$trace_tmp/run.json" \
  || { echo "ci: trace file has no begin events" >&2; exit 1; }
rm -rf "$trace_tmp"

echo "==> cache identity smoke (--cache off vs tree/shared/fn, jobs 1 vs 4)"
ref="$(printf "$smoke_blif" \
  | cargo run -q -p chortle-cli --bin chortle-map -- --cache off)"
for mode_jobs in "tree 1" "shared 1" "shared 4" "fn 1" "fn 4"; do
  set -- $mode_jobs
  out="$(printf "$smoke_blif" \
    | cargo run -q -p chortle-cli --bin chortle-map -- --cache "$1" --jobs "$2")"
  [[ "$out" == "$ref" ]] \
    || { echo "ci: --cache $1 --jobs $2 changed the circuit" >&2; exit 1; }
done

echo "==> don't-care packing smoke (--pack dc, equivalence-checked in-process)"
# The dc post-pass proves equivalence internally (it refuses to emit an
# unproven merge); here we check the other contract: it never increases
# the LUT count.
packed="$(printf "$smoke_blif" \
  | cargo run -q -p chortle-cli --bin chortle-map -- --cache fn --pack dc)"
ref_luts="$(printf '%s\n' "$ref" | grep -c '^\.names')"
packed_luts="$(printf '%s\n' "$packed" | grep -c '^\.names')"
[[ "$packed_luts" -le "$ref_luts" ]] \
  || { echo "ci: --pack dc grew the circuit ($ref_luts -> $packed_luts LUTs)" >&2; exit 1; }

echo "==> chunked scheduler identity smoke (--chunk 1/auto/64, jobs 4 vs sequential)"
for chunk in 1 auto 64; do
  out="$(printf "$smoke_blif" \
    | cargo run -q -p chortle-cli --bin chortle-map -- --jobs 4 --chunk "$chunk")"
  [[ "$out" == "$ref" ]] \
    || { echo "ci: --chunk $chunk --jobs 4 changed the circuit" >&2; exit 1; }
done

echo "==> serve smoke (daemon on an ephemeral port vs offline CLI)"
serve_tmp="$(mktemp -d)"
serve_pid=""
cleanup_serve() {
  [[ -n "$serve_pid" ]] && kill "$serve_pid" 2>/dev/null
  [[ -n "${design_pid:-}" ]] && kill "$design_pid" 2>/dev/null
  [[ -n "${obs_pid:-}" ]] && kill "$obs_pid" 2>/dev/null
  rm -rf "$serve_tmp" "${design_tmp:-}" "${obs_tmp:-}"
}
trap cleanup_serve EXIT

cargo run -q -p chortle-server --bin chortle-serve -- --port 0 --workers 2 \
  > "$serve_tmp/report.json" 2> "$serve_tmp/daemon.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^listening on //p' "$serve_tmp/daemon.log" | head -n1)"
  [[ -n "$addr" ]] && break
  sleep 0.1
done
[[ -n "$addr" ]] \
  || { echo "ci: chortle-serve never reported a listening address" >&2; exit 1; }

# Three concurrent clients with different option mixes; each response
# netlist must be byte-identical to the offline CLI under the same flags.
client_flags=("-k 4 --cache shared --jobs 1" \
              "-k 5 --cache off --jobs 2 --objective depth" \
              "-k 4 --cache tree --no-optimize")
client_pids=()
for i in 0 1 2; do
  printf "$smoke_blif" | cargo run -q -p chortle-server --bin chortle-serve -- \
    --connect "$addr" ${client_flags[$i]} \
    > "$serve_tmp/serve_$i.blif" 2>/dev/null &
  client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
  wait "$pid" || { echo "ci: a serve client failed" >&2; exit 1; }
done
for i in 0 1 2; do
  printf "$smoke_blif" | cargo run -q -p chortle-cli --bin chortle-map -- \
    ${client_flags[$i]} > "$serve_tmp/cli_$i.blif"
  cmp -s "$serve_tmp/serve_$i.blif" "$serve_tmp/cli_$i.blif" \
    || { echo "ci: serve response $i (${client_flags[$i]}) differs from the CLI" >&2; exit 1; }
done

# Mixed-version session against the same live daemon: a v1 client (the
# frozen wire shape) and a v2 op:"map_batch" frame, each byte-identical
# to the offline CLI under the same flags.
printf "$smoke_blif" > "$serve_tmp/smoke.blif"
printf "$smoke_blif" | cargo run -q -p chortle-server --bin chortle-serve -- \
  --connect "$addr" --proto v1 ${client_flags[0]} \
  > "$serve_tmp/serve_v1.blif" 2>/dev/null \
  || { echo "ci: the v1 client failed" >&2; exit 1; }
cmp -s "$serve_tmp/serve_v1.blif" "$serve_tmp/cli_0.blif" \
  || { echo "ci: the v1 response differs from the CLI" >&2; exit 1; }
cargo run -q -p chortle-server --bin chortle-serve -- \
  --connect "$addr" --batch ${client_flags[1]} \
  "$serve_tmp/smoke.blif" "$serve_tmp/smoke.blif" \
  > "$serve_tmp/serve_batch.blif" 2>/dev/null \
  || { echo "ci: the map_batch client failed" >&2; exit 1; }
cat "$serve_tmp/cli_1.blif" "$serve_tmp/cli_1.blif" > "$serve_tmp/cli_batch.blif"
cmp -s "$serve_tmp/serve_batch.blif" "$serve_tmp/cli_batch.blif" \
  || { echo "ci: the batched responses differ from the CLI" >&2; exit 1; }
# The negotiation summary is human chatter, so it lands on stderr.
cargo run -q -p chortle-server --bin chortle-serve -- --connect "$addr" --hello \
  2>&1 | grep -q 'chortle-serve/v2' \
  || { echo "ci: op:\"hello\" did not negotiate v2" >&2; exit 1; }

# Live introspection: op:"stats" must answer a schema-valid aggregate
# report with the latency histograms, without disturbing the workers.
cargo run -q -p chortle-server --bin chortle-serve -- --connect "$addr" --stats \
  > "$serve_tmp/stats.json" 2>/dev/null \
  || { echo "ci: the stats request was rejected" >&2; exit 1; }
cargo run -q -p chortle-cli --bin report-check < "$serve_tmp/stats.json"
for needle in '"serve.run_ns"' '"serve.queue_ns"' '"serve.stats_requests"'; do
  grep -q "$needle" "$serve_tmp/stats.json" \
    || { echo "ci: live stats report is missing $needle" >&2; exit 1; }
done

# Graceful shutdown: the daemon must drain, print a schema-valid final
# report to stdout, and exit 0 within the timeout.
cargo run -q -p chortle-server --bin chortle-serve -- --connect "$addr" --shutdown 2>/dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "ci: chortle-serve did not exit after --shutdown" >&2; exit 1
fi
wait "$serve_pid" \
  || { echo "ci: chortle-serve exited non-zero" >&2; exit 1; }
serve_pid=""
cargo run -q -p chortle-cli --bin report-check < "$serve_tmp/report.json"
grep -q '"serve.completed","value":6' "$serve_tmp/report.json" \
  || { echo "ci: final serve report did not count 6 completed requests" >&2; exit 1; }
grep -q '"serve.batch_frames","value":1' "$serve_tmp/report.json" \
  || { echo "ci: final serve report did not count the map_batch frame" >&2; exit 1; }

echo "==> sequential-design smoke (--design CLI, per-cloud identity, op:\"map_design\")"
# A hierarchical two-model design with two registers: .subckt flattening,
# cloud cutting and reassembly all on the line (DESIGN.md 17).
design_blif='.model seq\n.inputs a b c e\n.outputs z w\n.latch d0 q0 re clk 0\n.latch d1 q1 re clk 0\n.subckt stage p=a q=b r=t\n.names t c d0\n1- 1\n-1 1\n.subckt stage p=q0 q=e r=d1\n.names q1 c z\n11 1\n.names a w\n1 1\n.end\n.model stage\n.inputs p q\n.outputs r\n.names p q r\n11 1\n.end\n'
design_tmp="$(mktemp -d)"
printf "$design_blif" > "$design_tmp/seq.blif"
cargo run -q -p chortle-cli --bin chortle-map -- -k 4 --design --jobs 2 \
  --clouds "$design_tmp/clouds" "$design_tmp/seq.blif" > "$design_tmp/mapped.blif"
grep -q '^\.latch' "$design_tmp/mapped.blif" \
  || { echo "ci: the mapped design lost its latches" >&2; exit 1; }
# Every cloud the pipeline mapped must be byte-identical to an offline
# chortle-map run handed that cloud's standalone BLIF.
cloud_count=0
for cloud in "$design_tmp"/clouds/cloud*.blif; do
  case "$cloud" in *.mapped.blif) continue ;; esac
  cargo run -q -p chortle-cli --bin chortle-map -- -k 4 "$cloud" \
    > "${cloud%.blif}.offline.blif"
  cmp -s "${cloud%.blif}.mapped.blif" "${cloud%.blif}.offline.blif" \
    || { echo "ci: $cloud diverged from the offline mapper" >&2; exit 1; }
  cloud_count=$((cloud_count + 1))
done
[[ "$cloud_count" -ge 2 ]] \
  || { echo "ci: expected >= 2 clouds, saw $cloud_count" >&2; exit 1; }
# The assembled netlist must round-trip: it is itself sequential BLIF
# the design path accepts.
cargo run -q -p chortle-cli --bin chortle-map -- -k 4 --design \
  "$design_tmp/mapped.blif" > /dev/null \
  || { echo "ci: the assembled netlist does not re-parse as a design" >&2; exit 1; }

# op:"map_design" against a dedicated daemon (the main daemon's final
# report above pins exact request counts), byte-identical to the
# offline --design run under the same flags.
cargo run -q -p chortle-server --bin chortle-serve -- --port 0 --workers 2 \
  > /dev/null 2> "$design_tmp/daemon.log" &
design_pid=$!
design_addr=""
for _ in $(seq 1 100); do
  design_addr="$(sed -n 's/^listening on //p' "$design_tmp/daemon.log" | head -n1)"
  [[ -n "$design_addr" ]] && break
  sleep 0.1
done
[[ -n "$design_addr" ]] \
  || { echo "ci: the design-smoke daemon never reported an address" >&2; exit 1; }
printf "$design_blif" | cargo run -q -p chortle-server --bin chortle-serve -- \
  --connect "$design_addr" --design -k 4 --jobs 2 \
  > "$design_tmp/serve_design.blif" 2>/dev/null \
  || { echo "ci: the map_design client failed" >&2; exit 1; }
cmp -s "$design_tmp/serve_design.blif" "$design_tmp/mapped.blif" \
  || { echo "ci: op:\"map_design\" differs from chortle-map --design" >&2; exit 1; }
cargo run -q -p chortle-server --bin chortle-serve -- \
  --connect "$design_addr" --shutdown 2>/dev/null
for _ in $(seq 1 100); do
  kill -0 "$design_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$design_pid" 2>/dev/null; then
  echo "ci: the design-smoke daemon did not exit after --shutdown" >&2; exit 1
fi
wait "$design_pid" \
  || { echo "ci: the design-smoke daemon exited non-zero" >&2; exit 1; }
design_pid=""
rm -rf "$design_tmp"
design_tmp=""

echo "==> observability smoke (/metrics scrape, JSONL logs, trace correlation)"
# A dedicated daemon (the main daemon's final report above pins exact
# request counts) with the Prometheus endpoint and debug logging on.
obs_tmp="$(mktemp -d)"
cargo run -q -p chortle-server --bin chortle-serve -- --port 0 --workers 2 \
  --metrics-addr 127.0.0.1:0 --log-level debug --log-file "$obs_tmp/daemon.jsonl" \
  > /dev/null 2> "$obs_tmp/daemon.log" &
obs_pid=$!
obs_addr=""
for _ in $(seq 1 100); do
  obs_addr="$(sed -n 's/^listening on //p' "$obs_tmp/daemon.log" | head -n1)"
  [[ -n "$obs_addr" ]] && break
  sleep 0.1
done
[[ -n "$obs_addr" ]] \
  || { echo "ci: the observability daemon never reported an address" >&2; exit 1; }
metrics_hostport="$(sed -n 's#^metrics on http://\(.*\)/metrics$#\1#p' "$obs_tmp/daemon.log" | head -n1)"
[[ -n "$metrics_hostport" ]] \
  || { echo "ci: the daemon never reported its metrics address" >&2; exit 1; }

# One traced request: the response must stay byte-identical to the
# offline CLI, and the trace_id must land in the structured log.
printf "$smoke_blif" | cargo run -q -p chortle-server --bin chortle-serve -- \
  --connect "$obs_addr" --cache off --trace-id ci-trace-1 \
  > "$obs_tmp/obs.blif" 2>/dev/null \
  || { echo "ci: the traced request failed" >&2; exit 1; }
printf '%s\n' "$ref" | cmp -s - "$obs_tmp/obs.blif" \
  || { echo "ci: the traced response differs from the offline CLI" >&2; exit 1; }
grep -q '"trace_id":"ci-trace-1"' "$obs_tmp/daemon.jsonl" \
  || { echo "ci: the trace_id never appeared in the structured log" >&2; exit 1; }
# Golden JSONL shape: every log line opens with the fixed prefix.
bad_lines="$(grep -cv '^{"seq":[0-9]*,"t_ns":[0-9]*,"level":"[a-z]*","target":"' \
  "$obs_tmp/daemon.jsonl" || true)"
[[ "$bad_lines" == 0 ]] \
  || { echo "ci: $bad_lines log line(s) violate the JSONL event shape" >&2; exit 1; }

# Scrape /metrics over plain HTTP/1.0 and validate the exposition with
# report-check --prom (the same check a Prometheus server would need).
exec 3<>"/dev/tcp/${metrics_hostport%:*}/${metrics_hostport##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > "$obs_tmp/page.txt"
exec 3<&- 3>&-
sed -e '1,/^\r*$/d' "$obs_tmp/page.txt" > "$obs_tmp/metrics.prom"
cargo run -q -p chortle-cli --bin report-check -- --prom < "$obs_tmp/metrics.prom"
grep -q '^chortle_serve_completed 1$' "$obs_tmp/metrics.prom" \
  || { echo "ci: the exposition did not count the traced request" >&2; exit 1; }
grep -q '^# TYPE chortle_serve_window_qps gauge$' "$obs_tmp/metrics.prom" \
  || { echo "ci: the exposition is missing the windowed gauges" >&2; exit 1; }
grep -q '^chortle_serve_run_ns{quantile="0.99"} ' "$obs_tmp/metrics.prom" \
  || { echo "ci: the exposition is missing the latency summary" >&2; exit 1; }

cargo run -q -p chortle-server --bin chortle-serve -- \
  --connect "$obs_addr" --shutdown 2>/dev/null
for _ in $(seq 1 100); do
  kill -0 "$obs_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$obs_pid" 2>/dev/null; then
  echo "ci: the observability daemon did not exit after --shutdown" >&2; exit 1
fi
wait "$obs_pid" \
  || { echo "ci: the observability daemon exited non-zero" >&2; exit 1; }
obs_pid=""
# The drain itself is logged (an info event from serve.shutdown).
grep -q '"target":"serve.shutdown"' "$obs_tmp/daemon.jsonl" \
  || { echo "ci: the shutdown drain was not logged" >&2; exit 1; }
rm -rf "$obs_tmp"
obs_tmp=""

if [[ "$quick" == 0 ]]; then
  echo "==> bench-diff vs committed snapshots (threshold 40%)"
  # Regenerate both benchmark snapshots and gate them against the
  # committed ones. The generous threshold absorbs host noise; a real
  # scheduler regression (like the pre-chunking 0.62x mapping_total)
  # blows well past it.
  bench_tmp="$(mktemp -d)"
  cargo run -q --release -p chortle-bench --bin perf -- \
    "$bench_tmp/map.json" > /dev/null
  ./scripts/bench-diff.sh results/BENCH_map.json "$bench_tmp/map.json" 40
  cargo run -q --release -p chortle-bench --bin loadgen -- \
    "$bench_tmp/serve.json" > /dev/null
  ./scripts/bench-diff.sh results/BENCH_serve.json "$bench_tmp/serve.json" 40
  rm -rf "$bench_tmp"
fi

echo "ci: all green"
