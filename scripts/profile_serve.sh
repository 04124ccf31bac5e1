#!/usr/bin/env sh
# profile_serve.sh — capture CPU, heap and allocation profiles from
# intellogd under replay load, via the daemon's /debug/pprof endpoints,
# plus a GC/batch-pool stats snapshot from /metrics. The profiles land
# under profiles/ next to a matching .txt top-listing; TESTING.md
# describes how to read them. The CPU profile here is of a replay loop
# against a daemon with idle expiry and checkpoints off (cpu-replay.*);
# profiles/{cpu,allocs}-serve-<workload>.* are the benchmark's steady
# state and come from scripts/profile_bench.sh.
#
#   scripts/profile_serve.sh              # 10s CPU profile + heap/allocs snapshots
#   SECONDS_CPU=30 scripts/profile_serve.sh
#   JOBS=64 WORKERS=8 scripts/profile_serve.sh
#
# The replay loops the corpus continuously while the CPU profile runs,
# so the profile sees a steady ingest stream rather than a cold start
# and an idle tail.
set -eu

cd "$(dirname "$0")/.."

cpu_secs="${SECONDS_CPU:-10}"
jobs="${JOBS:-16}"
ingest_workers="${WORKERS:-4}"
outdir="profiles"
mkdir -p "$outdir"

work=$(mktemp -d)
daemon_pid=""
load_pid=""
cleanup() {
	for pid in "$load_pid" "$daemon_pid"; do
		if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
			kill -KILL "$pid" 2>/dev/null || true
		fi
	done
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "==> build"
go build -o "$work/intellogd" ./cmd/intellogd
go build -o "$work/intellog" ./cmd/intellog
go build -o "$work/loggen" ./cmd/loggen

echo "==> train tenant model + generate replay corpus"
"$work/loggen" -framework spark -jobs 6 -fault none -seed 11 -out "$work/train-logs"
mkdir -p "$work/models"
"$work/intellog" train -framework spark -logs "$work/train-logs" -model "$work/models/prof.json"
"$work/loggen" -framework spark -jobs "$jobs" -fault kill -seed 12 -out "$work/replay-logs"

echo "==> boot intellogd (ingest-workers=$ingest_workers)"
addr="127.0.0.1:7874"
"$work/intellogd" -addr "$addr" -models "$work/models" \
	-ingest-workers "$ingest_workers" -checkpoint-every 0 -idle 0 \
	>"$work/intellogd.log" 2>&1 &
daemon_pid=$!
"$work/intellog" bench-serve -server "http://$addr" -tenant prof -framework spark \
	-logs "$work/replay-logs" -batch 512 -concurrency 4 -wait 10s -no-flush >/dev/null

echo "==> replay loop in background"
(
	while :; do
		"$work/intellog" bench-serve -server "http://$addr" -tenant prof \
			-framework spark -logs "$work/replay-logs" -batch 512 \
			-concurrency 4 -no-flush >/dev/null 2>&1 || exit 0
	done
) &
load_pid=$!

echo "==> capture CPU profile (${cpu_secs}s) + heap/allocs snapshots"
curl -fsS -o "$outdir/cpu-replay.pb.gz" \
	"http://$addr/debug/pprof/profile?seconds=$cpu_secs"
curl -fsS -o "$outdir/heap-serve.pb.gz" \
	"http://$addr/debug/pprof/heap?gc=1"
curl -fsS -o "$outdir/allocs-serve.pb.gz" \
	"http://$addr/debug/pprof/allocs"

# GC + batch-pool counters, scraped while the load loop is still
# running: the alloc/GC view the profiles can't show (pool hit rates,
# pause totals, the runtime's GC CPU fraction).
curl -fsS "http://$addr/metrics" |
	grep -E '^intellogd_(gc_|heap_|mallocs_|batch_pool_|ingest_records_)' \
		>"$outdir/gc-serve.txt" || true

kill -KILL "$load_pid" 2>/dev/null || true
load_pid=""
kill -TERM "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "==> render top listings"
go tool pprof -top -nodecount 25 "$work/intellogd" "$outdir/cpu-replay.pb.gz" \
	>"$outdir/cpu-replay.txt"
go tool pprof -top -nodecount 25 -sample_index=alloc_space "$work/intellogd" \
	"$outdir/heap-serve.pb.gz" >"$outdir/heap-serve.txt"
go tool pprof -top -nodecount 25 -sample_index=alloc_objects "$work/intellogd" \
	"$outdir/allocs-serve.pb.gz" >"$outdir/allocs-serve.txt"

echo "==> profiles written:"
ls -l "$outdir"
