#!/usr/bin/env bash
# profile_bench.sh — profile intellogd in the benchmark's steady state:
# run one bench/ driver run (pinned daemon config: idle expiry, 5 s
# checkpoints, WAL on) and, in the middle of its measured phase, pull
# from the daemon at once a CPU profile (/debug/pprof/profile) and a
# delta allocation profile over the same window (/debug/pprof/allocs
# with seconds=), and, two seconds before that window ends, the live
# heap (/debug/pprof/heap; the daemon exits soon after the window).
# Writes, per workload,
#   profiles/cpu-serve-<workload>.pb.gz     and the `-top -cum` listing .txt
#   profiles/allocs-serve-<workload>.pb.gz  and the alloc_space `-top` listing .txt
#   profiles/heap-serve-<workload>.pb.gz    and the inuse_space `-top` listing .txt
#
#   scripts/profile_bench.sh                     # spark_ils1, seed 4
#   scripts/profile_bench.sh hdfs_ils1 2
#   SECONDS_CPU=20 scripts/profile_bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."
workload="${1:-spark_ils1}"
seed="${2:-4}"
cpu_secs="${SECONDS_CPU:-12}"
cpu="profiles/cpu-serve-$workload"
allocs="profiles/allocs-serve-$workload"
heap="profiles/heap-serve-$workload"

bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 25 --trace 0 &
run=$!
# The run boots fifteen short-lived daemons for setup_s before the one it
# measures; that one is the first to live 14 s (warm-up cycle done, at
# least 12 s of the 25 s measured phase left).
pid=""
while [ -z "$pid" ] && kill -0 "$run" 2>/dev/null; do
	sleep 1
	for p in $(pgrep -x intellogd || true); do
		age=$(ps -o etimes= -p "$p" 2>/dev/null | tr -d ' ' || true)
		if [ -n "$age" ] && [ "$age" -ge 14 ]; then
			pid=$p
			break
		fi
	done
done
if [ -z "$pid" ]; then
	wait "$run" || true
	echo "profile_bench: the run ended before its daemon reached the measured phase" >&2
	exit 1
fi
bin=$(readlink "/proc/$pid/exe")
addr=$(tr '\0' '\n' <"/proc/$pid/cmdline" | grep -A1 -x -e -addr | tail -1)
curl -fsS -o "$allocs.pb.gz" "http://$addr/debug/pprof/allocs?seconds=$cpu_secs" &
pull=$!
(sleep $((cpu_secs - 2)) && curl -fsS -o "$heap.pb.gz" "http://$addr/debug/pprof/heap") &
pullheap=$!
curl -fsS -o "$cpu.pb.gz" "http://$addr/debug/pprof/profile?seconds=$cpu_secs"
wait "$pull" "$pullheap"
go tool pprof -top -cum -nodecount 40 "$bin" "$cpu.pb.gz" >"$cpu.txt"
go tool pprof -top -sample_index=alloc_space -nodecount 40 "$bin" "$allocs.pb.gz" >"$allocs.txt"
go tool pprof -top -sample_index=inuse_space -nodecount 40 "$bin" "$heap.pb.gz" >"$heap.txt"
wait "$run"
