#!/usr/bin/env sh
# check.sh — the repo's one-command gate: format, vet, build, race-clean
# tests, and a short pass over the throughput benchmarks so performance
# regressions surface before review.
#
#   scripts/check.sh            # full gate
#   BENCH=0 scripts/check.sh    # skip the benchmark pass + regression guard
#   FUZZ=1 scripts/check.sh     # also run the native fuzz targets
#   FUZZTIME=60s FUZZ=1 ...     # with a larger per-target budget
#   SERVE=1 scripts/check.sh    # also run the serving-mode smoke test
#   WAL=1 scripts/check.sh      # also run the WAL crash-durability smoke test
#
# Setting INTELLOG_BENCH_JSON=BENCH_spell.json before the bench pass
# archives the Spell benchmarks' headline numbers, and
# INTELLOG_BENCH_DETECT_JSON=BENCH_detect.json the conformance detection
# benchmarks' (see bench_throughput_test.go and
# internal/conformance/bench_test.go).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race -count=1 ./..."
go test -race -count=1 ./...

if [ "${BENCH:-1}" = "1" ]; then
	# The archived throughput benchmarks run inside the regression guard,
	# which compares their logs/sec against the committed BENCH_*.json
	# baselines (tolerance band; see bench_compare.sh for knobs).
	scripts/bench_compare.sh
	echo "==> microbenchmarks (short)"
	go test -run '^$' -bench '^BenchmarkTraining$' -benchmem -benchtime 2x .
	go test -run '^$' -bench 'ConsumeColdStart|LookupSteadyState|LookupCache' -benchmem -benchtime 100x ./internal/spell/
fi

if [ "${FUZZ:-0}" = "1" ]; then
	ft="${FUZZTIME:-20s}"
	echo "==> native fuzz targets (${ft} each)"
	go test -run '^$' -fuzz '^FuzzSpellConsume$' -fuzztime "$ft" ./internal/spell/
	go test -run '^$' -fuzz '^FuzzLookupCache$' -fuzztime "$ft" ./internal/spell/
	go test -run '^$' -fuzz '^FuzzExtract$' -fuzztime "$ft" ./internal/extract/
	go test -run '^$' -fuzz '^FuzzStreamConsume$' -fuzztime "$ft" ./internal/detect/
	go test -run '^$' -fuzz '^FuzzCheckpointRoundTrip$' -fuzztime "$ft" ./internal/core/
	go test -run '^$' -fuzz '^FuzzWireFrame$' -fuzztime "$ft" ./internal/server/
	go test -run '^$' -fuzz '^FuzzWALSegment$' -fuzztime "$ft" ./internal/wal/
	go test -run '^$' -fuzz '^FuzzCorpusLoader$' -fuzztime "$ft" ./internal/corpus/
	go test -run '^$' -fuzz '^FuzzAnalyticsReads$' -fuzztime "$ft" ./internal/analytics/
fi

if [ "${SERVE:-0}" = "1" ]; then
	echo "==> serving-mode smoke (boot intellogd, HTTP replay, metrics, SIGTERM drain)"
	scripts/serve_smoke.sh
fi

if [ "${WAL:-0}" = "1" ]; then
	echo "==> WAL crash smoke (ack, SIGKILL, boot replay, DLQ, byte-identical report)"
	scripts/wal_crash_smoke.sh
fi

echo "==> OK"
