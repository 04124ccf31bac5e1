package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the number of samples behind a
// timing (or the count a ratio was taken over).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one workload run: what the result JSON archives and what
// -compare reads back.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// ingestRPS is the median over the phase's windows of acked records per
// second, so one noisy-neighbour stall does not move the result. The
// phase is cut into equal windows of about windowLen (one, when it is
// shorter than that); a batch counts where its ack arrived.
func (p *phase) ingestRPS() metric {
	dur := p.end.Sub(p.start)
	n := max(1, int((dur+windowLen/2)/windowLen))
	recs := make([]float64, n)
	for _, a := range p.acks {
		k := min(n-1, int(a.at.Sub(p.start)*time.Duration(n)/dur))
		recs[k] += float64(a.recs)
	}
	for k := range recs {
		recs[k] /= dur.Seconds() / float64(n)
	}
	return metric{Value: median(recs), Unit: "1/s", N: n}
}

func (p *phase) cpuPerRec() float64 {
	return (p.cpu1 - p.cpu0) / float64(p.records()) * 1e6
}

// pct is the q-quantile of ds in milliseconds.
func pct(ds []time.Duration, q float64) metric {
	return metric{Value: quantile(sortedCopy(msAll(ds)), q), Unit: "ms", N: len(ds)}
}

// endToEnd assembles the user-visible metrics of the untraced phase.
func (r *runner) endToEnd(p *phase) (map[string]metric, error) {
	rss, err := procRSSPeakMiB(r.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	lats := make([]time.Duration, len(p.acks))
	for i, a := range p.acks {
		lats[i] = a.lat
	}
	out := map[string]metric{
		"setup_s":        {Value: median(r.setupS), Unit: "s", N: len(r.setupS)},
		"ingest_rps":     p.ingestRPS(),
		"cpu_us_per_rec": {Value: p.cpuPerRec(), Unit: "us", N: p.records()},
		"rss_peak_mb":    {Value: rss, Unit: "MiB", N: 1},
		"ack_p50_ms":     pct(lats, 0.50),
		"ack_p99_ms":     pct(lats, 0.99),
	}
	if r.rd != nil {
		r.rd.mu.Lock()
		vis := between(r.rd.visible, p.start, p.end)
		qs := between(r.rd.queries, p.start, p.end)
		r.rd.mu.Unlock()
		out["visible_p50_ms"] = pct(vis, 0.50)
		out["visible_p99_ms"] = pct(vis, 0.99)
		out["query_p50_ms"] = pct(qs, 0.50)
		out["query_p99_ms"] = pct(qs, 0.99)
	}
	return out, nil
}

// perLayer assembles the live per-layer metrics of the traced phase:
// spans around client calls and /metrics deltas. untracedRPS is the
// throughput of the untraced phase just before it.
func (r *runner) perLayer(p *phase, untracedRPS float64) map[string]metric {
	tr := r.tr
	tracedRPS := p.ingestRPS()
	delta := func(name string) float64 { return p.scrape1[name] - p.scrape0[name] }
	share := func(num float64, den ...float64) float64 {
		sum := num
		for _, d := range den {
			sum += d
		}
		if sum == 0 {
			return 0
		}
		return num / sum
	}
	recs := delta("intellogd_ingest_records_total")
	perRec := func(v float64) float64 {
		if recs == 0 {
			return 0
		}
		return v / recs
	}
	gauge := func(name string) metric {
		return metric{Value: median(p.gauges[name]), Unit: "count", N: len(p.gauges[name])}
	}
	nsMedian := func(spanName string) metric {
		ds := tr.durations(spanName)
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d)
		}
		return metric{Value: median(xs), Unit: "ns", N: len(ds)}
	}
	heap := gauge("intellogd_heap_alloc_bytes")
	out := map[string]metric{
		"server.refused_share": {Unit: "ratio", N: p.sends,
			Value: share(delta("intellogd_ingest_rejected_total"), delta("intellogd_ingest_batches_total"))},
		"server.queue_records_p50": gauge("intellogd_queue_records"),
		"server.anomalies_page_ns": nsMedian("client.anomalies"),
		"server.checkpoint_ms":     msMetric(tr.durations("client.checkpoint")),
		"server.checkpoints":       {Value: delta("intellogd_checkpoints_total"), Unit: "count", N: 1},
		"batch.hit_share": {Unit: "ratio", N: int(delta("intellogd_ingest_batches_total")),
			Value: share(delta("intellogd_batch_pool_hits_total"), delta("intellogd_batch_pool_steals_total"), delta("intellogd_batch_pool_misses_total"))},
		"spell.cache_hit_share": {Unit: "ratio", N: int(recs),
			Value: share(delta("intellogd_lookup_cache_hits"), delta("intellogd_lookup_cache_misses"))},
		"detect.pending_sessions":  gauge("intellogd_pending_sessions"),
		"detect.expiry_heap_depth": gauge("intellogd_expiry_heap_depth"),
		"detect.anomalies_per_krec": {Unit: "1/krec", N: int(recs),
			Value: perRec(delta("intellogd_anomalies_total")) * 1000},
		"analytics.clusters_ms":   msMetric(tr.durations("client.clusters")),
		"analytics.rollups_ms":    msMetric(tr.durations("client.rollups")),
		"analytics.explain_ms":    msMetric(tr.durations("client.explain")),
		"metrics.scrape_ms":       msMetric(tr.durations("client.metrics")),
		"runtime.allocs_per_rec":  {Value: perRec(delta("intellogd_mallocs_total")), Unit: "count", N: int(recs)},
		"runtime.gc_cpu_fraction": {Value: p.scrape1["intellogd_gc_cpu_fraction"], Unit: "ratio", N: 1},
		"runtime.heap_mb":         {Value: heap.Value / (1 << 20), Unit: "MiB", N: heap.N},
		"loadgen.cpu_share": {Unit: "ratio", N: 1,
			Value: share(p.gen1-p.gen0, p.cpu1-p.cpu0)},
		"loadgen.late_p99_ms":       pct(p.late, 0.99),
		"loadgen.encode_ns_per_rec": {Value: float64(r.encodeNs) / float64(r.encodeRecs), Unit: "ns", N: r.encodeRecs},
		"bench.build_s":             {Value: r.cfg.buildS, Unit: "s", N: 1},
		"bench.trace_overhead_share": {Unit: "ratio", N: tracedRPS.N,
			Value: 1 - tracedRPS.Value/untracedRPS},
		"core.train_ms": {Value: median(r.trainMs), Unit: "ms", N: len(r.trainMs)},
	}
	return out
}

// unattributed is the share of the daemon's CPU per record that the
// replica layers do not account for: HTTP and connection handling, the
// route lock, queue hand-off, GC, reads served beside the ingest. If it
// grows, an unmeasured layer exists.
func unattributed(spec workloadSpec, layers map[string]metric, cpuUsPerRec float64) metric {
	ack := layers["server.ils1_ack_ns_per_rec"].Value
	if spec.ndjson {
		ack = layers["server.ndjson_ack_ns_per_rec"].Value
	}
	sum := ack + layers["detect.consume_warm_ns_per_rec"].Value +
		layers["analytics.observe_ns_per_anomaly"].Value*layers["detect.anomalies_per_krec"].Value/1000
	return metric{Value: 1 - sum/1000/cpuUsPerRec, Unit: "ratio", N: 1}
}

// printMetrics lists every metric by name with its unit and sample count.
func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-7s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

// checkFinite rejects a result that holds a NaN or an infinity: a
// number that cannot be compared must not be archived as a measurement.
func checkFinite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}
