package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"intellog/internal/analytics"
	"intellog/internal/detect"
)

// ClustersResponse is one /v1/anomalies/clusters page: near-duplicate
// anomaly clusters ordered by ID, each carrying its root-cause
// explanation. Next is the cursor to pass as ?since= for the following
// page (clusters with ID > since).
type ClustersResponse struct {
	Clusters []analytics.Cluster `json:"clusters"`
	Next     uint64              `json:"next"`
	// Observed and Shapes summarize the whole engine, not just the page.
	Observed uint64 `json:"observed"`
	Shapes   int    `json:"shapes"`
}

// RollupsResponse is one /v1/rollups page: time-bucketed anomaly counts
// ordered by window start, plus the SLO burn-rate alerts evaluated at
// the newest observed event time. Next is the newest returned window's
// start (unix seconds), for ?since= cursoring.
type RollupsResponse struct {
	Window  string             `json:"window"`
	Budget  float64            `json:"budget"`
	Buckets []analytics.Bucket `json:"buckets"`
	Alerts  []analytics.Alert  `json:"alerts"`
	Next    int64              `json:"next"`
}

// ExplainResponse answers /v1/anomalies/{seq}/explain: the retained
// anomaly, its cluster identity, and the HW-graph walk from the
// earliest deviating group in its session to the erroneous one.
type ExplainResponse struct {
	Seq          uint64                 `json:"seq"`
	Anomaly      detect.Anomaly         `json:"anomaly"`
	ClusterID    uint64                 `json:"clusterId,omitempty"`
	ClusterLabel string                 `json:"clusterLabel,omitempty"`
	Explanation  *analytics.Explanation `json:"explanation,omitempty"`
}

// cursorParams parses the shared ?since= / ?limit= pagination idiom.
// Reports false after answering 400.
func cursorParams(w http.ResponseWriter, r *http.Request) (since uint64, limit int, ok bool) {
	q := r.URL.Query()
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "since: %v", err)
			return 0, 0, false
		}
		since = n
	}
	limit = 1000
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return 0, 0, false
		}
		limit = n
	}
	return since, limit, true
}

// handleClusters serves the cluster inventory, cursor-paginated by
// cluster ID (content-stable, so a cursor survives restarts and is
// identical across the batch/stream/resume paths).
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	since, limit, ok := cursorParams(w, r)
	if !ok {
		return
	}
	observed, shapes, clusters := t.engine.Clusters()
	resp := ClustersResponse{
		Clusters: []analytics.Cluster{},
		Next:     since,
		Observed: observed,
		Shapes:   shapes,
	}
	for _, c := range clusters {
		if c.ID <= since {
			continue
		}
		if len(resp.Clusters) >= limit {
			break
		}
		resp.Clusters = append(resp.Clusters, c)
		resp.Next = c.ID
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRollups serves the time-bucketed rollups, cursor-paginated by
// window start. The body is RollupsResponse as writeJSON would encode
// it: the response is marshaled with no windows, and the page's window
// encodings (the engine re-encodes only windows that changed) are
// written into its empty buckets array as they are, rather than
// through a json.Marshaler, whose output encoding/json would scan
// again.
func (s *Server) handleRollups(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	since, limit, ok := cursorParams(w, r)
	if !ok {
		return
	}
	page := t.engine.RollupPage(int64(since), limit)
	shell, err := json.Marshal(RollupsResponse{
		Window:  page.Window,
		Budget:  page.Budget,
		Buckets: []analytics.Bucket{},
		Alerts:  page.Alerts,
		Next:    page.Next,
	})
	if err != nil { // unreachable: analytics.Config.Validate keeps budget and burn rates finite
		httpError(w, http.StatusInternalServerError, "rollups: %v", err)
		return
	}
	at := bytes.Index(shell, emptyBuckets) + len(emptyBuckets) - 1

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(shell[:at])
	for i, b := range page.Buckets {
		if i > 0 {
			w.Write(comma)
		}
		w.Write(b)
	}
	w.Write(shell[at:])
	w.Write(newline)
}

var (
	emptyBuckets = []byte(`"buckets":[]`)
	comma        = []byte{','}
	newline      = []byte{'\n'}
)

// handleExplain localizes one retained anomaly by seq.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "seq: %v", err)
		return
	}
	a, ok := t.sink.get(seq)
	if !ok {
		httpError(w, http.StatusNotFound,
			"anomaly %d is not in tenant %s's retained window", seq, t.name)
		return
	}
	ae := t.engine.Explain(&a)
	writeJSON(w, http.StatusOK, ExplainResponse{
		Seq:          seq,
		Anomaly:      a,
		ClusterID:    ae.ClusterID,
		ClusterLabel: ae.ClusterLabel,
		Explanation:  ae.Explanation,
	})
}
