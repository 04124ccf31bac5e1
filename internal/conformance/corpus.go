// Package conformance is the repo's correctness substrate: a reusable
// harness that (a) generates seeded detection corpora from the simulated
// cluster (frameworks × fault profiles × sizes), (b) proves the batch,
// sharded-streaming and checkpoint/kill/resume execution paths produce
// byte-identical canonicalized reports (the differential oracle), and
// (c) scores detection against the simulator's ground-truth annotations,
// enforcing per-framework precision/recall/F1 floors as regression gates.
// Every future perf or refactor PR inherits these tests: if a change
// perturbs detection semantics, the oracle or a gate fails loudly instead
// of a table in experiments_output.txt drifting silently.
package conformance

import (
	"sort"
	"sync"

	"intellog/internal/core"
	"intellog/internal/logging"
	"intellog/internal/sim"
	"intellog/internal/workload"
)

// Harness-wide seeds. Corpora carry their own seeds (Spec.Seed); these
// only pin the shared reference models.
const (
	harnessSeed      = 101
	harnessTrainJobs = 12
)

// Spec describes one generated conformance corpus.
type Spec struct {
	// Name labels the corpus in test output.
	Name string
	// Framework selects the simulated system.
	Framework logging.Framework
	// Jobs is the number of jobs submitted.
	Jobs int
	// Faults is the per-job fault cycle (job i gets Faults[i mod len]);
	// empty means every job is clean.
	Faults []sim.FaultKind
	// Seed drives the cluster, workload draws and (when enabled) the
	// line-level fault injector, so a Spec regenerates identically.
	Seed int64
	// LineFaults additionally perturbs the aggregated record stream with
	// a sim.FaultInjector (truncation, corruption, duplication, bounded
	// reordering, mid-session cuts) — the collection-pipeline fault model,
	// applied before every execution path so the differential oracle still
	// holds on mangled input.
	LineFaults bool
	// Hostile reshapes the aggregated stream's arrival pattern (bursts,
	// clock skew, tenant churn, duplicate storms — see workload.ApplyHostile)
	// after interleaving and before LineFaults. Time-only profiles keep the
	// corpus accuracy-gateable; dupstorm corpora are oracle-only.
	Hostile workload.HostileProfile
}

// Corpus is one generated detection corpus: a time-ordered aggregated
// record stream plus the simulator's ground truth.
type Corpus struct {
	Spec Spec
	// Records is the aggregated stream, interleaved across sessions in
	// timestamp order — what the online detector would consume live, and
	// what logging.GroupSessions turns into the batch view.
	Records []logging.Record
	// Truth marks the session IDs the injected faults touched.
	Truth map[string]bool
	// SessionIDs lists every generated session, in job/session order
	// (before any line-fault perturbation).
	SessionIDs []string
}

// Generate builds the corpus. Same Spec ⇒ byte-identical corpus: the
// cluster, workload generator and fault injector are all seeded from
// Spec.Seed.
func (sp Spec) Generate() *Corpus {
	cluster := sim.NewCluster(26, sp.Seed)
	gen := workload.NewGenerator(cluster, sp.Seed+1)
	var jobs []*sim.JobResult
	for i := 0; i < sp.Jobs; i++ {
		fault := sim.FaultNone
		if len(sp.Faults) > 0 {
			fault = sp.Faults[i%len(sp.Faults)]
		}
		jobs = append(jobs, gen.Submit(sp.Framework, fault))
	}

	var recs []logging.Record
	var ids []string
	for _, j := range jobs {
		for _, s := range j.Sessions {
			ids = append(ids, s.ID)
			for _, r := range s.Records {
				r.SessionID = s.ID
				r.Framework = s.Framework
				recs = append(recs, r)
			}
		}
	}
	// Interleave sessions the way an aggregated stream arrives: by
	// timestamp, stable so equal-time records keep emission order.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })

	if sp.Hostile != "" {
		recs = workload.ApplyHostile(sp.Hostile, recs, sp.Seed+3)
	}

	if sp.LineFaults {
		inj := sim.NewFaultInjector(sp.Seed + 2)
		inj.TruncateProb = 0.03
		inj.CorruptProb = 0.03
		inj.DuplicateProb = 0.05
		inj.ReorderWindow = 4
		inj.CutProb = 0.25
		recs = inj.Perturb(recs)
	}

	return &Corpus{Spec: sp, Records: recs, Truth: sim.MergeAffected(jobs), SessionIDs: ids}
}

// Sessions returns the corpus's batch view: records grouped by session,
// ordered by first-record time (the same view BatchPath scores).
func (c *Corpus) Sessions() []*logging.Session {
	return logging.GroupSessions(c.Records)
}

// DefaultMatrix is the corpus matrix the conformance tests run: every
// simulated framework, clean and fault-injected jobs, two sizes, corpora
// with line-level (collection-pipeline) faults on top, and hostile
// traffic profiles (burst, clock skew, tenant churn, duplicate storms).
// New corpora are appended — several tests pin entries by index.
func DefaultMatrix() []Spec {
	return []Spec{
		{Name: "spark-clean", Framework: logging.Spark, Jobs: 4, Seed: 201},
		{Name: "spark-faulted", Framework: logging.Spark, Jobs: 6, Seed: 202,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork}},
		{Name: "mapreduce-faulted", Framework: logging.MapReduce, Jobs: 6, Seed: 203,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultNode, sim.FaultKill}},
		{Name: "tez-faulted", Framework: logging.Tez, Jobs: 6, Seed: 204,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultNetwork, sim.FaultNode}},
		{Name: "spark-large-mixed", Framework: logging.Spark, Jobs: 10, Seed: 205,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork, sim.FaultNode, sim.FaultSlowShutdown}},
		{Name: "mapreduce-line-faults", Framework: logging.MapReduce, Jobs: 5, Seed: 206,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill}, LineFaults: true},
		{Name: "tez-line-faults", Framework: logging.Tez, Jobs: 4, Seed: 207,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultNetwork}, LineFaults: true},
		{Name: "tensorflow-faulted", Framework: logging.TensorFlow, Jobs: 6, Seed: 208,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork}},
		{Name: "flink-faulted", Framework: logging.Flink, Jobs: 6, Seed: 209,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork}},
		{Name: "hdfs-faulted", Framework: logging.HDFS, Jobs: 6, Seed: 210,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultNetwork, sim.FaultKill}},
		{Name: "yarnrm-failover", Framework: logging.YarnRM, Jobs: 6, Seed: 211,
			Faults: []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork}},
		{Name: "spark-hostile-burst", Framework: logging.Spark, Jobs: 6, Seed: 218,
			Faults:  []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNetwork},
			Hostile: workload.HostileBurst},
		{Name: "flink-hostile-skew", Framework: logging.Flink, Jobs: 5, Seed: 213,
			Faults:  []sim.FaultKind{sim.FaultNone, sim.FaultNetwork, sim.FaultKill},
			Hostile: workload.HostileSkew},
		{Name: "mapreduce-hostile-churn", Framework: logging.MapReduce, Jobs: 5, Seed: 214,
			Faults:  []sim.FaultKind{sim.FaultNone, sim.FaultKill, sim.FaultNode},
			Hostile: workload.HostileChurn},
		{Name: "hdfs-hostile-dupstorm-linefaults", Framework: logging.HDFS, Jobs: 4, Seed: 215,
			Faults:  []sim.FaultKind{sim.FaultNone, sim.FaultNetwork},
			Hostile: workload.HostileDupStorm, LineFaults: true},
	}
}

// GatedSpecs are the corpora the accuracy gates score: per framework, a
// mix of clean jobs and the three real injected problems (§6.4), with no
// line-level mangling — corrupt message bytes would create unexpected-
// message findings in clean sessions and measure the injector, not the
// detector. Hostile corpora are gated only for time-only profiles:
// detection is order-based and never consults timestamps, so burst /
// skew / churn must not move accuracy, while dupstorm legitimately
// changes what the detector sees and stays oracle-only.
func GatedSpecs() []Spec {
	m := DefaultMatrix()
	var out []Spec
	for i, sp := range m {
		if i == 0 || sp.LineFaults || (sp.Hostile != "" && !sp.Hostile.TimeOnly()) {
			continue
		}
		if sp.Name == "spark-large-mixed" {
			// Mixed-fault jumbo corpus: oracle coverage, not a gate — the
			// SlowShutdown benign-config scenario is the paper's designed
			// false positive.
			continue
		}
		out = append(out, sp)
	}
	return out
}

// models caches one trained reference model per framework; training is
// the expensive part of the harness and every test shares it.
var models = struct {
	sync.Mutex
	byFW  map[logging.Framework]*core.Model
	train map[logging.Framework][]*logging.Session
}{byFW: map[logging.Framework]*core.Model{}, train: map[logging.Framework][]*logging.Session{}}

// TrainingSessions returns (and caches) the harness's clean training
// corpus for a framework. The training cluster is separate from every
// corpus cluster, so detection always runs on unseen jobs.
func TrainingSessions(fw logging.Framework) []*logging.Session {
	models.Lock()
	defer models.Unlock()
	return trainingLocked(fw)
}

func trainingLocked(fw logging.Framework) []*logging.Session {
	if s, ok := models.train[fw]; ok {
		return s
	}
	cluster := sim.NewCluster(26, harnessSeed)
	gen := workload.NewGenerator(cluster, harnessSeed+1)
	s := gen.TrainingCorpus(fw, harnessTrainJobs)
	models.train[fw] = s
	return s
}

// ModelFor returns (and caches) the trained reference model for a
// framework.
func ModelFor(fw logging.Framework) *core.Model {
	models.Lock()
	defer models.Unlock()
	if m, ok := models.byFW[fw]; ok {
		return m
	}
	m := core.Train(trainingLocked(fw), core.Config{})
	models.byFW[fw] = m
	return m
}
