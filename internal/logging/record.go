// Package logging defines the log record model shared by every stage of
// IntelLog: raw log lines, parsed records, and sessions (the unit of
// analysis, one session per YARN container).
package logging

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Level is a syslog-style severity recorded on each log line.
type Level int

// Severity levels in increasing order of importance.
const (
	Trace Level = iota
	Debug
	Info
	Warn
	Error
	Fatal
)

var levelNames = [...]string{"TRACE", "DEBUG", "INFO", "WARN", "ERROR", "FATAL"}

// String returns the upper-case level name used in log files.
func (l Level) String() string {
	if l < Trace || l > Fatal {
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
	return levelNames[l]
}

// ParseLevel maps a level name (any case) to a Level. Unknown names map to
// Info, the overwhelmingly common default in analytics-system logs.
func ParseLevel(s string) Level {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "TRACE":
		return Trace
	case "DEBUG":
		return Debug
	case "WARN", "WARNING":
		return Warn
	case "ERROR":
		return Error
	case "FATAL":
		return Fatal
	default:
		return Info
	}
}

// Framework identifies which targeted system produced a log line.
type Framework string

// Frameworks targeted by this implementation, mirroring the paper's
// deployment (three analytics systems managed by YARN) plus the
// nova-compute corpus used in Table 1.
const (
	Spark       Framework = "spark"
	MapReduce   Framework = "mapreduce"
	Tez         Framework = "tez"
	Yarn        Framework = "yarn"
	NovaCompute Framework = "nova-compute"
	// TensorFlow implements the paper's §9 future work: extending IntelLog
	// to distributed machine-learning systems.
	TensorFlow Framework = "tensorflow"
	// Flink covers streaming dataflow jobs: a JobManager plus TaskManager
	// containers whose sessions center on the checkpointing lifecycle.
	Flink Framework = "flink"
	// HDFS covers datanode logs: block write pipelines, packet
	// responders, scanners and heartbeats — also the layout family of the
	// public LogHub HDFS corpus (see internal/corpus).
	HDFS Framework = "hdfs"
	// YarnRM covers ResourceManager HA pairs: leader election,
	// active/standby transitions and failover recovery. Distinct from
	// Yarn (the per-container NM/RM daemon chatter of Table 1) — YarnRM
	// sessions are the RM instances themselves.
	YarnRM Framework = "yarn-rm"
)

// Frameworks lists the frameworks above, in declaration order. It is
// read-only.
var Frameworks = []Framework{Spark, MapReduce, Tez, Yarn, NovaCompute, TensorFlow, Flink, HDFS, YarnRM}

// Known reports whether fw is one of Frameworks. Callers that accept
// framework names from the outside (the ingest API, intellogd's
// -framework) must check it before FormatterFor, whose default case would
// otherwise silently parse an unknown name with the Hadoop layout.
func (fw Framework) Known() bool {
	return slices.Contains(Frameworks, fw)
}

// Record is one parsed log message.
type Record struct {
	// Time is the log timestamp.
	Time time.Time
	// Level is the severity parsed from the line.
	Level Level
	// Source is the logging component, e.g. "BlockManager" for Spark or a
	// fully qualified class for Hadoop.
	Source string
	// Message is the free-text body of the line (after the header fields).
	Message string
	// Framework identifies the producing system.
	Framework Framework
	// SessionID identifies the YARN container (= session) that wrote the
	// line; empty if the producing daemon is not containerised.
	SessionID string

	// TemplateID is ground-truth metadata set by the simulator: the ID of
	// the template that generated the message. It is never consulted by the
	// analysis pipeline; experiments use it to score extraction accuracy.
	TemplateID string
}

// Session is the unit IntelLog analyses: the ordered log of one YARN
// container (§5 of the paper).
type Session struct {
	// ID is the container ID.
	ID string
	// Framework is the system that ran inside the container.
	Framework Framework
	// Records holds the session's log messages in emission order.
	Records []Record
}

// Len returns the number of log messages in the session.
func (s *Session) Len() int { return len(s.Records) }

// Messages returns just the message bodies, in order.
func (s *Session) Messages() []string {
	out := make([]string, len(s.Records))
	for i, r := range s.Records {
		out[i] = r.Message
	}
	return out
}

// Span returns the first and last timestamps of the session. A session with
// no records returns two zero times.
func (s *Session) Span() (first, last time.Time) {
	if len(s.Records) == 0 {
		return
	}
	return s.Records[0].Time, s.Records[len(s.Records)-1].Time
}

// GroupSessions partitions records by SessionID, preserving record order
// within each session and ordering sessions by the time of their first
// record (ties keep first-appearance order, so the sort is stable under
// interleaving). Records with an empty SessionID are grouped under "".
func GroupSessions(records []Record) []*Session {
	index := make(map[string]*Session)
	var order []*Session
	for _, r := range records {
		s, ok := index[r.SessionID]
		if !ok {
			s = &Session{ID: r.SessionID, Framework: r.Framework}
			index[r.SessionID] = s
			order = append(order, s)
		}
		s.Records = append(s.Records, r)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].Records[0].Time.Before(order[j].Records[0].Time)
	})
	return order
}
