package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intellog/internal/server"
)

const tenantName = "bench"

// buildDaemon compiles cmd/intellogd from the checkout at root.
func buildDaemon(root, out string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/intellogd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/intellogd: %v\n%s", err, msg)
	}
	return time.Since(start), nil
}

// daemon is one intellogd subprocess under the pinned configuration.
type daemon struct {
	cmd        *exec.Cmd
	log        *os.File
	dir        string // holds models/, state/ and the daemon's log
	base       string // http://host:port
	streamAddr string
}

// daemonFlags pin the system under test — the same for every workload,
// no knobs: single ingest worker, idle expiry, periodic checkpoints and
// WAL fsync all on, the steady state an operator runs.
var daemonFlags = []string{
	"-ingest-workers", "1", "-idle", idleTimeout.String(),
	"-checkpoint-every", "5s", "-wal-sync", "interval",
	"-queue", "8192", "-anomaly-log", "65536",
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon boots intellogd over dir/models and dir/state with the
// pinned flags.
func startDaemon(bin, dir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	streamAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "intellogd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{
		"-addr", addr, "-stream-addr", streamAddr,
		"-models", filepath.Join(dir, "models"), "-state", filepath.Join(dir, "state"),
	}, daemonFlags...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, dir: dir, base: "http://" + addr, streamAddr: streamAddr}
	// Poll tightly: the boot is part of setup_s and the client's own
	// WaitReady steps in 50 ms.
	c := &server.Client{Base: d.base, Tenant: tenantName}
	deadline := time.Now().Add(20 * time.Second)
	for c.Healthz() != nil {
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("intellogd not ready after 20s (see %s)", logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it; a daemon that
// will not drain is killed so no process outlives the run.
func (d *daemon) stop() error {
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("intellogd did not drain within 40s; killed")
	}
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in ticks.
const clockTick = 100

// procCPU returns user+system CPU seconds of pid from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// comm may hold spaces; fields are counted after its closing paren.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTick, nil
}

// procRSSPeakMiB returns VmHWM of pid in MiB.
func procRSSPeakMiB(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrape is one /metrics exposition, each family summed over its series.
type scrape map[string]float64

// scrapedNames is every family the bench reads. A name the daemon has
// stopped exposing would otherwise read as 0 and let the gate's
// "outstanding == 0" and "skipped == 0" checks pass with no data behind
// them, so a scrape that lacks one is an error. (Not listed:
// intellogd_checkpoints_total, which the daemon creates with its first
// checkpoint — until then absent and 0 are the same thing.)
var scrapedNames = []string{
	"intellogd_anomalies_total", "intellogd_ingest_records_total",
	"intellogd_ingest_batches_total", "intellogd_ingest_rejected_total",
	"intellogd_ingest_skipped_total", "intellogd_dlq_depth", "intellogd_dlq_dropped_total",
	"intellogd_batch_pool_outstanding", "intellogd_batch_pool_hits_total",
	"intellogd_batch_pool_steals_total", "intellogd_batch_pool_misses_total",
	"intellogd_lookup_cache_hits", "intellogd_lookup_cache_misses",
	"intellogd_queue_records",
	"intellogd_pending_sessions", "intellogd_expiry_heap_depth",
	"intellogd_heap_alloc_bytes", "intellogd_mallocs_total",
	"intellogd_gc_cpu_fraction",
}

func (s scrape) checkNames() error {
	for _, name := range scrapedNames {
		if _, ok := s[name]; !ok {
			return fmt.Errorf("/metrics does not expose %s, which the bench reads", name)
		}
	}
	return nil
}

func parseMetrics(text string) scrape {
	out := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		out[name] += v
	}
	return out
}
