package intellog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"intellog/internal/conformance"
	"intellog/internal/logging"
	"intellog/internal/server"
)

// benchScrapedNames reads the /metrics families the bench driver
// requires straight out of bench/daemon.go's scrapedNames literal, so
// this test follows the bench's list without a copy to keep in sync.
func benchScrapedNames(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("bench", "daemon.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "scrapedNames" || len(vs.Values) != 1 {
			return true
		}
		lit, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			t.Fatalf("scrapedNames is not a composite literal")
		}
		for _, e := range lit.Elts {
			bl, ok := e.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				t.Fatalf("scrapedNames element %T is not a string literal", e)
			}
			s, err := strconv.Unquote(bl.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, s)
		}
		return false
	})
	if len(names) == 0 {
		t.Fatal("no scrapedNames literal in bench/daemon.go")
	}
	return names
}

// TestMetricsExposeBenchFamilies is tier-1's guard for the bench's
// /metrics contract: a daemon with one tenant that has ingested one
// batch must expose every family bench/daemon.go scrapes. Without it a
// renamed or dropped family surfaces only when the benchmark runs.
func TestMetricsExposeBenchFamilies(t *testing.T) {
	want := benchScrapedNames(t)

	modelDir := t.TempDir()
	mf, err := os.Create(filepath.Join(modelDir, "acme.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.ModelFor(logging.Spark).Save(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{ModelDir: modelDir, DefaultFramework: logging.Spark})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := &server.Client{Base: hs.URL, Tenant: "acme"}
	recs := []logging.Record{{
		Time:      time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC),
		Level:     logging.Info,
		Source:    "BlockManager",
		Message:   "Registering block manager 10.0.0.1",
		Framework: logging.Spark,
		SessionID: "sess-a",
	}}
	if _, err := c.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	exposed := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		exposed[name] = true
	}
	for _, name := range want {
		if !exposed[name] {
			t.Errorf("/metrics does not expose %s, which bench/daemon.go scrapes", name)
		}
	}
}
