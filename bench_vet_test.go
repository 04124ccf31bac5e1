package intellog

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the bench/ module against this tree.
// bench/ is its own module (replace intellog => ../), so `go test ./...`
// from the root never compiles it; without this an internal rename breaks
// the benchmark run instead of tier-1.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "bench"
	// -mod=mod resolves the replace without a vendor dir or go.sum;
	// GOPROXY=off keeps a broken requirement a compile error, never a fetch.
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
