package recycle_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds vets the benchmark module in bench/ (module
// recycle/bench). prbench compiles against this module's internal types —
// core.Header and core.Config, dataplane.Packet, graph.SPTree — yet
// `go test ./...` here never builds it, so a change to one of them would
// pass here and fail only when the benchmark runs.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(gotool, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
