package plwg

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the benchmark/ module, which has
// its own go.mod and so is not built by `go build ./...` here, although
// it imports this module's internal packages: a PR that renames or
// deletes something it uses must fail tier-1, not the next benchmark
// run. The environment is the one benchmark/run.sh builds under.
func TestBenchmarkModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
