package plwg

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"plwg/internal/bench"
	"plwg/internal/cluster"
	"plwg/internal/core"
	"plwg/internal/explore"
	"plwg/internal/naming"
	"plwg/internal/rtnet"
)

var update = flag.Bool("update", false, "rewrite the goldens: testdata/config_surface.golden and EXPERIMENTS.md's Figure 2 tables")

// TestConfigSurface makes "zero new options" something a machine sees:
// every exported field of the configuration structs — each one a value a
// caller can set independently — is listed in
// testdata/config_surface.golden, so a change that adds a knob has to
// edit a file named for it (-update), and a review sees the count move.
func TestConfigSurface(t *testing.T) {
	var lines []string
	for _, cfg := range []any{
		Config{}, cluster.Config{}, core.Config{}, naming.Config{},
		rtnet.NodeConfig{}, explore.EnumConfig{}, bench.Options{},
	} {
		typ := reflect.TypeOf(cfg)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				lines = append(lines, fmt.Sprintf("%s.%s %s", typ, f.Name, f.Type))
			}
		}
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	const path = "testdata/config_surface.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the configuration surface differs from %s — an option was added, removed or retyped "+
			"(run with -update if meant, and say why in CHANGES.md):\n%s", path, got)
	}
}
