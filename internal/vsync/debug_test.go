package vsync

import (
	"os"
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// TestDebugConvergence is a scaffolding test used while developing the
// protocol; enable with VSYNC_DEBUG=1 to dump a full trace of the
// six-singleton merge storm.
func TestDebugConvergence(t *testing.T) {
	if os.Getenv("VSYNC_DEBUG") == "" {
		t.Skip("set VSYNC_DEBUG=1 to run")
	}
	s := sim.New(1)
	nw := netsim.New(s, netsim.DefaultParams())
	rec := &trace.Recorder{}
	stacks := make(map[ids.ProcessID]*Stack)
	for i := 0; i < 6; i++ {
		pid := ids.ProcessID(i)
		st := NewStack(Params{Net: nw, PID: pid, Tracer: rec})
		mux := netsim.NewMux()
		mux.Handle(AddrPrefix, st.HandleMessage)
		nw.AddNode(pid, mux.Handler())
		stacks[pid] = st
	}
	for i := 0; i < 6; i++ {
		if err := stacks[ids.ProcessID(i)].Join(g1); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(6 * time.Second)
	t.Log("\n" + rec.Dump())
	for pid, st := range stacks {
		v, ok := st.CurrentView(g1)
		t.Logf("%v: view=%v ok=%v", pid, v, ok)
	}
}
