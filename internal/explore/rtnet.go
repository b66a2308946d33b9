package explore

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"plwg/internal/check"
	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/rtnet"
	"plwg/internal/trace"
)

// Real-network schedule runner: the same chaos schedules the simulated
// runner (Run) executes, but driven against live rtnet Nodes talking real
// UDP on the loopback, with the transport taking the schedule's fault spec
// and partitions as link Block rules. Runs are NOT deterministic — the
// kernel scheduler and the real clock interleave frames — but the fault
// decisions themselves are seeded per node, and a schedule that fails here
// is still replayable: the reproducer embeds the fault spec
// (Schedule.Faults) and `lwgcheck -rtnet -replay` re-runs it.

// RTOptions configures real-network schedule execution.
type RTOptions struct {
	// Scale converts the schedule's virtual-time delays to real sleeps
	// (default 0.1: a 500ms virtual gap becomes a 50ms real one).
	Scale float64
	// Quiesce overrides the real-time convergence window (default: the
	// scaled schedule quiescence, floored at 8s so mapping leases orphaned
	// by crashes have time to expire).
	Quiesce time.Duration
}

func (o RTOptions) withDefaults() RTOptions {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	return o
}

func (o RTOptions) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * o.Scale)
}

// staticProc is a point-in-time copy of one endpoint's checkable state,
// taken on the node's protocol loop before shutdown so the checker can
// read it without racing live protocol goroutines.
type staticProc struct {
	lwgs  []ids.LWGID
	views map[ids.LWGID]ids.View
	maps  map[ids.LWGID]ids.HWGID
}

var _ check.Process = (*staticProc)(nil)

func (p *staticProc) LWGs() []ids.LWGID { return p.lwgs }

func (p *staticProc) LWGView(l ids.LWGID) (ids.View, bool) {
	v, ok := p.views[l]
	return v, ok
}

func (p *staticProc) Mapping(l ids.LWGID) (ids.HWGID, bool) {
	h, ok := p.maps[l]
	return h, ok
}

func snapshotProc(n *rtnet.Node) *staticProc {
	sp := &staticProc{
		views: make(map[ids.LWGID]ids.View),
		maps:  make(map[ids.LWGID]ids.HWGID),
	}
	n.Do(func(ep *core.Endpoint) {
		for _, l := range ep.LWGs() {
			sp.lwgs = append(sp.lwgs, l)
			if v, ok := ep.LWGView(l); ok {
				sp.views[l] = v
			}
			if h, ok := ep.Mapping(l); ok {
				sp.maps[l] = h
			}
		}
	})
	return sp
}

// blockRule is the shared one-way partition rule; rules are read-only once
// installed, so aliasing one value across links is safe.
var blockRule = &faults.Rule{Block: true}

// RunRT executes the schedule against a live loopback cluster and checks
// the same safety properties as Run. Partitions become asymmetric Block
// rules: the cut index picks the direction (cut%3 == 0 blocks both ways,
// 1 blocks only low→high, 2 blocks only high→low), so every sweep
// exercises one-way partitions — the failure mode a simulated symmetric
// SetPartitions can never produce.
func RunRT(s Schedule, o RTOptions) (Result, error) {
	o = o.withDefaults()
	baseFS, err := faults.Parse(s.Faults)
	if err != nil {
		return Result{}, err
	}

	rec := &trace.SyncRecorder{}
	svcCfg := core.DefaultConfig()
	svcCfg.PolicyInterval = time.Hour // policy runs only via OpPolicy
	// Short mapping leases so mappings orphaned by crashed views expire
	// within the real-time quiescence window.
	svcCfg.MappingRefreshInterval = time.Second
	nsCfg := naming.Config{MappingTTL: 3 * time.Second}

	serverPids := s.Servers()
	nodes := make(map[ids.ProcessID]*rtnet.Node, s.Nodes)
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	addrs := make(map[ids.ProcessID]string, s.Nodes)
	for i := 0; i < s.Nodes; i++ {
		pid := ids.ProcessID(i)
		n, err := rtnet.Listen(rtnet.NodeConfig{
			PID:         pid,
			Listen:      "127.0.0.1:0",
			NameServers: serverPids,
			Service:     svcCfg,
			Naming:      nsCfg,
			Tracer:      rec,
			Seed:        s.Seed*1009 + int64(i),
		})
		if err != nil {
			closeAll()
			return Result{}, fmt.Errorf("rtnet node %d: %w", i, err)
		}
		nodes[pid] = n
		addrs[pid] = n.Addr().String()
	}
	crashed := make(map[ids.ProcessID]bool)
	live := func() []ids.ProcessID {
		var out []ids.ProcessID
		for i := 0; i < s.Nodes; i++ {
			if p := ids.ProcessID(i); !crashed[p] {
				out = append(out, p)
			}
		}
		return out
	}
	installBase := func() {
		for _, p := range live() {
			nodes[p].SetFaults(baseFS)
		}
	}
	for i := 0; i < s.Nodes; i++ {
		pid := ids.ProcessID(i)
		if err := nodes[pid].SetPeers(addrs); err != nil {
			closeAll()
			return Result{}, err
		}
		nodes[pid].SetFaults(baseFS)
		if err := nodes[pid].Start(); err != nil {
			closeAll()
			return Result{}, fmt.Errorf("rtnet node %d start: %w", i, err)
		}
	}

	isServer := make(map[ids.ProcessID]bool)
	for _, p := range serverPids {
		isServer[p] = true
	}
	memberOf := make(map[ids.LWGID]map[ids.ProcessID]bool)
	for _, l := range s.LWGs {
		memberOf[l] = make(map[ids.ProcessID]bool)
	}
	known := func(l ids.LWGID) bool { return memberOf[l] != nil }

	msgID := 0
	for _, op := range s.Ops {
		time.Sleep(o.scale(op.Delay))
		switch op.Kind {
		case OpJoin:
			if p := op.P; nodes[p] != nil && known(op.LWG) && !crashed[p] && !memberOf[op.LWG][p] {
				lwg := op.LWG
				nodes[p].Do(func(ep *core.Endpoint) {
					if err := ep.Join(lwg); err == nil {
						memberOf[lwg][p] = true
					}
				})
			}
		case OpLeave:
			if p := op.P; nodes[p] != nil && known(op.LWG) && !crashed[p] && memberOf[op.LWG][p] {
				lwg := op.LWG
				nodes[p].Do(func(ep *core.Endpoint) { _ = ep.Leave(lwg) })
				delete(memberOf[op.LWG], p)
			}
		case OpSend:
			if p := op.P; nodes[p] != nil && known(op.LWG) && !crashed[p] && memberOf[op.LWG][p] {
				msgID++
				lwg, pay := op.LWG, fmt.Sprintf("m%d", msgID)
				nodes[p].Do(func(ep *core.Endpoint) { _ = ep.Send(lwg, []byte(pay)) })
			}
		case OpPart:
			if op.Cut > 0 && op.Cut < s.Nodes {
				// Replace (not stack) any previous partition, matching the
				// simulated SetPartitions semantics.
				installBase()
				dir := op.Cut % 3
				for _, a := range live() {
					for _, b := range live() {
						lowHigh := int(a) < op.Cut && int(b) >= op.Cut
						highLow := int(a) >= op.Cut && int(b) < op.Cut
						if (lowHigh && dir != 2) || (highLow && dir != 1) {
							nodes[a].SetLinkFault(b, blockRule)
						}
					}
				}
			}
		case OpHeal:
			installBase()
		case OpCrash:
			if p := op.P; nodes[p] != nil && int(p) < s.Nodes && !isServer[p] && !crashed[p] {
				nodes[p].Close()
				crashed[p] = true
				for _, l := range s.LWGs {
					delete(memberOf[l], p)
				}
			}
		case OpPolicy:
			for _, p := range live() {
				nodes[p].Do(func(ep *core.Endpoint) { ep.RunPolicyNow() })
			}
		}
	}

	// Quiesce: heal all partitions but keep the base faults for a stress
	// window, then run the tail fault-free so reconciliation, anti-entropy
	// and lease expiry can finish on a clean network (the real-time
	// equivalent of the simulated runner's final Heal).
	quiesce := o.Quiesce
	if quiesce <= 0 {
		quiesce = o.scale(s.Quiesce)
		if quiesce < 8*time.Second {
			quiesce = 8 * time.Second
		}
	}
	stress := 2 * time.Second
	if stress > quiesce/2 {
		stress = quiesce / 2
	}
	installBase()
	time.Sleep(stress)
	for _, p := range live() {
		nodes[p].SetFaults(nil)
	}
	time.Sleep(quiesce - stress)

	expected := expectedMembers(memberOf)

	buildWorld := func() *check.World {
		procs := make(map[ids.ProcessID]check.Process)
		dbs := make(map[ids.ProcessID]*naming.DB)
		for _, p := range live() {
			procs[p] = snapshotProc(nodes[p])
			if db := nodes[p].NamingDBSnapshot(); db != nil {
				dbs[p] = db
			}
		}
		return &check.World{
			Events:   injectFault(rec.Snapshot(), s.Fault),
			Procs:    procs,
			Servers:  dbs,
			Expected: expected,
			Crashed:  crashed,
		}
	}

	// The fixed window above is the minimum: if the checks already pass,
	// the run is done. If not, poll within a bounded grace period before
	// declaring failure. Wall-clock sleeps measure elapsed time, not
	// protocol progress — under CPU contention (parallel sweeps on few
	// cores) a correctly converging cluster can overrun the window while
	// its goroutines are starved, and checking the snapshot once at the
	// bell turns scheduler noise into flaky failures. A real wedge still
	// fails: it stays wedged past the grace deadline too.
	world := buildWorld()
	violations := check.Run(world)
	for deadline := time.Now().Add(quiesce); len(violations) > 0 && time.Now().Before(deadline); {
		time.Sleep(500 * time.Millisecond)
		world = buildWorld()
		violations = check.Run(world)
	}
	closeAll()

	return Result{
		Completed:  true,
		World:      world,
		Violations: violations,
	}, nil
}

// SweepRT runs real-network schedules for seeds start..start+count-1, up
// to par at a time, and returns the failing ones (ordered by seed).
// report, when non-nil, is called once per seed under a lock. Random
// stamps the sweep's fault spec (g.Faults) into each schedule, so printed
// reproducers are self-contained.
func SweepRT(start int64, count int, g GenConfig, o RTOptions, par int, report func(seed int64, r Result)) ([]Schedule, error) {
	o = o.withDefaults()
	if _, err := faults.Parse(g.Faults); err != nil {
		return nil, err
	}
	if par < 1 {
		par = 1
	}
	var (
		mu      sync.Mutex
		failing []Schedule
		wg      sync.WaitGroup
		sem     = make(chan struct{}, par)
	)
	for seed := start; seed < start+int64(count); seed++ {
		seed := seed
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			s := Random(seed, g)
			r, err := RunRT(s, o)
			if err != nil {
				// The spec was validated above; a run error here is an
				// environment failure (socket exhaustion) — surface it as
				// an incomplete run.
				r = Result{}
			}
			mu.Lock()
			defer mu.Unlock()
			if report != nil {
				report(seed, r)
			}
			if r.Failed() {
				failing = append(failing, s)
			}
		}()
	}
	wg.Wait()
	sort.Slice(failing, func(i, j int) bool { return failing[i].Seed < failing[j].Seed })
	return failing, nil
}
