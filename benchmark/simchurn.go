package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"plwg"
	"plwg/internal/check"
	"plwg/internal/ids"
	"plwg/internal/trace"
)

// sim-churn drives the control plane on the virtual clock through the
// root plwg API only. One cycle is the paper's story end to end: the
// Figure 2 topology forms (sets A={0..3} and B={4..7}, churnPerSet
// groups each), carries Poisson background traffic, is cut in two with
// the spare nodes founding the same groups on both sides (conflicting
// mappings), heals, and loses node 3. Virtual-time results are exact
// per seed; wall time per virtual second prices core+vsync+naming+netsim
// with no sockets in the way.
const (
	churnNodes   = 12
	churnPerSet  = 8
	churnRate    = 100.0 // background msgs/s per set
	churnPayload = 1024
	churnWaitMax = 60 * time.Second // virtual; a control operation slower than this has failed
	// churnCyclesPerSecond turns --seconds into a fixed number of
	// cycles (one cycle takes about 0.14 s of wall time on the sizing
	// host), so that the virtual-time results depend on the seed and
	// the run length only, never on how fast the host is.
	churnCyclesPerSecond = 5
)

var (
	churnSideX = []int{0, 1, 4, 5, 8, 9}
	churnSideY = []int{2, 3, 6, 7, 10, 11}
)

func churnCycles(seconds int) int {
	if n := int(float64(seconds) * churnCyclesPerSecond); n > 1 {
		return n
	}
	return 1
}

// churnGroup is one light-weight group of the cycle.
type churnGroup struct {
	name    plwg.GroupName
	set     int // 0 = A, 1 = B, 2 = C (founded on both sides of the partition)
	members []int
	handles map[int]*plwg.Group
	// view is each member's current view.
	view map[int]plwg.View
	// joinAt is when each member called Join; fullAt when it first held
	// a view of every member.
	joinAt, fullAt map[int]time.Duration
}

// agendaItem is a closure due at a virtual instant. The plwg API has no
// timers, so the cycle keeps its own agenda and advances the cluster
// from one due item to the next.
type agendaItem struct {
	at  time.Duration
	seq int
	fn  func()
}

type agenda []agendaItem

func (a agenda) Len() int { return len(a) }
func (a agenda) Less(i, j int) bool {
	return a[i].at < a[j].at || a[i].at == a[j].at && a[i].seq < a[j].seq
}
func (a agenda) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *agenda) Push(x any)   { *a = append(*a, x.(agendaItem)) }
func (a *agenda) Pop() any {
	old := *a
	it := old[len(old)-1]
	*a = old[:len(old)-1]
	return it
}

// churnCycle is one cluster lifetime.
type churnCycle struct {
	c      *plwg.Cluster
	rng    *rand.Rand
	groups []*churnGroup
	agenda agenda
	seq    int
	live   [churnNodes]bool

	// pending is the condition the cycle is waiting for; metAt is when
	// it first held (stamped inside the OnView callback that made it
	// true, or at the next millisecond for conditions on mappings).
	pending func() bool
	met     bool
	metAt   time.Duration

	traffic   bool
	sent      []bool // by message id: delivered to at least one remote member
	delivered int64
	lat       *hist
	// bystander collects set-B delivery latency while set A recovers
	// from the crash.
	bystanderOpen bool
	bystander     *hist

	attempted, failed int64
}

func (cy *churnCycle) at(t time.Duration, fn func()) {
	cy.seq++
	heap.Push(&cy.agenda, agendaItem{t, cy.seq, fn})
}

// run advances virtual time, executing agenda items as they fall due,
// until cond holds (true) or limit has passed (false). A nil cond just
// lets limit pass.
func (cy *churnCycle) run(cond func() bool, limit time.Duration) bool {
	cy.pending, cy.met = cond, false
	defer func() { cy.pending = nil }()
	deadline := cy.c.Now() + limit
	for {
		cy.check()
		if cy.met {
			return true
		}
		now := cy.c.Now()
		if now >= deadline {
			return cond == nil
		}
		next := deadline
		if len(cy.agenda) > 0 && cy.agenda[0].at < next {
			next = cy.agenda[0].at
		}
		if cond != nil && now+time.Millisecond < next {
			next = now + time.Millisecond
		}
		if next > now {
			cy.c.Run(next - now)
		}
		for len(cy.agenda) > 0 && cy.agenda[0].at <= cy.c.Now() {
			heap.Pop(&cy.agenda).(agendaItem).fn()
		}
	}
}

// check stamps the instant the pending condition first holds.
func (cy *churnCycle) check() {
	if cy.pending != nil && !cy.met && cy.pending() {
		cy.met, cy.metAt = true, cy.c.Now()
	}
}

func (cy *churnCycle) join(g *churnGroup, node int) {
	h, err := cy.c.Process(node).Join(g.name)
	cy.attempted++
	if err != nil {
		cy.failed++
		return
	}
	g.handles[node] = h
	g.joinAt[node] = cy.c.Now()
	h.OnView(func(v plwg.View) {
		g.view[node] = v
		if _, ok := g.fullAt[node]; !ok && len(v.Members) == len(g.members) {
			g.fullAt[node] = cy.c.Now()
		}
		cy.check()
	})
	h.OnData(func(src plwg.ProcessID, data []byte) {
		if int(src) == node || len(data) < hdrLen {
			return
		}
		d := int64(cy.c.Now()) - int64(binary.LittleEndian.Uint64(data))
		id := binary.LittleEndian.Uint64(data[8:])
		if !cy.sent[id] {
			cy.sent[id] = true
			cy.delivered++
		}
		cy.lat.add(d)
		if cy.bystanderOpen && g.set == 1 {
			cy.bystander.add(d)
		}
	})
}

// found schedules the group's joins from t on: the creator first, the
// others half a second later. Joining all at once would found one
// heavy-weight group per process and group and leave the policy to
// collapse them.
func (cy *churnCycle) found(g *churnGroup, t time.Duration) {
	cy.at(t, func() { cy.join(g, g.members[0]) })
	for i, m := range g.members[1:] {
		m := m
		cy.at(t+500*time.Millisecond+time.Duration(i)*5*time.Millisecond, func() { cy.join(g, m) })
	}
}

// arrive sends one background message on a random group of the set from
// a random live member, and schedules the set's next arrival.
func (cy *churnCycle) arrive(set int) {
	if !cy.traffic {
		return
	}
	g := cy.groups[set*churnPerSet+cy.rng.Intn(churnPerSet)]
	sender := g.members[cy.rng.Intn(len(g.members))]
	for !cy.live[sender] {
		sender = g.members[cy.rng.Intn(len(g.members))]
	}
	data := make([]byte, churnPayload)
	binary.LittleEndian.PutUint64(data, uint64(cy.c.Now()))
	binary.LittleEndian.PutUint64(data[8:], uint64(len(cy.sent)))
	cy.sent = append(cy.sent, false)
	if err := g.handles[sender].Send(data); err != nil {
		cy.failed++
	}
	gap := time.Duration(cy.rng.ExpFloat64() / churnRate * float64(time.Second))
	cy.at(cy.c.Now()+gap, func() { cy.arrive(set) })
}

// sameView reports whether the given members of g all hold one view
// whose membership is exactly those members.
func sameView(g *churnGroup, members []int) bool {
	ref, ok := g.view[members[0]]
	if !ok || len(ref.Members) != len(members) {
		return false
	}
	for _, m := range members {
		if v, ok := g.view[m]; !ok || v.ID != ref.ID || !ref.Members.Contains(ids.ProcessID(m)) {
			return false
		}
	}
	return true
}

// oneMapping reports whether the given members of g agree on the
// heavy-weight group it is mapped on.
func (cy *churnCycle) oneMapping(g *churnGroup, members []int) bool {
	ref, ok := cy.c.Process(members[0]).Mapping(g.name)
	if !ok {
		return false
	}
	for _, m := range members[1:] {
		if h, ok := cy.c.Process(m).Mapping(g.name); !ok || h != ref {
			return false
		}
	}
	return true
}

func side(members, of []int) []int {
	var out []int
	for _, m := range members {
		for _, o := range of {
			if m == o {
				out = append(out, m)
			}
		}
	}
	return out
}

// churnSample is what one cycle measured. Durations are virtual unless
// named wall.
type churnSample struct {
	setupWall           time.Duration
	joins               []float64 // ms
	split, heal, crash  float64   // ms; NaN when not converged
	frames, msgs        int64
	virtual, wall       time.Duration
	cpu, stolen         time.Duration // process CPU time and hypervisor steal over wall
	attempted, failed   int64
	lat, bystander      *hist
	violations          []string
	events              []trace.Event
	checkWall           time.Duration
	ctrlBytes, allBytes int64
}

// runChurnCycle runs one cycle. With traced set the cluster records its
// protocol trace and check.Run judges it at the end.
func runChurnCycle(seed int64, traced bool) churnSample {
	wallStart, cpuStart := time.Now(), cpuTime()
	stolenStart, _ := stolen()
	var cfg plwg.Config
	cfg.Nodes, cfg.NameServers, cfg.Seed = churnNodes, []int{0, 2}, seed
	cfg.Service.PolicyInterval = 10 * time.Second
	cfg.CollectTrace = traced
	c, err := plwg.NewCluster(cfg)
	if err != nil {
		return churnSample{attempted: 1, failed: 1, violations: []string{err.Error()}}
	}
	cy := &churnCycle{c: c, rng: rand.New(rand.NewSource(seed)), lat: new(hist), bystander: new(hist)}
	for i := range cy.live {
		cy.live[i] = true
	}
	newGroup := func(set int, name string, members []int) *churnGroup {
		g := &churnGroup{
			name: plwg.GroupName(name), set: set, members: members,
			handles: make(map[int]*plwg.Group), view: make(map[int]plwg.View),
			joinAt: make(map[int]time.Duration), fullAt: make(map[int]time.Duration),
		}
		cy.groups = append(cy.groups, g)
		return g
	}
	for set, members := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i := 1; i <= churnPerSet; i++ {
			newGroup(set, fmt.Sprintf("%c%d", 'a'+set, i), members)
		}
	}
	out := churnSample{lat: cy.lat, bystander: cy.bystander}
	fail := func(format string, args ...any) {
		cy.failed++
		out.violations = append(out.violations, fmt.Sprintf("seed %d: ", seed)+fmt.Sprintf(format, args...))
	}

	// 1. The Figure 2 topology forms.
	ab := cy.groups
	for gi, g := range ab {
		cy.found(g, time.Duration(gi)*20*time.Millisecond)
	}
	allFull := func(groups []*churnGroup) func() bool {
		return func() bool {
			for _, g := range groups {
				if !sameView(g, g.members) {
					return false
				}
			}
			return true
		}
	}
	if !cy.run(allFull(ab), churnWaitMax) {
		fail("sets A and B did not form within %v", churnWaitMax)
	}
	out.setupWall = time.Since(wallStart)
	cy.run(nil, 500*time.Millisecond)

	// 2. Steady background traffic.
	cy.traffic = true
	cy.arrive(0)
	cy.arrive(1)
	cy.run(nil, 2*time.Second)

	// 3. Partition; the spare nodes found c1..c8 on both sides.
	splitAt := c.Now()
	c.Partition(churnSideX, churnSideY)
	cy.attempted++
	for i := 1; i <= churnPerSet; i++ {
		g := newGroup(2, fmt.Sprintf("c%d", i), []int{8, 9, 10, 11})
		t := splitAt + 100*time.Millisecond + time.Duration(i)*20*time.Millisecond
		cy.at(t, func() { cy.join(g, 8); cy.join(g, 10) })
		cy.at(t+500*time.Millisecond, func() { cy.join(g, 9); cy.join(g, 11) })
	}
	split := func(groups []*churnGroup) func() bool {
		return func() bool {
			for _, g := range groups {
				if !sameView(g, side(g.members, churnSideX)) || !sameView(g, side(g.members, churnSideY)) {
					return false
				}
			}
			return true
		}
	}
	out.split = nan
	if cy.run(split(ab), churnWaitMax) {
		out.split = ms(cy.metAt - splitAt)
	} else {
		fail("the sides did not install their views within %v of the partition", churnWaitMax)
	}
	if !cy.run(split(cy.groups), churnWaitMax) {
		fail("the spare nodes did not found c1..c%d on both sides", churnPerSet)
	}
	cy.run(nil, time.Second)

	// 4. Heal: every group back to one view of all its members on one
	// agreed heavy-weight group.
	healAt := c.Now()
	c.Heal()
	cy.attempted++
	healed := func() bool {
		for _, g := range cy.groups {
			if !sameView(g, g.members) || !cy.oneMapping(g, g.members) {
				return false
			}
		}
		return true
	}
	out.heal = nan
	if cy.run(healed, churnWaitMax) {
		out.heal = ms(cy.metAt - healAt)
	} else {
		fail("not every group had one view and one mapping within %v of the heal", churnWaitMax)
	}
	cy.run(nil, time.Second)

	// 5. Node 3 crashes; set B is the bystander.
	crashAt := c.Now()
	c.Crash(3)
	cy.live[3] = false
	cy.attempted++
	cy.bystanderOpen = true
	survivors := []int{0, 1, 2}
	recovered := func() bool {
		for _, g := range ab[:churnPerSet] {
			if !sameView(g, survivors) {
				return false
			}
		}
		return true
	}
	out.crash = nan
	if cy.run(recovered, churnWaitMax) {
		out.crash = ms(cy.metAt - crashAt)
	} else {
		fail("set A did not exclude node 3 within %v of its crash", churnWaitMax)
	}
	cy.bystanderOpen = false
	cy.traffic = false
	cy.run(nil, 500*time.Millisecond)

	// The end state: one view and one mapping per group among the
	// living.
	for _, g := range cy.groups {
		members := g.members
		if g.set == 0 {
			members = survivors
		}
		if !sameView(g, members) || !cy.oneMapping(g, members) {
			fail("group %s ends without one view and one mapping", g.name)
		}
	}
	for _, g := range cy.groups {
		for _, m := range g.members[1:] {
			if at, ok := g.fullAt[m]; ok {
				out.joins = append(out.joins, ms(at-g.joinAt[m]))
			} else {
				cy.failed++
			}
		}
	}
	st := c.NetStats()
	out.frames, out.msgs = st.Frames, cy.delivered
	out.allBytes, out.ctrlBytes = st.Bytes, st.Bytes-st.BytesByKind["data"]
	out.virtual, out.wall, out.cpu = c.Now(), time.Since(wallStart), cpuTime()-cpuStart
	stolenEnd, _ := stolen()
	out.stolen = stolenEnd - stolenStart
	out.attempted, out.failed = cy.attempted, cy.failed

	if traced {
		out.events = c.Trace().Events
		w := &check.World{
			Events:   out.events,
			Procs:    make(map[ids.ProcessID]check.Process),
			Expected: make(map[ids.LWGID]ids.Members),
			Crashed:  map[ids.ProcessID]bool{3: true},
		}
		for n := 0; n < churnNodes; n++ {
			if cy.live[n] {
				w.Procs[ids.ProcessID(n)] = churnProc{cy, n}
			}
		}
		for _, g := range cy.groups {
			var ms []ids.ProcessID
			for _, m := range g.members {
				if cy.live[m] {
					ms = append(ms, ids.ProcessID(m))
				}
			}
			w.Expected[g.name] = ids.NewMembers(ms...)
		}
		t0 := time.Now()
		for _, v := range check.Run(w) {
			out.failed++
			out.violations = append(out.violations, fmt.Sprintf("seed %d: check: %s", seed, v))
		}
		out.checkWall = time.Since(t0)
	}
	return out
}

// churnProc shows one plwg.Process to the invariant checker.
type churnProc struct {
	cy   *churnCycle
	node int
}

func (p churnProc) LWGs() []ids.LWGID { return p.cy.c.Process(p.node).Groups() }

func (p churnProc) LWGView(l ids.LWGID) (ids.View, bool) {
	for _, g := range p.cy.groups {
		if g.name == l {
			if h := g.handles[p.node]; h != nil {
				return h.View()
			}
		}
	}
	return ids.View{}, false
}

func (p churnProc) Mapping(l ids.LWGID) (ids.HWGID, bool) {
	return p.cy.c.Process(p.node).Mapping(l)
}

var nan = math.NaN()

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runSimChurn runs the cycles of one sim-churn run (seeds seed*1000 +
// cycle) and reports them in the shared vocabulary: messages are the
// background traffic, latency is virtual, rates and CPU are per wall
// second of simulation.
func runSimChurn(seed int64, seconds int, traced bool) *Result {
	res := newResult("sim-churn")
	res.Traced = traced
	cycles := churnCycles(seconds)
	var (
		setups, joins, splits, heals, crashes []float64
		rates, cpus, walls                    []float64       // per cycle
		stolenBy, cycleWalls                  []time.Duration // per cycle: hypervisor steal, wall time
		frames, msgs                          int64
		checkWall                             time.Duration
		lat, bystander                        = new(hist), new(hist)
		events                                = make(map[string]int)
		flushes                               []float64
		ctrlBytes, allBytes                   int64
	)
	for cycle := 0; cycle < cycles; cycle++ {
		s := runChurnCycle(seed*1000+int64(cycle), traced)
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, v := range s.violations {
			res.violate("%s", v)
		}
		if s.lat == nil {
			continue
		}
		setups = append(setups, s.setupWall.Seconds())
		joins = append(joins, s.joins...)
		converged := func(to *[]float64, v float64) {
			if !math.IsNaN(v) {
				*to = append(*to, v)
			}
		}
		converged(&splits, s.split)
		converged(&heals, s.heal)
		converged(&crashes, s.crash)
		frames, msgs, checkWall = frames+s.frames, msgs+s.msgs, checkWall+s.checkWall
		if s.msgs > 0 {
			rates = append(rates, float64(s.msgs)/s.wall.Seconds())
			cpus = append(cpus, float64(s.cpu.Microseconds())/float64(s.msgs))
			walls = append(walls, ms(s.wall)/s.virtual.Seconds())
			stolenBy, cycleWalls = append(stolenBy, s.stolen), append(cycleWalls, s.wall)
		}
		ctrlBytes, allBytes = ctrlBytes+s.ctrlBytes, allBytes+s.allBytes
		lat.merge(s.lat)
		bystander.merge(s.bystander)
		flushStart := make(map[string]time.Duration)
		for _, e := range s.events {
			events[e.What]++
			if e.What == trace.LWGMergeStep && e.Step == 4 {
				events["merge"]++
			}
			key := fmt.Sprintf("%v/%s/%s", e.Node, e.Group, e.Ref)
			switch e.What {
			case trace.HWGFlushStart:
				flushStart[key] = e.At.Duration()
			case trace.HWGFlushDone:
				if t, ok := flushStart[key]; ok {
					flushes = append(flushes, ms(e.At.Duration()-t))
				}
			}
		}
	}
	// Cycles the hypervisor stole from are set aside.
	keep, limit := undisturbed(stolenBy, cycleWalls)
	noteStolen(res, "bench.cycles_stolen", "cycles", keep, limit)
	kept := func(xs []float64) []float64 {
		var out []float64
		for i, x := range xs {
			if keep[i] {
				out = append(out, x)
			}
		}
		return out
	}
	rates, cpus, walls = kept(rates), kept(cpus), kept(walls)

	if !traced {
		res.setQuartiles("setup_s", "s", setups)
		res.setQuartiles("delivered_msgs_per_s", "msgs/s", rates)
		res.setRange("oneway_p50_ms", "ms", lat.quantile(0.5)/1e6, lat.n, lat.quantile(0.25)/1e6, lat.quantile(0.75)/1e6)
		res.set("oneway_p99_ms", "ms", lat.quantile(0.99)/1e6, lat.n)
		res.setQuartiles("cpu_us_per_msg", "us", cpus)
		res.note("latencies are virtual milliseconds on the simulated 10 Mbps bus; rates and CPU are per wall second of simulation, medians over %d of %d cycles",
			len(rates), cycles)
	}
	// The control plane's own numbers are per-layer metrics: the rt
	// workloads cannot report them, and the contract wants every
	// end-to-end metric from every workload.
	perCycle := func(what string) float64 { return float64(events[what]) / float64(cycles) }
	res.setQuartiles("sim.join_p50_ms", "ms", joins)
	res.setQuartiles("sim.split_converge_ms", "ms", splits)
	res.setQuartiles("sim.heal_converge_ms", "ms", heals)
	res.setQuartiles("sim.crash_recover_ms", "ms", crashes)
	res.set("sim.bystander_p99_ms", "ms", bystander.quantile(0.99)/1e6, bystander.n)
	res.set("sim.bus_frames_per_msg", "ratio", float64(frames)/float64(msgs), msgs)
	res.setQuartiles("sim.wall_ms_per_virtual_s", "ms", walls)
	res.set("netsim.ctrl_bytes_share", "ratio", float64(ctrlBytes)/float64(allBytes), allBytes)
	if traced {
		res.set("core.view_installs_per_cycle", "count", perCycle(trace.LWGViewInstall), int64(cycles))
		res.set("core.switches_per_cycle", "count", perCycle(trace.LWGSwitch), int64(cycles))
		res.set("core.merges_per_cycle", "count", perCycle("merge"), int64(cycles))
		res.set("core.flush_rounds_per_cycle", "count", perCycle("lwg-flush"), int64(cycles))
		res.set("core.preinstall_drops", "count", float64(events[trace.LWGPreInstallDrop]), int64(cycles))
		res.set("vsync.hwg_view_installs_per_cycle", "count", perCycle(trace.HWGViewInstall), int64(cycles))
		res.setQuartiles("vsync.flush_p50_ms", "ms", flushes)
		res.set("check.run_ms", "ms", ms(checkWall)/float64(cycles), int64(cycles))
	}
	return res
}
