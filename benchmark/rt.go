package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"plwg/internal/core"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/rtnet"
	"plwg/internal/trace"
)

// The rt workloads run the full stack over loopback UDP: rtNodes
// in-process rtnet.Nodes on 127.0.0.1, node 0 the only name server,
// every protocol config at its default. Nodes 0 and 1 generate load,
// node 2 only receives.
const (
	rtNodes      = 3
	rtGenerators = 2
	rtWarmup     = time.Second
	rtDrainMax   = 2 * time.Second
	rtSetupReps  = 15
	// rtRepeatMax is how many times a run repeats a disturbed measure
	// window before the disturbance counts as the system's failure.
	rtRepeatMax = 2
	// hdrLen is the benchmark's payload header: the message's time
	// origin (due time in the open loop, Send time in the closed loop)
	// as an offset from the process-wide base, then the sender's
	// sequence number.
	hdrLen = 16
	// spanEvery is the span sampling interval of the traced run.
	spanEvery = 64
)

// rtSpec is the shape of one rt workload.
type rtSpec struct {
	groups  int
	payload int
	// rate is the open-loop arrival rate per generator (msgs/s); zero
	// makes the workload a closed loop of window messages per generator.
	rate   float64
	window int
}

var rtSpecs = map[string]rtSpec{
	"rt-paced":      {groups: 1, payload: 1024, rate: 2000},
	"rt-saturate":   {groups: 1, payload: 1024, window: 32},
	"rt-manygroups": {groups: 48, payload: 64, window: 64},
}

// base is the process-wide time origin: every timestamp the benchmark
// takes is a monotonic offset from it.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

func groupName(i int) ids.LWGID { return ids.LWGID(fmt.Sprintf("g%02d", i)) }

// rtShared is what the sinks of one cluster share.
type rtShared struct {
	groups int
	// mStart and mEnd bound the measure window; a message belongs to it
	// when its time origin does. Set before the generators start.
	mStart, mEnd int64
	// credits is the closed loop's ack clock, per generator: a remote
	// delivery of a generator's own message returns one credit to it,
	// and a send costs rtNodes-1. Nil in the open loop.
	credits []atomic.Int64
	kick    []chan struct{}
	traced  bool
}

// sink receives one node's upcalls on that node's loop goroutine. The
// data-path fields have that goroutine as their only writer; readers
// take them after a Node.Do barrier.
type sink struct {
	pid ids.ProcessID
	sh  *rtShared

	mu       sync.Mutex
	views    map[ids.LWGID]int   // member count of the latest view
	fullAt   map[ids.LWGID]int64 // offset of the first full view
	installs int                 // View upcalls so far
	lastView string              // the latest view and when, for diagnostics
	viewCh   chan struct{}

	groupIdx  map[ids.LWGID]int
	next      [rtNodes][]uint64 // next expected sequence per (sender, group)
	inOrder   [rtNodes]int64    // deliveries that arrived exactly in turn
	outOfTurn int64             // duplicates, gaps and reorderings
	delivered atomic.Int64
	inWindow  [rtNodes]int64
	perSec    []hist // one-way latency by second of the measure window
	arrivals  []arrival
}

// arrival is one sampled delivery, the end of a stack.transit span.
type arrival struct {
	src ids.ProcessID
	seq uint64
	at  int64
}

func newSink(pid ids.ProcessID, sh *rtShared, seconds int) *sink {
	s := &sink{
		pid:      pid,
		sh:       sh,
		views:    make(map[ids.LWGID]int),
		fullAt:   make(map[ids.LWGID]int64),
		viewCh:   make(chan struct{}, 1),
		groupIdx: make(map[ids.LWGID]int, sh.groups),
		perSec:   make([]hist, seconds),
	}
	for g := 0; g < sh.groups; g++ {
		s.groupIdx[groupName(g)] = g
	}
	for src := range s.next {
		s.next[src] = make([]uint64, sh.groups)
		for g := range s.next[src] {
			s.next[src][g] = uint64(g)
		}
	}
	return s
}

func (s *sink) View(lwg ids.LWGID, v ids.View) {
	at := now()
	s.mu.Lock()
	s.installs++
	s.lastView = fmt.Sprintf("%v at %.3f s", v, float64(at-s.sh.mStart)/1e9)
	s.views[lwg] = len(v.Members)
	if _, ok := s.fullAt[lwg]; !ok && len(v.Members) == rtNodes {
		s.fullAt[lwg] = at
	}
	s.mu.Unlock()
	select {
	case s.viewCh <- struct{}{}:
	default:
	}
}

func (s *sink) Data(lwg ids.LWGID, src ids.ProcessID, data []byte) {
	if src == s.pid || len(data) < hdrLen || int(src) >= rtNodes {
		return
	}
	at := now()
	origin := int64(binary.LittleEndian.Uint64(data))
	seq := binary.LittleEndian.Uint64(data[8:])
	g := 0
	if s.sh.groups > 1 {
		g = s.groupIdx[lwg]
	}
	// Sender sequence numbers go round-robin over the groups, so within
	// one group they advance by the group count: anything else is a
	// duplicate, a loss or a reordering.
	if next := &s.next[src][g]; seq == *next {
		s.inOrder[src]++
		*next = seq + uint64(s.sh.groups)
	} else {
		s.outOfTurn++
		if seq > *next {
			*next = seq + uint64(s.sh.groups)
		}
	}
	s.delivered.Add(1)
	if s.sh.credits != nil {
		s.sh.credits[src].Add(1)
		select {
		case s.sh.kick[src] <- struct{}{}:
		default:
		}
	}
	if origin >= s.sh.mStart && origin < s.sh.mEnd {
		s.inWindow[src]++
		s.perSec[(origin-s.sh.mStart)/int64(time.Second)].add(at - origin)
	}
	if s.sh.traced && seq%spanEvery == 0 {
		s.arrivals = append(s.arrivals, arrival{src, seq, at})
	}
}

// waitViews blocks until every listed group has a view of want members
// at this node.
func (s *sink) waitViews(groups []ids.LWGID, want int, deadline time.Time) bool {
	for {
		s.mu.Lock()
		ok := true
		for _, g := range groups {
			if s.views[g] != want {
				ok = false
				break
			}
		}
		s.mu.Unlock()
		if ok {
			return true
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		select {
		case <-s.viewCh:
		case <-time.After(left):
		}
	}
}

// rtCluster is one live loopback cluster.
type rtCluster struct {
	nodes  []*rtnet.Node
	sinks  []*sink
	sh     *rtShared
	groups []ids.LWGID
	reg    *metrics.Registry
	rings  []*trace.Ring
	// setupNs is Listen → every node holds the full view of every
	// group; joinNs holds, per joining member and group, Join → first
	// full view.
	setupNs int64
	joinNs  []int64
}

func (c *rtCluster) close() {
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// startRT builds the cluster and joins every node to every group. The
// creator (node 0) founds the first group alone and the others only
// afterwards: simultaneous first joins would each found a heavy-weight
// group of their own, one per process and group, and the run would
// measure the policy collapsing them.
func startRT(spec rtSpec, seed int64, seconds int, traced bool) (*rtCluster, error) {
	c := &rtCluster{sh: &rtShared{groups: spec.groups, traced: traced}}
	if spec.window > 0 {
		c.sh.credits = make([]atomic.Int64, rtGenerators)
		for i := 0; i < rtGenerators; i++ {
			c.sh.kick = append(c.sh.kick, make(chan struct{}, 1))
		}
	}
	if traced {
		c.reg = metrics.NewRegistry()
	}
	for g := 0; g < spec.groups; g++ {
		c.groups = append(c.groups, groupName(g))
	}
	start := now()
	for i := 0; i < rtNodes; i++ {
		cfg := rtnet.NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: []ids.ProcessID{0},
			Seed:        seed*1009 + int64(i),
		}
		s := newSink(cfg.PID, c.sh, seconds)
		cfg.Upcalls = s
		if traced {
			ring := trace.NewRing(1 << 16)
			c.rings = append(c.rings, ring)
			cfg.Metrics, cfg.Tracer = c.reg, ring
		}
		n, err := rtnet.Listen(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		c.sinks = append(c.sinks, s)
	}
	peers := make(map[ids.ProcessID]string, rtNodes)
	for i, n := range c.nodes {
		peers[ids.ProcessID(i)] = n.Addr().String()
	}
	for i, n := range c.nodes {
		if err := n.SetPeers(peers); err != nil {
			c.close()
			return nil, err
		}
		if err := n.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("node %d start: %w", i, err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	join := func(node int, groups []ids.LWGID) error {
		var err error
		c.nodes[node].Do(func(ep *core.Endpoint) {
			for _, g := range groups {
				if e := ep.Join(g); e != nil && err == nil {
					err = fmt.Errorf("node %d join %s: %w", node, g, e)
				}
			}
		})
		return err
	}
	steps := []struct {
		nodes  []int
		groups []ids.LWGID
		want   int
	}{
		{[]int{0}, c.groups[:1], 1},
		{[]int{0}, c.groups[1:], 1},
		{[]int{1, 2}, c.groups, rtNodes},
	}
	var joinedAt int64
	for _, st := range steps {
		if len(st.groups) == 0 {
			continue
		}
		joinedAt = now()
		for _, n := range st.nodes {
			if err := join(n, st.groups); err != nil {
				c.close()
				return nil, err
			}
		}
		if st.want == rtNodes {
			st.nodes = []int{0, 1, 2}
		}
		for _, n := range st.nodes {
			if !c.sinks[n].waitViews(st.groups, st.want, deadline) {
				c.close()
				return nil, fmt.Errorf("node %d: no view of %d members within 30 s", n, st.want)
			}
		}
	}
	c.setupNs = now() - start
	for _, n := range []int{1, 2} {
		s := c.sinks[n]
		s.mu.Lock()
		for _, g := range c.groups {
			c.joinNs = append(c.joinNs, s.fullAt[g]-joinedAt)
		}
		s.mu.Unlock()
	}
	return c, nil
}

// generator is one load source. Its counters are its own until the run
// ends.
type generator struct {
	node     *rtnet.Node
	src      int
	spec     rtSpec
	groups   []ids.LWGID
	body     []byte
	seq      uint64
	sent     int64
	sendErrs int64
	late     hist // due → Node.Do entered (open loop)
	call     hist // Node.Do entered → returned
	spans    []sendSpan
	traced   bool
}

// sendSpan is what the sender knows of one sampled message: its time
// origin, Node.Do entered, the closure's first instruction on the loop,
// and the instants around core's Send.
type sendSpan struct {
	seq                                      uint64
	origin, enter, start, sendStart, sendEnd int64
}

// send multicasts one message per origin in a single Node.Do. A zero
// origin is replaced by the instant right before Send. Every message
// owns its payload: core keeps the slice until the batch is flushed and
// the vsync layer until it is stable.
func (g *generator) send(origins []int64) {
	bufs := make([][]byte, len(origins))
	for i := range bufs {
		bufs[i] = make([]byte, len(g.body))
		copy(bufs[i][hdrLen:], g.body[hdrLen:])
	}
	enter := now()
	g.node.Do(func(ep *core.Endpoint) {
		start := now()
		for i, buf := range bufs {
			at := now()
			origin := origins[i]
			if origin == 0 {
				origin = at
			}
			binary.LittleEndian.PutUint64(buf, uint64(origin))
			binary.LittleEndian.PutUint64(buf[8:], g.seq)
			if err := ep.Send(g.groups[g.seq%uint64(len(g.groups))], buf); err != nil {
				g.sendErrs++
			}
			if g.traced && g.seq%spanEvery == 0 {
				g.spans = append(g.spans, sendSpan{g.seq, origin, enter, start, at, now()})
			}
			g.seq++
			g.sent++
		}
	})
	g.call.add(now() - enter)
}

// runOpen sends on the precomputed schedule (offsets from t0), timing
// each message from its due time however late the generator runs:
// arrivals that came due while the previous Node.Do was blocked go out
// together in the next. It waits in nanosleep, not time.Sleep: a
// goroutine parked in an otherwise idle process is woken by the
// netpoller, whose timeout is whole milliseconds, and a generator that
// is a millisecond late half the time would be most of what the open
// loop measures.
func (g *generator) runOpen(t0 int64, schedule []int64) {
	var batch []int64
	for i := 0; i < len(schedule); {
		if d := t0 + schedule[i] - now(); d > 0 {
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only loops
			continue
		}
		at := now()
		batch = batch[:0]
		for i < len(schedule) && t0+schedule[i] <= at {
			batch = append(batch, t0+schedule[i])
			g.late.add(at - batch[len(batch)-1])
			i++
		}
		g.send(batch)
	}
}

// runClosed keeps window messages of its own in flight until stop.
func (g *generator) runClosed(sh *rtShared, stop <-chan struct{}) {
	const cost = rtNodes - 1
	credits := &sh.credits[g.src]
	credits.Store(int64(g.spec.window) * cost)
	var batch []int64
	for {
		if n := credits.Load() / cost; n > 0 {
			credits.Add(-n * cost)
			batch = append(batch[:0], make([]int64, n)...)
			g.send(batch)
			continue
		}
		select {
		case <-stop:
			return
		case <-sh.kick[g.src]:
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// poissonSchedule returns arrival offsets of a Poisson process of the
// given rate over d, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []int64 {
	var out []int64
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if t >= float64(d) {
			return out
		}
		out = append(out, int64(t))
	}
}

// payloadBody returns size seeded bytes (the header overwrites the
// first hdrLen of them per message).
func payloadBody(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// stolen returns the CPU time the hypervisor has so far given to others
// while this machine had work to do (the steal column of /proc/stat),
// and whether the kernel reports it.
func stolen() (time.Duration, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * (time.Second / 100), true // USER_HZ is 100 on Linux
}

// quietShare is the share of the machine's CPU time the hypervisor may
// take during a sample before the sample is set aside: a stolen second
// measures the neighbours, not the program. On the sizing host steal
// comes in bursts of several seconds at 15-40 % and multiplies the
// median latency of rt-paced by up to four while it lasts.
const quietShare = 0.01

// undisturbed decides which samples count: those from which the
// hypervisor stole no more than quietShare of the machine over their
// wall time or, when that is less than a third of them, the third it
// stole least from. It returns the share of the machine stolen from the
// worst sample kept.
func undisturbed(stolen, wall []time.Duration) (keep []bool, limit float64) {
	shares := make([]float64, len(stolen))
	for i := range stolen {
		shares[i] = float64(stolen[i]) / (float64(wall[i]) * float64(runtime.NumCPU()))
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	limit = quietShare
	if n := len(sorted); n > 0 && sorted[(n-1)/3] > limit {
		limit = sorted[(n-1)/3]
	}
	keep = make([]bool, len(shares))
	for i, sh := range shares {
		keep[i] = sh <= limit
	}
	return keep, limit
}

// noteStolen records how many of the samples (seconds, cycles) were set
// aside and marks the run invalid when even the ones kept were stolen
// from.
func noteStolen(res *Result, metric, what string, keep []bool, limit float64) {
	aside := 0
	for _, k := range keep {
		if !k {
			aside++
		}
	}
	res.set(metric, "count", float64(aside), int64(len(keep)))
	if limit > quietShare {
		res.Invalid = fmt.Sprintf("the hypervisor stole CPU throughout: the %d %s kept lost up to %.0f %% of the machine to it",
			len(keep)-aside, what, 100*limit)
	}
}

// cpuTimes returns the process's user+system and system CPU time.
func cpuTimes() (total, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), time.Duration(ru.Stime.Nano())
}

func cpuTime() time.Duration {
	total, _ := cpuTimes()
	return total
}

// rtWindow is what the measured cluster produced: set-up, warm-up,
// seconds of measured load, drain.
type rtWindow struct {
	seconds           int
	setupNs           int64
	joinNs            []int64
	attempted, failed int64
	violations        []string
	// disturbed says the membership changed under load: on a healthy
	// loopback cluster that takes a node starved of the CPU for the
	// failure detector's 450 ms.
	disturbed bool
	msgs      int64 // in-window messages delivered to every remote member
	cpu, sys  time.Duration
	perSec    []hist          // one-way latency by second of the measure window
	cpuPerSec []time.Duration // process CPU time by second of the measure window
	// stolenPerSec is the CPU time the hypervisor took from the machine
	// in each second of the measure window (zeros where the kernel does
	// not say).
	stolenPerSec []time.Duration
	late, call   hist
	trace        *rtTrace // traced runs only
}

// measureRT builds a fresh cluster and measures it for seconds.
func measureRT(spec rtSpec, seed int64, seconds int, traced bool) (*rtWindow, error) {
	c, err := startRT(spec, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	defer c.close()
	w := &rtWindow{seconds: seconds, setupNs: c.setupNs, joinNs: c.joinNs}
	violate := func(format string, args ...any) {
		w.violations = append(w.violations, fmt.Sprintf(format, args...))
	}
	installs := make([]int, rtNodes)
	for i, s := range c.sinks {
		s.mu.Lock()
		installs[i] = s.installs
		s.mu.Unlock()
	}

	sh := c.sh
	t0 := now() + int64(20*time.Millisecond)
	sh.mStart = t0 + int64(rtWarmup)
	sh.mEnd = sh.mStart + int64(seconds)*int64(time.Second)
	gens := make([]*generator, rtGenerators)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range gens {
		rng := rand.New(rand.NewSource(seed*1009 + int64(i)))
		g := &generator{
			node: c.nodes[i], src: i, spec: spec, groups: c.groups,
			body: payloadBody(rng, spec.payload), traced: traced,
		}
		gens[i] = g
		var schedule []int64
		if spec.rate > 0 {
			schedule = poissonSchedule(rng, spec.rate, rtWarmup+time.Duration(seconds)*time.Second)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := t0 - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if schedule != nil {
				g.runOpen(t0, schedule)
			} else {
				g.runClosed(sh, stop)
			}
		}()
	}

	time.Sleep(time.Duration(sh.mStart - now()))
	if traced {
		w.trace = startTrace(c)
	}
	cpu0, sys0 := cpuTimes()
	prev := cpu0
	prevStolen, _ := stolen()
	for sec := 1; sec <= seconds; sec++ {
		time.Sleep(time.Duration(sh.mStart + int64(sec)*int64(time.Second) - now()))
		cpu := cpuTime()
		w.cpuPerSec = append(w.cpuPerSec, cpu-prev)
		prev = cpu
		st, _ := stolen()
		w.stolenPerSec = append(w.stolenPerSec, st-prevStolen)
		prevStolen = st
	}
	cpu1, sys1 := cpuTimes()
	w.cpu, w.sys = cpu1-cpu0, sys1-sys0
	if traced {
		w.trace.stop()
	}
	close(stop)
	wg.Wait()

	// Drain: everything sent must reach both remote members.
	for _, g := range gens {
		w.attempted += g.sent
	}
	for deadline := time.Now().Add(rtDrainMax); time.Now().Before(deadline); {
		var got int64
		for _, s := range c.sinks {
			got += s.delivered.Load()
		}
		if got >= w.attempted*(rtNodes-1) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range c.nodes {
		n.Do(func(*core.Endpoint) {}) // barrier: the sinks' counters are ours now
	}

	// Correctness: exactly once, in per-sender order, at every remote
	// member; membership untouched since set-up.
	for i, g := range gens {
		worst := int64(0)
		inWindow := int64(math.MaxInt64)
		for _, s := range c.sinks {
			if int(s.pid) == i {
				continue
			}
			if miss := g.sent - s.inOrder[i]; miss > worst {
				worst = miss
			}
			if s.inWindow[i] < inWindow {
				inWindow = s.inWindow[i]
			}
		}
		w.failed += worst + g.sendErrs
		if worst > 0 || g.sendErrs > 0 {
			violate("generator %d: %d of %d messages not delivered exactly once in order everywhere, %d Send errors",
				i, worst, g.sent, g.sendErrs)
		}
		w.msgs += inWindow
		w.late.merge(&g.late)
		w.call.merge(&g.call)
	}
	w.perSec = make([]hist, seconds)
	for i, s := range c.sinks {
		if s.outOfTurn > 0 {
			violate("node %d: %d deliveries out of turn (duplicate, gap or reordering)", i, s.outOfTurn)
		}
		s.mu.Lock()
		if s.installs != installs[i] {
			w.disturbed = true
			violate("node %d: %d view changes during the run, the last to %s of the measure window", i, s.installs-installs[i], s.lastView)
		}
		for _, g := range c.groups {
			if s.views[g] != rtNodes {
				violate("node %d: group %s ends with %d members", i, g, s.views[g])
			}
		}
		s.mu.Unlock()
		for sec := range s.perSec {
			w.perSec[sec].merge(&s.perSec[sec])
		}
	}
	if traced {
		w.trace.finish(c, gens)
	}
	return w, nil
}

// runRT runs one rt workload: rtSetupReps set-ups, the last of which
// is measured for seconds after a warm-up. Every number is the median of
// its per-second values, so that a second in which the host stalled
// moves one sample and not the result.
func runRT(name string, seed int64, seconds int, traced bool) (*Result, *rtWindow, error) {
	spec := rtSpecs[name]
	res := newResult(name)
	var setups, joins []float64
	setUp := func(setupNs int64, joinNs []int64) {
		setups = append(setups, float64(setupNs)/1e9)
		for _, j := range joinNs {
			joins = append(joins, float64(j)/1e6)
		}
	}
	// Set-up alone is cheap: repeat it until its median is steady.
	for n := int64(1); n < rtSetupReps; n++ {
		c, err := startRT(spec, seed+n*7919, 1, false)
		if err != nil {
			return nil, nil, err
		}
		c.close()
		setUp(c.setupNs, c.joinNs)
	}
	w, err := measureRT(spec, seed, seconds, traced)
	repeated := 0
	for ; err == nil && w.disturbed && repeated < rtRepeatMax; repeated++ {
		res.note("measure window repeated: %s", strings.Join(w.violations, "; "))
		w, err = measureRT(spec, seed+int64(repeated+1)*104729, seconds, traced)
	}
	if err != nil {
		return nil, nil, err
	}
	setUp(w.setupNs, w.joinNs)
	res.Attempted, res.Failed = w.attempted, w.failed
	for _, v := range w.violations {
		res.violate("%s", v)
	}
	res.setQuartiles("setup_s", "s", setups)
	res.setQuartiles("bench.join_p50_ms", "ms", joins)
	res.set("bench.windows_repeated", "count", float64(repeated), 1)

	// Seconds the hypervisor stole from are set aside.
	walls := make([]time.Duration, len(w.stolenPerSec))
	for i := range walls {
		walls[i] = time.Second
	}
	keep, limit := undisturbed(w.stolenPerSec, walls)
	noteStolen(res, "bench.seconds_stolen", "seconds", keep, limit)
	var rates, p50s, p99s, cpus []float64
	var samples int64
	minAbove := int64(math.MaxInt64)
	for sec := range w.perSec {
		h := &w.perSec[sec]
		if h.n == 0 || !keep[sec] {
			continue
		}
		samples += h.n
		msgs := float64(h.n) / (rtNodes - 1)
		rates = append(rates, msgs)
		p50s = append(p50s, h.quantile(0.5)/1e6)
		p99s = append(p99s, h.quantile(0.99)/1e6)
		cpus = append(cpus, float64(w.cpuPerSec[sec].Microseconds())/msgs)
		if a := h.above(0.99); a < minAbove {
			minAbove = a
		}
	}
	res.setQuartiles("delivered_msgs_per_s", "msgs/s", rates)
	res.setQuartiles("oneway_p50_ms", "ms", p50s)
	res.setQuartiles("oneway_p99_ms", "ms", p99s)
	res.setQuartiles("cpu_us_per_msg", "us", cpus)
	res.note("%d messages in the measure window; %d latency samples in the %d seconds kept, each with >= %d samples beyond its p99",
		w.msgs, samples, len(p99s), minAbove)

	// Validity: an open loop whose generator runs late is measuring the
	// generator.
	if late := &w.late; late.n > 0 {
		p50 := late.quantile(0.5) / 1e6
		res.note("generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends",
			p50, late.quantile(0.99)/1e6, float64(late.max)/1e6, late.n)
		if lat := res.Metrics["oneway_p50_ms"].Value; p50 > 0.2*lat {
			res.Invalid = fmt.Sprintf("median generator lateness %.3f ms exceeds 20 %% of oneway_p50_ms %.3f ms", p50, lat)
		}
	}
	return res, w, nil
}
