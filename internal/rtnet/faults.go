package rtnet

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"plwg/internal/ids"
)

// Link-level fault injection for the real-network transport.
//
// The simulated network (internal/netsim) can lose and jitter frames, but
// until now the real UDP path only knew the crude symmetric `blocked` map.
// This layer injects per-link, seeded faults on the SEND side of a
// transport, per datagram (i.e. per fragment chunk, so losing one chunk of
// a fragmented message and duplicating another are both reachable states):
//
//   - loss: the datagram is dropped with probability Loss;
//   - duplication: a second copy is sent with probability Dup;
//   - delay + jitter: every surviving copy is held for a uniform delay in
//     [DelayMin, DelayMax];
//   - reorder: with probability Reorder a copy is additionally held back
//     by a random extra delay, letting later datagrams overtake it;
//   - block: a one-way (asymmetric) partition — everything on the link is
//     dropped, while the reverse direction (the peer's transport) is
//     untouched.
//
// Rules are resolved per destination peer: an explicit link rule wins,
// otherwise the default rule applies, otherwise the link is clean.
// Decisions are drawn from a per-transport seeded source, so a node that
// emits the same datagram sequence makes the same fault decisions; the
// wall-clock arrival times on a real network remain, of course,
// nondeterministic. Mutation is safe from any goroutine (the table is
// mutex-guarded), which is what lets tests and the lwgcheck driver
// reconfigure faults while the reader and protocol loops run.

// FaultRule describes the fault behaviour of one directed link (or the
// default for all links). The zero value is a clean link.
type FaultRule struct {
	// Block drops every datagram (one-way partition).
	Block bool
	// Loss is the per-datagram drop probability in [0,1].
	Loss float64
	// Dup is the per-datagram duplication probability in [0,1].
	Dup float64
	// Reorder is the probability a copy is held back by an extra random
	// delay (up to reorderWindow), letting younger datagrams overtake it.
	Reorder float64
	// DelayMin/DelayMax bound the base per-copy latency (uniform).
	DelayMin, DelayMax time.Duration
}

// reorderWindow returns how far a reordered copy may be held back: four
// times the configured maximum delay, with a floor that is enough to
// overtake back-to-back sends even on a link with no configured delay.
func (r *FaultRule) reorderWindow() time.Duration {
	w := 4 * r.DelayMax
	if w < 2*time.Millisecond {
		w = 2 * time.Millisecond
	}
	return w
}

// clean reports whether the rule injects nothing.
func (r *FaultRule) clean() bool {
	return !r.Block && r.Loss == 0 && r.Dup == 0 && r.Reorder == 0 &&
		r.DelayMin == 0 && r.DelayMax == 0
}

func (r *FaultRule) String() string {
	if r == nil || r.clean() {
		return "clean"
	}
	var parts []string
	if r.Block {
		parts = append(parts, "block")
	}
	if r.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss=%g", r.Loss))
	}
	if r.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", r.Dup))
	}
	if r.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g", r.Reorder))
	}
	if r.DelayMin > 0 || r.DelayMax > 0 {
		if r.DelayMax > r.DelayMin {
			parts = append(parts, fmt.Sprintf("delay=%v..%v", r.DelayMin, r.DelayMax))
		} else {
			parts = append(parts, fmt.Sprintf("delay=%v", r.DelayMin))
		}
	}
	return strings.Join(parts, ",")
}

// FaultSpec is a complete fault configuration for one transport: a default
// rule for every outgoing link plus per-peer overrides.
type FaultSpec struct {
	Default *FaultRule
	Links   map[ids.ProcessID]*FaultRule
}

// String renders the spec in the grammar ParseFaultSpec accepts.
func (fs *FaultSpec) String() string {
	if fs == nil {
		return ""
	}
	var clauses []string
	if fs.Default != nil {
		clauses = append(clauses, fs.Default.String())
	}
	peers := make([]ids.ProcessID, 0, len(fs.Links))
	for p := range fs.Links {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		clauses = append(clauses, fmt.Sprintf("%d:%s", p, fs.Links[p]))
	}
	return strings.Join(clauses, ";")
}

// ParseFaultSpec parses the fault-rule grammar used by the lwgnode and
// lwgcheck command lines:
//
//	spec    := clause (';' clause)*
//	clause  := [peer ':'] rule         peer is a decimal process id
//	rule    := item (',' item)*
//	item    := 'block' | 'clean'
//	         | 'loss='  prob | 'dup=' prob | 'reorder=' prob
//	         | 'delay=' dur [ '..' dur ]
//
// A clause without a peer prefix sets the default rule for every link;
// a peer-prefixed clause overrides one directed link. Examples:
//
//	loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms
//	loss=0.2;3:block            (lossy everywhere, one-way partition to 3)
//
// An empty spec parses to a nil-rule FaultSpec (everything clean).
func ParseFaultSpec(spec string) (*FaultSpec, error) {
	fs := &FaultSpec{Links: make(map[ids.ProcessID]*FaultRule)}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return fs, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		ruleText := clause
		var peer ids.ProcessID = -1
		if i := strings.Index(clause, ":"); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(clause[:i]))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: bad peer %q in %q", clause[:i], clause)
			}
			peer = ids.ProcessID(n)
			ruleText = clause[i+1:]
		}
		rule, err := parseFaultRule(ruleText)
		if err != nil {
			return nil, err
		}
		if peer < 0 {
			fs.Default = rule
		} else {
			fs.Links[peer] = rule
		}
	}
	return fs, nil
}

func parseFaultRule(text string) (*FaultRule, error) {
	r := &FaultRule{}
	for _, item := range strings.Split(text, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		switch {
		case item == "block":
			r.Block = true
		case item == "clean":
			// explicit no-op rule (overrides the default on one link)
		case strings.HasPrefix(item, "loss="),
			strings.HasPrefix(item, "dup="),
			strings.HasPrefix(item, "reorder="):
			kv := strings.SplitN(item, "=", 2)
			p, err := strconv.ParseFloat(kv[1], 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN parses, and fails both
				return nil, fmt.Errorf("faults: %s wants a probability in [0,1], got %q", kv[0], kv[1])
			}
			switch kv[0] {
			case "loss":
				r.Loss = p
			case "dup":
				r.Dup = p
			case "reorder":
				r.Reorder = p
			}
		case strings.HasPrefix(item, "delay="):
			val := strings.TrimPrefix(item, "delay=")
			lo, hi := val, val
			if i := strings.Index(val, ".."); i >= 0 {
				lo, hi = val[:i], val[i+2:]
			}
			dlo, err1 := time.ParseDuration(lo)
			dhi, err2 := time.ParseDuration(hi)
			if err1 != nil || err2 != nil || dlo < 0 || dhi < dlo {
				return nil, fmt.Errorf("faults: bad delay %q (want dur or dur..dur)", val)
			}
			r.DelayMin, r.DelayMax = dlo, dhi
		default:
			return nil, fmt.Errorf("faults: unknown item %q", item)
		}
	}
	return r, nil
}

// faultTable is the live fault configuration of one transport. All methods
// are safe from any goroutine.
type faultTable struct {
	mu     sync.Mutex
	rng    *rand.Rand
	def    *FaultRule
	links  map[ids.ProcessID]*FaultRule
	active bool // cached: any rule installed (checked under mu)
}

func newFaultTable(seed int64) *faultTable {
	return &faultTable{
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[ids.ProcessID]*FaultRule),
	}
}

func (ft *faultTable) reseed(seed int64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.rng = rand.New(rand.NewSource(seed))
}

func (ft *faultTable) setDefault(r *FaultRule) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.def = r
	ft.refreshActive()
}

func (ft *faultTable) setLink(to ids.ProcessID, r *FaultRule) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if r == nil {
		delete(ft.links, to)
	} else {
		ft.links[to] = r
	}
	ft.refreshActive()
}

// install replaces the whole table with the spec (nil clears everything).
func (ft *faultTable) install(fs *FaultSpec) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.def = nil
	ft.links = make(map[ids.ProcessID]*FaultRule)
	if fs != nil {
		ft.def = fs.Default
		for p, r := range fs.Links {
			ft.links[p] = r
		}
	}
	ft.refreshActive()
}

func (ft *faultTable) refreshActive() {
	ft.active = ft.def != nil || len(ft.links) > 0
}

// plan decides the fate of one datagram to one peer: whether it is sent at
// all, and the injected delay of each copy (one entry per copy; a zero
// delay means "send now"). The common no-faults case returns (true, nil).
func (ft *faultTable) plan(to ids.ProcessID) (send bool, delays []time.Duration) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if !ft.active {
		return true, nil
	}
	r := ft.links[to]
	if r == nil {
		r = ft.def
	}
	if r == nil || r.clean() {
		return true, nil
	}
	if r.Block {
		return false, nil
	}
	if r.Loss > 0 && ft.rng.Float64() < r.Loss {
		return false, nil
	}
	copies := 1
	if r.Dup > 0 && ft.rng.Float64() < r.Dup {
		copies = 2
	}
	delays = make([]time.Duration, copies)
	for i := range delays {
		d := r.DelayMin
		if r.DelayMax > r.DelayMin {
			d += time.Duration(ft.rng.Int63n(int64(r.DelayMax - r.DelayMin)))
		}
		if r.Reorder > 0 && ft.rng.Float64() < r.Reorder {
			d += time.Duration(ft.rng.Int63n(int64(r.reorderWindow())))
		}
		delays[i] = d
	}
	return true, delays
}
