// Package faults is the one fault model of both network substrates: the
// simulated bus (internal/netsim) applies a Spec per receiver at transmit
// time, the real UDP transport (internal/rtnet) per datagram on the send
// side, each drawing from its own seeded source. A Rule decides the fate
// of one frame on one directed link — loss, duplication, delay + jitter,
// reordering (a copy held back so later frames overtake it), or a one-way
// block. An explicit link rule wins, otherwise the default rule applies,
// otherwise the link is clean. A frame a node delivers to itself never
// crosses a link and is never faulted.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"plwg/internal/ids"
)

// Rule describes the fault behaviour of one directed link (or the default
// for all links). The zero value is a clean link. Rules are read-only once
// installed, so one value may be shared across links and specs.
type Rule struct {
	// Block drops every frame (one-way partition).
	Block bool
	// Loss is the per-frame drop probability in [0,1].
	Loss float64
	// Dup is the per-frame duplication probability in [0,1].
	Dup float64
	// Reorder is the probability a copy is held back by an extra random
	// delay (up to reorderWindow), letting younger frames overtake it.
	Reorder float64
	// DelayMin/DelayMax bound the base per-copy latency (uniform).
	DelayMin, DelayMax time.Duration
}

// reorderWindow returns how far a reordered copy may be held back: four
// times the configured maximum delay, with a floor that is enough to
// overtake back-to-back sends even on a link with no configured delay.
func (r *Rule) reorderWindow() time.Duration {
	w := 4 * r.DelayMax
	if w < 2*time.Millisecond {
		w = 2 * time.Millisecond
	}
	return w
}

// clean reports whether the rule injects nothing.
func (r *Rule) clean() bool {
	return !r.Block && r.Loss == 0 && r.Dup == 0 && r.Reorder == 0 &&
		r.DelayMin == 0 && r.DelayMax == 0
}

// Plan decides the fate of one frame on a link governed by r: whether it
// is sent at all, and the injected delay of each copy (one entry per copy;
// a zero delay means "send now"). A nil or clean rule returns (true, nil)
// and draws nothing from rng, which is what keeps a fault-free run's
// random stream untouched.
func (r *Rule) Plan(rng *rand.Rand) (send bool, delays []time.Duration) {
	if r == nil || r.clean() {
		return true, nil
	}
	if r.Block {
		return false, nil
	}
	if r.Loss > 0 && rng.Float64() < r.Loss {
		return false, nil
	}
	copies := 1
	if r.Dup > 0 && rng.Float64() < r.Dup {
		copies = 2
	}
	delays = make([]time.Duration, copies)
	for i := range delays {
		d := r.DelayMin
		if r.DelayMax > r.DelayMin {
			d += time.Duration(rng.Int63n(int64(r.DelayMax - r.DelayMin)))
		}
		if r.Reorder > 0 && rng.Float64() < r.Reorder {
			d += time.Duration(rng.Int63n(int64(r.reorderWindow())))
		}
		delays[i] = d
	}
	return true, delays
}

func (r *Rule) String() string {
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

// Spec is a complete fault configuration for one sender (rtnet) or one
// network (netsim): a default rule for every link plus per-destination
// overrides.
type Spec struct {
	Default *Rule
	Links   map[ids.ProcessID]*Rule
}

// Rule returns the rule governing frames to peer to: its link override,
// else the default, else nil (clean). A nil spec is clean everywhere.
func (s *Spec) Rule(to ids.ProcessID) *Rule {
	if s == nil {
		return nil
	}
	if r := s.Links[to]; r != nil {
		return r
	}
	return s.Default
}

// String renders the spec in the grammar Parse accepts.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var clauses []string
	if s.Default != nil {
		clauses = append(clauses, s.Default.String())
	}
	peers := make([]ids.ProcessID, 0, len(s.Links))
	for p := range s.Links {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		clauses = append(clauses, fmt.Sprintf("%d:%s", p, s.Links[p]))
	}
	return strings.Join(clauses, ";")
}

// Parse parses the fault-spec grammar of the lwgnode and lwgcheck
// command lines and of a schedule file's faults line:
//
//	spec    := clause (';' clause)*
//	clause  := [peer ':'] rule         peer is a decimal process id
//	rule    := item (',' item)*
//	item    := 'block' | 'clean'
//	         | 'loss='  prob | 'dup=' prob | 'reorder=' prob
//	         | 'delay=' dur [ '..' dur ]
//
// A clause without a peer prefix sets the default rule for every link;
// a peer-prefixed clause overrides the link to that peer. Examples:
//
//	loss=0.05,dup=0.05,reorder=0.1,delay=200us..2ms
//	loss=0.2;3:block            (lossy everywhere, one-way partition to 3)
//
// An empty spec parses to a nil-rule Spec (everything clean).
func Parse(spec string) (*Spec, error) {
	s := &Spec{Links: make(map[ids.ProcessID]*Rule)}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
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
		rule, err := parseRule(ruleText)
		if err != nil {
			return nil, err
		}
		if peer < 0 {
			s.Default = rule
		} else {
			s.Links[peer] = rule
		}
	}
	return s, nil
}

func parseRule(text string) (*Rule, error) {
	r := &Rule{}
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
