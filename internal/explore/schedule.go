// Package explore drives the full light-weight group stack through
// seeded random schedules of joins, leaves, sends, partitions, heals,
// crashes and policy passes, checks the paper's safety properties
// (internal/check) at quiescence, and shrinks failing schedules to
// minimal, deterministic reproducers.
//
// Every schedule is concrete: each operation carries its process, group,
// partition cut and virtual-time delay, fixed at generation time. Running
// a schedule is therefore a pure function of the schedule value — the
// same Schedule always produces the same trace — which is what makes
// delta-debugging shrinks and replays-from-a-printed-reproducer sound.
package explore

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Op kinds.
const (
	OpJoin   = "join"   // P joins LWG
	OpLeave  = "leave"  // P leaves LWG
	OpSend   = "send"   // P multicasts in LWG (payload derived from op index)
	OpPart   = "part"   // partition nodes [0,Cut) from [Cut,Nodes)
	OpHeal   = "heal"   // heal all partitions
	OpCrash  = "crash"  // P crashes permanently
	OpPolicy = "policy" // run the mapping heuristics at every process
	OpWait   = "wait"   // no action: just let Delay of virtual time pass
)

// Op is one step of a schedule. Inapplicable operations (joining a group
// twice, sending from a non-member, crashing a server node) degrade to
// no-ops at run time, so removing earlier operations never changes the
// meaning of later ones.
type Op struct {
	// Delay is how much virtual time passes before the operation runs.
	Delay time.Duration
	Kind  string
	// P is the acting process (join, leave, send, crash).
	P ids.ProcessID
	// LWG is the group concerned (join, leave, send).
	LWG ids.LWGID
	// Cut is the partition split point (part).
	Cut int
}

func (o Op) String() string {
	switch o.Kind {
	case OpJoin, OpLeave, OpSend:
		return fmt.Sprintf("op %v %s %d %s", o.Delay, o.Kind, o.P, o.LWG)
	case OpCrash:
		return fmt.Sprintf("op %v %s %d", o.Delay, o.Kind, o.P)
	case OpPart:
		return fmt.Sprintf("op %v %s %d", o.Delay, o.Kind, o.Cut)
	default:
		return fmt.Sprintf("op %v %s", o.Delay, o.Kind)
	}
}

// Fault is a deliberate virtual-synchrony fault injected into the
// recorded trace before checking: the Drop-th LWG delivery observed at
// Node is suppressed, as if the process had silently skipped the upcall.
// It exists to test the checker and the shrinker themselves — a detector
// is only trustworthy once it has been seen to fire.
type Fault struct {
	Node ids.ProcessID
	// Drop suppresses the Drop-th (1-based) delivery at Node; 0 disables.
	Drop int
}

// Schedule is a complete, self-contained chaos scenario.
type Schedule struct {
	// Seed seeds both schedule generation and the network simulation.
	Seed int64
	// Nodes is the cluster size. Naming servers run on node 0 and, when
	// Nodes > 4, on node Nodes/2; servers never crash.
	Nodes int
	// LWGs lists the light-weight groups the schedule exercises.
	LWGs []ids.LWGID
	// Ops is the operation sequence.
	Ops []Op
	// Quiesce is how long the run converges after the final heal.
	Quiesce time.Duration
	// Fault optionally injects a delivery suppression (see Fault).
	Fault Fault
	// Faults is the fault spec (faults.Parse grammar) both clocks install:
	// the simulator through quiescence, the loopback clock until its clean
	// tail. Empty is clean.
	// Parse rejects an invalid spec; Run panics on one set in code.
	Faults string
	// Origin records how the schedule was produced: empty for seeded
	// random generation (Random), or a free-form provenance line such as
	// "enumerate n3g2 depth 12". Reproducer uses it to print an honest
	// re-discovery hint — a seed sweep cannot regenerate an enumerated
	// schedule.
	Origin string
}

// MaxNodes bounds the cluster size a schedule file may name: a runner
// builds one endpoint per node. The default sweep uses 8 nodes and the
// largest fixed scope anywhere (the benchmark's sim-churn) 12.
const MaxNodes = 64

// Servers returns the naming-server placement for the schedule.
func (s Schedule) Servers() []ids.ProcessID {
	srv := []ids.ProcessID{0}
	if s.Nodes > 4 {
		srv = append(srv, ids.ProcessID(s.Nodes/2))
	}
	return srv
}

// GenConfig bounds random schedule generation.
type GenConfig struct {
	Nodes   int           // cluster size (default 8)
	Ops     int           // operation count (default 60)
	LWGs    int           // number of light-weight groups (default 3, max 26)
	Crashes int           // crash budget (default 2)
	Quiesce time.Duration // convergence window (default 30s)
	Faults  string        // fault spec stamped into every schedule (default clean)
}

func (g GenConfig) withDefaults() GenConfig {
	if g.Nodes <= 0 {
		g.Nodes = 8
	}
	if g.Ops <= 0 {
		g.Ops = 60
	}
	if g.LWGs <= 0 {
		g.LWGs = 3
	}
	if g.LWGs > 26 {
		g.LWGs = 26
	}
	if g.Crashes < 0 {
		g.Crashes = 0
	}
	if g.Quiesce <= 0 {
		g.Quiesce = 30 * time.Second
	}
	return g
}

// Random generates the schedule for a seed. Generation is deliberately
// simple-minded — it does not track membership, so some operations end up
// as run-time no-ops — because simplicity here is what keeps shrunk
// schedules meaningful: every op stands alone.
func Random(seed int64, g GenConfig) Schedule {
	g = g.withDefaults()
	r := newRand(seed)
	s := Schedule{Seed: seed, Nodes: g.Nodes, Quiesce: g.Quiesce, Faults: g.Faults}
	for i := 0; i < g.LWGs; i++ {
		s.LWGs = append(s.LWGs, ids.LWGID(string(rune('a'+i))))
	}
	servers := make(map[ids.ProcessID]bool)
	for _, p := range s.Servers() {
		servers[p] = true
	}
	crashes := 0
	partitioned := false
	for i := 0; i < g.Ops; i++ {
		op := Op{Delay: time.Duration(200+r.Intn(600)) * time.Millisecond}
		p := ids.ProcessID(r.Intn(g.Nodes))
		lwg := s.LWGs[r.Intn(len(s.LWGs))]
		switch k := r.Intn(20); {
		case k < 7:
			op.Kind, op.P, op.LWG = OpJoin, p, lwg
		case k < 9:
			op.Kind, op.P, op.LWG = OpLeave, p, lwg
		case k < 14:
			op.Kind, op.P, op.LWG = OpSend, p, lwg
		case k < 17:
			if partitioned {
				op.Kind = OpHeal
			} else {
				op.Kind, op.Cut = OpPart, 1+r.Intn(g.Nodes-1)
			}
			partitioned = !partitioned
		case k < 19:
			op.Kind = OpPolicy
		default:
			if crashes >= g.Crashes || servers[p] {
				op.Kind, op.P, op.LWG = OpSend, p, lwg
			} else {
				op.Kind, op.P = OpCrash, p
				crashes++
			}
		}
		s.Ops = append(s.Ops, op)
	}
	return s
}

// Encode renders the schedule in the replayable text format understood by
// Parse and by `lwgcheck -replay`.
func Encode(s Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule v1\n")
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	fmt.Fprintf(&b, "nodes %d\n", s.Nodes)
	names := make([]string, len(s.LWGs))
	for i, l := range s.LWGs {
		names[i] = string(l)
	}
	if len(names) > 0 {
		fmt.Fprintf(&b, "lwgs %s\n", strings.Join(names, ","))
	}
	fmt.Fprintf(&b, "quiesce %v\n", s.Quiesce)
	if s.Origin != "" {
		fmt.Fprintf(&b, "origin %s\n", s.Origin)
	}
	if s.Faults != "" {
		fmt.Fprintf(&b, "faults %s\n", s.Faults)
	}
	if s.Fault.Drop > 0 {
		fmt.Fprintf(&b, "fault %d %d\n", s.Fault.Node, s.Fault.Drop)
	}
	for _, o := range s.Ops {
		fmt.Fprintf(&b, "%s\n", o)
	}
	return b.String()
}

// Parse reads a schedule in the Encode format. Blank lines and lines
// starting with '#' are ignored. Lines may be of any length: a reader
// with a token limit would stop at an over-long line and hand back the
// shorter schedule before it as if it were the whole file.
func Parse(text string) (Schedule, error) {
	var s Schedule
	line := 0
	sawHeader := false
	fail := func(msg string) (Schedule, error) {
		return Schedule{}, fmt.Errorf("schedule line %d: %s", line, msg)
	}
	for _, cur := range strings.Split(text, "\n") {
		line++
		fields := strings.Fields(cur)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if !sawHeader {
			if fields[0] != "schedule" || len(fields) != 2 || fields[1] != "v1" {
				return fail(`expected header "schedule v1"`)
			}
			sawHeader = true
			continue
		}
		switch fields[0] {
		case "seed", "nodes":
			if len(fields) != 2 {
				return fail(fields[0] + " wants one value")
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return fail(err.Error())
			}
			switch {
			case fields[0] == "seed":
				s.Seed = n
			case n < 1 || n > MaxNodes:
				return fail(fmt.Sprintf("nodes must be between 1 and %d", MaxNodes))
			default:
				s.Nodes = int(n)
			}
		case "lwgs":
			if len(fields) != 2 {
				return fail("lwgs wants a comma-separated list")
			}
			for _, name := range strings.Split(fields[1], ",") {
				if name != "" {
					s.LWGs = append(s.LWGs, ids.LWGID(name))
				}
			}
		case "quiesce":
			if len(fields) != 2 {
				return fail("quiesce wants a duration")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return fail(err.Error())
			}
			s.Quiesce = d
		case "origin":
			if len(fields) < 2 {
				return fail("origin wants a provenance description")
			}
			s.Origin = strings.Join(fields[1:], " ")
		case "faults":
			if len(fields) != 2 {
				return fail("faults wants one fault spec (no spaces)")
			}
			if _, err := faults.Parse(fields[1]); err != nil {
				return fail(err.Error())
			}
			s.Faults = fields[1]
		case "fault":
			if len(fields) != 3 {
				return fail("fault wants <node> <drop>")
			}
			node, err1 := strconv.Atoi(fields[1])
			drop, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || node < 0 || drop < 0 {
				return fail("fault wants two non-negative integers")
			}
			s.Fault = Fault{Node: ids.ProcessID(node), Drop: drop}
		case "op":
			op, err := parseOp(fields[1:])
			if err != nil {
				return fail(err.Error())
			}
			if op.P < 0 || op.Cut < 0 {
				// Past the cluster size is a run-time no-op; negative names nothing.
				return fail("negative process id or cut")
			}
			s.Ops = append(s.Ops, op)
		default:
			return fail("unknown directive " + strconv.Quote(fields[0]))
		}
	}
	if !sawHeader {
		return Schedule{}, fmt.Errorf("schedule: empty input")
	}
	if s.Nodes <= 0 {
		return Schedule{}, fmt.Errorf("schedule: nodes not set")
	}
	return s, nil
}

func parseOp(fields []string) (Op, error) {
	if len(fields) < 2 {
		return Op{}, fmt.Errorf("op wants <delay> <kind> ...")
	}
	d, err := time.ParseDuration(fields[0])
	if err != nil {
		return Op{}, err
	}
	op := Op{Delay: d, Kind: fields[1]}
	switch op.Kind {
	case OpJoin, OpLeave, OpSend:
		if len(fields) != 4 {
			return Op{}, fmt.Errorf("%s wants <p> <lwg>", op.Kind)
		}
		p, err := strconv.Atoi(fields[2])
		if err != nil {
			return Op{}, err
		}
		op.P, op.LWG = ids.ProcessID(p), ids.LWGID(fields[3])
	case OpCrash:
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("crash wants <p>")
		}
		p, err := strconv.Atoi(fields[2])
		if err != nil {
			return Op{}, err
		}
		op.P = ids.ProcessID(p)
	case OpPart:
		if len(fields) != 3 {
			return Op{}, fmt.Errorf("part wants <cut>")
		}
		cut, err := strconv.Atoi(fields[2])
		if err != nil {
			return Op{}, err
		}
		op.Cut = cut
	case OpHeal, OpPolicy, OpWait:
		if len(fields) != 2 {
			return Op{}, fmt.Errorf("%s wants no arguments", op.Kind)
		}
	default:
		return Op{}, fmt.Errorf("unknown op kind %q", op.Kind)
	}
	return op, nil
}
