// Package netsim simulates the network substrate the paper's experiments
// ran on: a set of workstations attached to a single shared 10 Mbps
// Ethernet segment with IP-multicast (Section 3.3). The model captures the
// three first-order effects behind the paper's performance results:
//
//   - bus contention: all frames — data, acknowledgements, heartbeats and
//     flush traffic — serialize on one shared medium, so protocol overhead
//     in one group delays traffic of every other group;
//   - receiver CPU: every subscribed node pays a per-message processing
//     cost, so a process that receives (and filters out) traffic of
//     unrelated light-weight groups loses capacity — the paper's
//     "interference" effect;
//   - partitions: the node set can be split into components; frames do not
//     cross component boundaries, and components can later be healed.
//
// SetFaults adds the real transport's fault model (internal/faults):
// per-receiver loss, duplication, delay, reordering and one-way blocks.
//
// The simulation is deterministic: delivery order is fixed by the bus
// serialization and the event engine's FIFO tie-breaking, and every fault
// decision is drawn from the engine's seeded random source.
package netsim

import (
	"fmt"
	"time"

	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/sim"
)

// NodeID identifies a network node; nodes host exactly one process, so the
// node identifier is the process identifier.
type NodeID = ids.ProcessID

// Addr is a multicast address. Protocol layers derive addresses from group
// identifiers (one address per heavy-weight group plus discovery and naming
// addresses).
type Addr string

// Message is anything that can be sent on the network. WireSize returns the
// payload size in bytes; netsim adds per-frame header overhead on top.
type Message interface {
	WireSize() int
}

// Kinder is optionally implemented by messages to label per-kind traffic
// accounting (e.g. "data", "heartbeat", "flush").
type Kinder interface {
	Kind() string
}

// Handler receives delivered messages on a node.
type Handler func(from NodeID, addr Addr, msg Message)

// Transport is the network surface the protocol stacks (vsync, naming,
// core) are written against. The simulated Network implements it; so
// does the real-time UDP transport (internal/rtnet), which is how the
// same protocol code runs both under the deterministic simulator and on
// a real network.
type Transport interface {
	// Sim returns the event engine providing the clock and timers. A
	// real-time transport drives its engine from wall-clock time.
	Sim() *sim.Sim
	// Multicast sends to every subscriber of addr (including the sender
	// if subscribed).
	Multicast(from NodeID, addr Addr, msg Message)
	// Unicast sends to one node; addr names the protocol endpoint for
	// dispatch and needs no subscription.
	Unicast(from, to NodeID, addr Addr, msg Message)
	// Subscribe and Unsubscribe manage addr membership of a local node.
	Subscribe(id NodeID, addr Addr)
	Unsubscribe(id NodeID, addr Addr)
}

// Params configures the network model. The defaults (see DefaultParams)
// approximate the paper's testbed: SparcStation-class machines on a loaded
// 10 Mbps shared Ethernet.
type Params struct {
	// BandwidthBps is the shared bus bandwidth in bits per second.
	BandwidthBps float64
	// FrameOverheadBytes is added to every frame (Ethernet + IP + UDP
	// headers).
	FrameOverheadBytes int
	// PropDelay is the propagation delay from bus to receiver.
	PropDelay time.Duration
	// CPUPerMsg is the fixed receive-processing cost per message at each
	// receiver. Receivers process messages serially, so a node flooded
	// with unrelated traffic queues behind this cost — the interference
	// effect.
	CPUPerMsg time.Duration
	// CPUPerKB is the additional receive-processing cost per kilobyte.
	CPUPerKB time.Duration
}

// DefaultParams returns parameters approximating the paper's testbed.
func DefaultParams() Params {
	return Params{
		BandwidthBps:       10e6, // 10 Mbps shared Ethernet
		FrameOverheadBytes: 46,   // Ethernet + IP + UDP headers
		PropDelay:          50 * time.Microsecond,
		CPUPerMsg:          120 * time.Microsecond,
		CPUPerKB:           80 * time.Microsecond,
	}
}

// Stats accumulates traffic counters.
type Stats struct {
	// Frames is the number of frames placed on the bus.
	Frames int64
	// Bytes is the total bytes (payload + overhead) placed on the bus.
	Bytes int64
	// Delivered is the number of per-receiver deliveries.
	Delivered int64
	// Dropped counts deliveries suppressed by partitions, crashes or
	// injected faults.
	Dropped int64
	// BusBusy is the cumulative time the bus spent transmitting.
	BusBusy time.Duration
	// ByKind counts frames per message kind (for messages implementing
	// Kinder).
	ByKind map[string]int64
	// BytesByKind accumulates frame bytes (payload + overhead) per
	// message kind, so experiments can attribute bus load to a protocol.
	BytesByKind map[string]int64
}

type node struct {
	id        NodeID
	handler   Handler
	subs      map[Addr]bool
	cpuFreeAt sim.Time
	crashed   bool
}

// Network is the simulated shared-bus network.
type Network struct {
	sim       *sim.Sim
	params    Params
	nodes     map[NodeID]*node
	order     []NodeID // deterministic iteration order (insertion order)
	partition map[NodeID]int
	faults    *faults.Spec
	busFreeAt sim.Time
	stats     Stats
}

// New creates a network driven by the given simulation engine.
func New(s *sim.Sim, p Params) *Network {
	if p.BandwidthBps <= 0 {
		p.BandwidthBps = DefaultParams().BandwidthBps
	}
	return &Network{
		sim:       s,
		params:    p,
		nodes:     make(map[NodeID]*node),
		partition: make(map[NodeID]int),
		stats: Stats{
			ByKind:      make(map[string]int64),
			BytesByKind: make(map[string]int64),
		},
	}
}

// Sim returns the engine driving the network.
func (n *Network) Sim() *sim.Sim { return n.sim }

// Params returns the network parameters.
func (n *Network) Params() Params { return n.params }

// AddNode registers a node. Adding an existing node replaces its handler.
func (n *Network) AddNode(id NodeID, h Handler) {
	if nd, ok := n.nodes[id]; ok {
		nd.handler = h
		return
	}
	n.nodes[id] = &node{id: id, handler: h, subs: make(map[Addr]bool)}
	n.order = append(n.order, id)
}

// Subscribe adds the node to the multicast address.
func (n *Network) Subscribe(id NodeID, addr Addr) {
	if nd, ok := n.nodes[id]; ok {
		nd.subs[addr] = true
	}
}

// Unsubscribe removes the node from the multicast address.
func (n *Network) Unsubscribe(id NodeID, addr Addr) {
	if nd, ok := n.nodes[id]; ok {
		delete(nd.subs, addr)
	}
}

// Subscribed reports whether the node is subscribed to addr.
func (n *Network) Subscribed(id NodeID, addr Addr) bool {
	nd, ok := n.nodes[id]
	return ok && nd.subs[addr]
}

// Crash marks a node as crashed. A crashed node sends nothing and receives
// nothing; frames already in flight from it are still delivered (they were
// on the wire).
func (n *Network) Crash(id NodeID) {
	if nd, ok := n.nodes[id]; ok {
		nd.crashed = true
	}
}

// Crashed reports whether the node has crashed.
func (n *Network) Crashed(id NodeID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.crashed
}

// SetPartitions splits the network into the given components. Nodes not
// mentioned keep component 0. Frames are delivered only between nodes in
// the same component, evaluated at delivery time — so frames in flight when
// the partition strikes may reach some members and not others, which is
// exactly the divergence virtual synchrony must reconcile.
func (n *Network) SetPartitions(components ...[]NodeID) {
	n.partition = make(map[NodeID]int)
	for i, comp := range components {
		for _, id := range comp {
			n.partition[id] = i + 1
		}
	}
}

// SetFaults installs the spec later frames are judged by (nil clears it):
// each delivery to a receiver other than the sender is planned by that
// receiver's rule at transmit time, from the engine's seeded source.
// Self-deliveries never touch the wire, so are never faulted; a nil spec
// draws nothing.
func (n *Network) SetFaults(fs *faults.Spec) { n.faults = fs }

// Heal removes all partitions.
func (n *Network) Heal() {
	n.partition = make(map[NodeID]int)
}

// Reachable reports whether a frame from a would currently be delivered
// to b.
func (n *Network) Reachable(a, b NodeID) bool {
	if n.Crashed(a) || n.Crashed(b) {
		return false
	}
	return n.partition[a] == n.partition[b]
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	s := n.stats
	s.ByKind = make(map[string]int64, len(n.stats.ByKind))
	for k, v := range n.stats.ByKind {
		s.ByKind[k] = v
	}
	s.BytesByKind = make(map[string]int64, len(n.stats.BytesByKind))
	for k, v := range n.stats.BytesByKind {
		s.BytesByKind[k] = v
	}
	return s
}

// ResetStats zeroes the traffic counters (e.g. after warm-up).
func (n *Network) ResetStats() {
	n.stats = Stats{
		ByKind:      make(map[string]int64),
		BytesByKind: make(map[string]int64),
	}
}

// Multicast places one frame on the bus addressed to addr. Every node
// subscribed to addr and reachable from the sender at delivery time
// receives it, including the sender itself (multicast loopback), so all
// group members observe a uniform delivery order.
func (n *Network) Multicast(from NodeID, addr Addr, msg Message) {
	n.transmit(from, addr, msg, nil)
}

// Unicast places one frame on the bus addressed to a single node. The
// addr names the destination protocol endpoint (for dispatch by Mux); it
// does not require a subscription. Unicast frames share the bus with
// multicast traffic (it is one segment).
func (n *Network) Unicast(from, to NodeID, addr Addr, msg Message) {
	n.transmit(from, addr, msg, &to)
}

func (n *Network) transmit(from NodeID, addr Addr, msg Message, to *NodeID) {
	sender, ok := n.nodes[from]
	if !ok || sender.crashed {
		return
	}
	frameBytes := msg.WireSize() + n.params.FrameOverheadBytes
	tx := time.Duration(float64(frameBytes*8) / n.params.BandwidthBps * float64(time.Second))

	start := n.sim.Now()
	if n.busFreeAt > start {
		start = n.busFreeAt
	}
	end := start.Add(tx)
	n.busFreeAt = end

	n.stats.Frames++
	n.stats.Bytes += int64(frameBytes)
	n.stats.BusBusy += tx
	if k, ok := msg.(Kinder); ok {
		n.stats.ByKind[k.Kind()]++
		n.stats.BytesByKind[k.Kind()] += int64(frameBytes)
	}

	// Collect receivers in deterministic (insertion) order.
	for _, id := range n.order {
		nd := n.nodes[id]
		if to != nil {
			if id != *to {
				continue
			}
		} else if !nd.subs[addr] {
			continue
		}
		n.scheduleDelivery(from, nd, addr, msg, end)
	}
}

func (n *Network) scheduleDelivery(from NodeID, nd *node, addr Addr, msg Message, wireAt sim.Time) {
	arrival := wireAt.Add(n.params.PropDelay)
	if from != nd.id {
		send, delays := n.faults.Rule(nd.id).Plan(n.sim.Rand())
		if !send {
			n.stats.Dropped++
			return
		}
		for _, d := range delays {
			n.arrive(from, nd, addr, msg, arrival.Add(d))
		}
		if delays != nil {
			return
		}
	}
	n.arrive(from, nd, addr, msg, arrival)
}

// arrive delivers one copy of a frame to nd at the given time, unless a
// partition or crash stands in the way by then.
func (n *Network) arrive(from NodeID, nd *node, addr Addr, msg Message, arrival sim.Time) {
	n.sim.At(arrival, func() {
		// Partition and crash status are evaluated at arrival time.
		if !n.Reachable(from, nd.id) {
			n.stats.Dropped++
			return
		}
		procStart := n.sim.Now()
		if nd.cpuFreeAt > procStart {
			procStart = nd.cpuFreeAt
		}
		proc := n.params.CPUPerMsg +
			time.Duration(float64(msg.WireSize())/1024*float64(n.params.CPUPerKB))
		done := procStart.Add(proc)
		nd.cpuFreeAt = done
		n.sim.At(done, func() {
			if nd.crashed {
				n.stats.Dropped++
				return
			}
			n.stats.Delivered++
			if nd.handler != nil {
				nd.handler(from, addr, msg)
			}
		})
	})
}

// RawMessage is a convenience Message for tests and padding traffic.
type RawMessage struct {
	Bytes int
	Label string
	Data  any
}

// WireSize implements Message.
func (m RawMessage) WireSize() int { return m.Bytes }

// Kind implements Kinder.
func (m RawMessage) Kind() string {
	if m.Label == "" {
		return "raw"
	}
	return m.Label
}

// String implements fmt.Stringer.
func (m RawMessage) String() string {
	return fmt.Sprintf("raw(%s,%dB)", m.Kind(), m.Bytes)
}

var _ Transport = (*Network)(nil)
