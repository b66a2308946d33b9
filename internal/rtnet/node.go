package rtnet

import (
	"fmt"
	"net"
	"slices"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/trace"
)

// NodeConfig describes one live process of the light-weight group
// service.
type NodeConfig struct {
	// PID is this process's identifier.
	PID ids.ProcessID
	// Listen is the UDP address to bind ("127.0.0.1:0" for an ephemeral
	// port).
	Listen string
	// Peers maps every other process to its UDP address. It may be
	// filled in after binding (see Node.SetPeers) when ports are
	// ephemeral.
	Peers map[ids.ProcessID]string
	// NameServers lists the processes hosting naming replicas; if PID is
	// among them, this node runs a server too.
	NameServers []ids.ProcessID
	// Service and Naming override protocol configuration.
	Service core.Config
	Naming  naming.Config
	// Upcalls receives View/Data callbacks — ON THE DRIVER LOOP
	// GOROUTINE. Hand off to channels for application work.
	Upcalls core.Upcalls
	// Tracer records protocol events (optional). A *trace.Ring here
	// additionally makes the node's event history snapshottable through
	// the debug endpoint.
	Tracer trace.Tracer
	// Metrics receives instrumentation from every layer of the stack
	// (transport, vsync, core, naming); nil disables it at zero
	// hot-path cost.
	Metrics *metrics.Registry
	// TraceSampleEvery gates the wire-level trace context on
	// high-volume traffic (data/ack/heartbeat/nack envelopes): every Nth
	// such send carries the sender's causal context; control traffic
	// always does. 0 picks the default (64); a negative value disables
	// wire trace contexts entirely. Only meaningful when the node is
	// instrumented (Tracer or Metrics set) — an uninstrumented node
	// never stamps contexts.
	TraceSampleEvery int
	// Seed seeds the node's local engine.
	Seed int64
}

// DefaultTraceSampleEvery is the default wire trace-context sampling
// interval for high-volume message kinds: 1-in-64 keeps the data-plane
// overhead well inside the observability budget while still yielding
// hundreds of latency samples per second at data-plane rates.
const DefaultTraceSampleEvery = 64

// Node is one live process: driver + UDP transport + LWG endpoint (and
// possibly a naming server).
type Node struct {
	cfg NodeConfig
	d   *Driver
	tr  *Transport
	ep  *core.Endpoint
	srv *naming.Server
	mux *netsim.Mux
}

// Listen binds the node's UDP socket. Call before Start; the bound
// address (with the resolved ephemeral port) is available via Addr.
func Listen(cfg NodeConfig) (*Node, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("listen %q: %w", cfg.Listen, err)
	}
	// Large socket buffers absorb fan-out bursts; what still gets lost
	// is repaired by the vsync layer's NACK machinery.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	d := NewDriver(cfg.Seed)
	n := &Node{
		cfg: cfg,
		d:   d,
		tr:  NewTransport(d, cfg.PID, conn, nil),
		mux: netsim.NewMux(),
	}
	// Fault decisions derive from the node seed (offset so they are not
	// correlated with the protocol engine's own randomness).
	n.tr.SeedFaults(cfg.Seed ^ 0x5bd1e995)
	n.tr.Instrument(cfg.Metrics)
	// Wire trace contexts ride only on instrumented nodes: stamping costs
	// a wall-clock read and a few bytes per sampled envelope, and without
	// a tracer or registry nobody could consume them.
	if cfg.TraceSampleEvery >= 0 && (cfg.Tracer != nil || cfg.Metrics != nil) {
		every := cfg.TraceSampleEvery
		if every == 0 {
			every = DefaultTraceSampleEvery
		}
		n.tr.TraceContext(cfg.Tracer, every)
	}
	return n, nil
}

// Addr returns the bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.tr.LocalAddr() }

// SetPeers installs (or replaces) the peer address book; required before
// Start when NodeConfig.Peers was incomplete at Listen time.
func (n *Node) SetPeers(peers map[ids.ProcessID]string) error {
	resolved := make(map[ids.ProcessID]*net.UDPAddr, len(peers))
	for p, a := range peers {
		if p == n.cfg.PID {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("resolve peer %v %q: %w", p, a, err)
		}
		resolved[p] = ua
	}
	n.tr.setPeers(resolved)
	return nil
}

// Start assembles the protocol stack and begins processing.
func (n *Node) Start() error {
	for i, sp := range n.cfg.NameServers {
		if slices.Contains(n.cfg.NameServers[:i], sp) {
			return fmt.Errorf("name server %v listed twice", sp)
		}
	}
	if len(n.tr.peers) == 0 && len(n.cfg.Peers) > 0 {
		if err := n.SetPeers(n.cfg.Peers); err != nil {
			return err
		}
	}
	n.ep, n.srv = core.NewNode(core.Params{
		Net:     n.tr,
		PID:     n.cfg.PID,
		Servers: n.cfg.NameServers,
		Config:  n.cfg.Service,
		Upcalls: n.cfg.Upcalls,
		Tracer:  n.cfg.Tracer,
		Metrics: n.cfg.Metrics,
	}, n.cfg.Naming, n.mux)
	n.tr.SetHandler(n.mux.Handler())
	n.tr.Start()
	n.d.Start()
	return nil
}

// Registry returns the node's metrics registry (nil when metrics are
// disabled). Safe from any goroutine — instruments are atomic.
func (n *Node) Registry() *metrics.Registry { return n.cfg.Metrics }

// Do runs fn against the endpoint on the protocol goroutine and waits
// for it (the only safe way to issue Join/Leave/Send or read views from
// application code). After Close it returns at once without running fn.
func (n *Node) Do(fn func(ep *core.Endpoint)) {
	n.d.Call(func() { fn(n.ep) })
}

// SetFaults installs a fault configuration on this node's outgoing links
// (see faults.Parse for the grammar), replacing any previous rules; nil
// clears them all. A partition is link Block rules: block both sides for
// a symmetric split. Safe from any goroutine, at any time after Listen.
func (n *Node) SetFaults(fs *faults.Spec) { n.tr.SetFaults(fs) }

// SetLinkFault overrides the fault rule on the directed link to one peer
// (nil removes the override). Safe from any goroutine.
func (n *Node) SetLinkFault(to ids.ProcessID, r *faults.Rule) { n.tr.SetLinkFault(to, r) }

// NamingDBSnapshot returns a copy of this node's naming-server database,
// or nil when the node hosts no server or is closed. The copy is taken
// on the protocol loop, so it is a consistent point-in-time snapshot
// that the caller may read from any goroutine afterwards.
func (n *Node) NamingDBSnapshot() *naming.DB {
	var db *naming.DB
	n.d.Call(func() {
		if n.srv == nil {
			return
		}
		db = naming.NewDB()
		db.Merge(n.srv.DB().All())
	})
	return db
}

// Close stops the protocol loop and the transport.
func (n *Node) Close() {
	n.d.Close()
	n.tr.Close()
}
