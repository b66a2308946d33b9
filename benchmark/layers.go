package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"plwg"
	"plwg/internal/ids"
	"plwg/internal/naming"
	"plwg/internal/netsim"
	"plwg/internal/rtnet"
	"plwg/internal/sim"
	"plwg/internal/vsync"
	"plwg/internal/wire"
)

// Layer ceilings: each calls one layer's public functions with the
// layers below it at zero cost, so that an end-to-end rate can be read
// against the minimum of its layers and the gap is the cost of putting
// them together. They do not depend on the workload and are the same in
// every traced run.

// zeroDelay is a network that costs nothing: no serialisation, no
// propagation, no receive processing.
var zeroDelay = netsim.Params{BandwidthBps: 1e18}

const (
	ceilingMsgs    = 20000
	ceilingGap     = 100 * time.Microsecond // virtual time between sends
	ceilingPayload = 1024
)

// runLayers runs every ceiling and adds its metrics to res.
func runLayers(res *Result) error {
	wireCeiling(res)
	simCeiling(res)
	vs, err := vsyncCeiling(res)
	if err != nil {
		return err
	}
	if err := coreCeiling(res, vs); err != nil {
		return err
	}
	if err := namingCeiling(res); err != nil {
		return err
	}
	return echoCeiling(res)
}

// wireCeiling prices the codec alone on the representative 1 KiB data
// message, against gob on the same message.
func wireCeiling(res *Result) {
	names := map[string]string{
		"encode-wire": "wire.encode", "decode-wire": "wire.decode",
		"encode-gob": "wire.gob_encode", "decode-gob": "wire.gob_decode",
	}
	for _, st := range vsync.CodecBenchStats() {
		name := names[st.Name]
		res.set(name+"_ns", "ns", st.NsPerOp, 1)
		if name == "wire.encode" || name == "wire.decode" {
			res.set(name+"_allocs", "count", st.AllocsPerOp, 1)
		}
	}
}

// simCeiling prices the event engine: timers with empty handlers.
func simCeiling(res *Result) {
	const events = 1 << 20
	s := sim.New(1)
	t0 := time.Now()
	for i := 0; i < events; i++ {
		s.After(time.Duration(i%4096)*time.Microsecond, func() {})
	}
	s.Run()
	res.set("sim.events_per_s", "1/s", events/time.Since(t0).Seconds(), events)
}

// blob is an opaque payload for the bare vsync stacks.
type blob struct{ size int }

func (b blob) WireSize() int { return b.size }

// countUp counts Data upcalls of a bare vsync stack and answers Stop at
// once.
type countUp struct {
	st   *vsync.Stack
	data int
}

func (u *countUp) View(ids.HWGID, ids.View)                     {}
func (u *countUp) Data(ids.HWGID, ids.ProcessID, vsync.Payload) { u.data++ }
func (u *countUp) Stop(gid ids.HWGID)                           { _ = u.st.StopOk(gid) }

// vsyncCeiling runs three vsync.NewStack endpoints in one heavy-weight
// group over the zero-delay network and returns the wall time per
// message.
func vsyncCeiling(res *Result) (float64, error) {
	s := sim.New(1)
	nw := netsim.New(s, zeroDelay)
	var stacks []*vsync.Stack
	var ups []*countUp
	for i := 0; i < rtNodes; i++ {
		up := &countUp{}
		st := vsync.NewStack(vsync.Params{Net: nw, PID: ids.ProcessID(i), Upcalls: up})
		up.st = st
		mux := netsim.NewMux()
		mux.Handle(vsync.AddrPrefix, st.HandleMessage)
		nw.AddNode(ids.ProcessID(i), mux.Handler())
		stacks, ups = append(stacks, st), append(ups, up)
	}
	const gid ids.HWGID = 1
	if err := stacks[0].Create(gid); err != nil {
		return 0, err
	}
	for _, st := range stacks[1:] {
		if err := st.Join(gid); err != nil {
			return 0, err
		}
	}
	s.RunFor(3 * time.Second)
	if v, ok := stacks[0].CurrentView(gid); !ok || len(v.Members) != rtNodes {
		return 0, fmt.Errorf("vsync ceiling: group did not form")
	}
	nw.ResetStats()
	t0 := time.Now()
	for i := 0; i < ceilingMsgs; i++ {
		if err := stacks[0].Send(gid, blob{ceilingPayload}); err != nil {
			return 0, err
		}
		s.RunFor(ceilingGap)
	}
	s.RunFor(time.Second)
	wall := time.Since(t0)
	for i, up := range ups {
		if up.data != ceilingMsgs {
			return 0, fmt.Errorf("vsync ceiling: node %d delivered %d of %d", i, up.data, ceilingMsgs)
		}
	}
	perMsg := float64(wall.Microseconds()) / ceilingMsgs
	res.set("vsync.wall_us_per_msg", "us", perMsg, ceilingMsgs)
	res.set("vsync.frames_per_msg", "ratio", float64(nw.Stats().Frames)/ceilingMsgs, ceilingMsgs)
	return perMsg, nil
}

// coreCeiling runs the same load through three full endpoints (core
// over vsync over naming) on the zero-delay network; what it costs
// beyond the vsync ceiling is core's.
func coreCeiling(res *Result, vsyncUs float64) error {
	c, err := plwg.NewCluster(plwg.Config{Nodes: rtNodes, Seed: 1, Net: zeroDelay})
	if err != nil {
		return err
	}
	delivered := 0
	var groups []*plwg.Group
	for i := 0; i < rtNodes; i++ {
		g, err := c.Process(i).Join("ceiling")
		if err != nil {
			return err
		}
		if i > 0 {
			g.OnData(func(plwg.ProcessID, []byte) { delivered++ })
		}
		groups = append(groups, g)
		c.Run(time.Second)
	}
	if v, ok := groups[0].View(); !ok || len(v.Members) != rtNodes {
		return fmt.Errorf("core ceiling: group did not form")
	}
	t0 := time.Now()
	for i := 0; i < ceilingMsgs; i++ {
		if err := groups[0].Send(make([]byte, ceilingPayload)); err != nil {
			return err
		}
		c.Run(ceilingGap)
	}
	c.Run(time.Second)
	wall := time.Since(t0)
	if delivered != ceilingMsgs*(rtNodes-1) {
		return fmt.Errorf("core ceiling: %d of %d deliveries", delivered, ceilingMsgs*(rtNodes-1))
	}
	res.set("core.wall_us_per_msg", "us", float64(wall.Microseconds())/ceilingMsgs-vsyncUs, ceilingMsgs)
	return nil
}

// namingCeiling runs two naming servers alone on the zero-delay
// network: what a steady-state anti-entropy round costs with 1,024
// mappings on both, and how long two disjoint halves take to become
// one database.
func namingCeiling(res *Result) error {
	const mappings = 1024
	build := func() (*sim.Sim, []*naming.Server) {
		s := sim.New(1)
		nw := netsim.New(s, zeroDelay)
		pids := []ids.ProcessID{0, 1}
		var servers []*naming.Server
		for _, pid := range pids {
			srv := naming.NewServer(naming.ServerParams{
				Net: nw, PID: pid, Peers: pids, Config: naming.Config{MappingTTL: -1},
			})
			mux := netsim.NewMux()
			mux.Handle(naming.ServerPrefix, srv.HandleMessage)
			nw.AddNode(pid, mux.Handler())
			srv.Start()
			servers = append(servers, srv)
		}
		return s, servers
	}
	entry := func(i int) naming.Entry {
		return naming.Entry{
			LWG:  ids.LWGID(fmt.Sprintf("lwg-%04d", i)),
			View: ids.ViewID{Coord: ids.ProcessID(i % 2), Seq: 1},
			HWG:  ids.HWGID(i%8) + 1,
			Ver:  1,
		}
	}

	s, servers := build()
	for i := 0; i < mappings; i++ {
		for _, srv := range servers {
			srv.DB().Put(entry(i))
		}
	}
	s.RunFor(3 * time.Second)
	for _, srv := range servers {
		srv.ResetSyncStats()
	}
	t0 := time.Now()
	s.RunFor(60 * time.Second)
	wall := time.Since(t0)
	var rounds, bytes int64
	for _, srv := range servers {
		st := srv.SyncStats()
		rounds += st["rounds"]
		bytes += st["sync_bytes"]
	}
	if rounds == 0 {
		return fmt.Errorf("naming ceiling: no anti-entropy rounds")
	}
	res.set("naming.sync_bytes_per_round", "B", float64(bytes)/float64(rounds), rounds)
	res.set("naming.sync_wall_us_per_round", "us", float64(wall.Microseconds())/float64(rounds), rounds)

	s, servers = build()
	for i := 0; i < mappings; i++ {
		servers[i*2/mappings].DB().Put(entry(i))
	}
	start := s.Now()
	for servers[0].DB().Hash() != servers[1].DB().Hash() {
		if s.Now().Sub(start) > churnWaitMax {
			return fmt.Errorf("naming ceiling: halves did not converge")
		}
		s.RunFor(time.Millisecond)
	}
	res.set("naming.heal_sync_ms", "ms", ms(s.Now().Sub(start)), 1)
	return nil
}

// echoMsg is the benchmark's own wire type: the transport carries it
// with no protocol above.
type echoMsg struct {
	At   int64
	Body []byte
}

const echoWireID = 200 // outside the ranges the protocol packages register

func (m *echoMsg) WireSize() int { return 8 + len(m.Body) }
func (m *echoMsg) WireID() byte  { return echoWireID }
func (m *echoMsg) MarshalWire(b *wire.Buffer) bool {
	b.Int64(m.At)
	b.Bytes(m.Body)
	return true
}

func init() {
	wire.Register(echoWireID, func(r *wire.Reader) (wire.Marshaler, error) {
		m := &echoMsg{At: r.Int64()}
		m.Body = append([]byte(nil), r.Bytes()...)
		return m, r.Err()
	})
}

// echoPair is two bare transports on loopback: B echoes, A times.
type echoPair struct {
	da, db *rtnet.Driver
	ta, tb *rtnet.Transport
	rtt    *hist
	count  atomic.Int64
	stop   atomic.Bool
}

const echoAddr netsim.Addr = "echo"

func newEchoPair() (*echoPair, error) {
	p := &echoPair{rtt: new(hist)}
	listen := func() (*net.UDPConn, error) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		_ = conn.SetReadBuffer(4 << 20) // as rtnet.Listen does; the kernel may cap it
		_ = conn.SetWriteBuffer(4 << 20)
		return conn, nil
	}
	ca, err := listen()
	if err != nil {
		return nil, err
	}
	cb, err := listen()
	if err != nil {
		ca.Close()
		return nil, err
	}
	peers := map[ids.ProcessID]*net.UDPAddr{
		0: ca.LocalAddr().(*net.UDPAddr), 1: cb.LocalAddr().(*net.UDPAddr),
	}
	p.da, p.db = rtnet.NewDriver(1), rtnet.NewDriver(2)
	p.ta, p.tb = rtnet.NewTransport(p.da, 0, ca, peers), rtnet.NewTransport(p.db, 1, cb, peers)
	p.tb.SetHandler(func(from netsim.NodeID, addr netsim.Addr, msg netsim.Message) {
		p.tb.Unicast(1, from, addr, msg)
	})
	p.ta.SetHandler(func(_ netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
		m, ok := msg.(*echoMsg)
		if !ok {
			return
		}
		p.rtt.add(now() - m.At)
		p.count.Add(1)
		if !p.stop.Load() {
			m.At = now()
			p.ta.Unicast(0, 1, echoAddr, m)
		}
	})
	for _, t := range []*rtnet.Transport{p.ta, p.tb} {
		t.Start()
	}
	p.da.Start()
	p.db.Start()
	return p, nil
}

func (p *echoPair) close() {
	p.da.Close()
	p.db.Close()
	p.ta.Close()
	p.tb.Close()
}

// run keeps window messages of size bytes circling for d and returns
// the round-trip histogram and the echo rate.
func (p *echoPair) run(window, size int, d time.Duration) (*hist, float64) {
	p.da.Call(func() {
		p.rtt = new(hist)
		p.stop.Store(false)
	})
	p.count.Store(0)
	t0 := time.Now()
	p.da.Call(func() {
		for i := 0; i < window; i++ {
			body := make([]byte, size)
			binary.LittleEndian.PutUint64(body, uint64(i))
			p.ta.Unicast(0, 1, echoAddr, &echoMsg{At: now(), Body: body})
		}
	})
	time.Sleep(d)
	p.stop.Store(true)
	n := p.count.Load()
	elapsed := time.Since(t0)
	time.Sleep(20 * time.Millisecond) // let the circle empty before the next run
	var h *hist
	p.da.Call(func() { h = p.rtt })
	return h, float64(n) / elapsed.Seconds()
}

// echoCeiling prices the transport alone: round trips of one message at
// a time (the floor of any one-way latency is half of that), the rate
// with 64 in flight (the ceiling of any delivery rate), and the round
// trip of 32 KiB, which takes the fragment path.
func echoCeiling(res *Result) error {
	p, err := newEchoPair()
	if err != nil {
		return err
	}
	defer p.close()
	p.run(1, ceilingPayload, 200*time.Millisecond) // warm the sockets and the pools
	h, _ := p.run(1, ceilingPayload, time.Second)
	if h.n == 0 {
		return fmt.Errorf("echo ceiling: nothing came back")
	}
	res.set("rtnet.echo_rtt_p50_us", "us", h.quantile(0.5)/1e3, h.n)
	res.set("rtnet.echo_rtt_p99_us", "us", h.quantile(0.99)/1e3, h.n)
	_, rate := p.run(64, ceilingPayload, time.Second)
	res.set("rtnet.echo_msgs_per_s", "msgs/s", rate, int64(rate))
	h, _ = p.run(1, 32<<10, time.Second)
	if h.n == 0 {
		return fmt.Errorf("echo ceiling: no 32 KiB message came back")
	}
	res.set("rtnet.echo_32k_rtt_p50_us", "us", h.quantile(0.5)/1e3, h.n)
	return nil
}
