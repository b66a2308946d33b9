// Command lwgnode runs the partitionable light-weight group service on a
// real network (UDP). Two modes:
//
// Demo (default): boots a four-node cluster over loopback UDP inside one
// process, joins a group everywhere, injects a partition, lets both
// sides work, heals, and narrates the reconciliation:
//
//	lwgnode -demo
//
// Single node: one process of a multi-process deployment. Every process
// needs the same peer list and naming-server list:
//
//	lwgnode -pid 0 -listen 127.0.0.1:7100 \
//	        -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 \
//	        -servers 0 -join chat -chat
//
// In single-node mode the process joins the named groups, prints every
// view change and delivery, and (with -chat) multicasts a line per
// second. With -debug addr it also serves live introspection over HTTP:
// /metrics (text exposition), /debug/trace (JSONL event snapshot),
// /debug/lwg (membership and mappings) and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"plwg/internal/core"
	"plwg/internal/faults"
	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/rtnet"
	"plwg/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lwgnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lwgnode", flag.ContinueOnError)
	demo := fs.Bool("demo", false, "run the self-contained four-node demo")
	pid := fs.Int("pid", 0, "this process's identifier")
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	peersFlag := fs.String("peers", "", "peer map: 0=host:port,1=host:port,...")
	serversFlag := fs.String("servers", "0", "naming-server pids, comma separated")
	joinFlag := fs.String("join", "", "groups to join, comma separated")
	chat := fs.Bool("chat", false, "multicast a line per second on each joined group")
	runFor := fs.Duration("for", 0, "exit after this long (0 = until SIGINT)")
	faultsFlag := fs.String("faults", "", "outbound fault spec, e.g. 'loss=0.1,delay=1ms..5ms;3:block' (grammar: faults.Parse)")
	debug := fs.String("debug", "", "serve /metrics, /debug/trace, /debug/lwg and /debug/pprof on this HTTP address (e.g. 127.0.0.1:7180)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *demo || *peersFlag == "" {
		return runDemo()
	}
	return runSingle(*pid, *listen, *peersFlag, *serversFlag, *joinFlag, *chat, *runFor, *faultsFlag, *debug)
}

// printer logs upcalls (invoked on the protocol goroutine).
type printer struct{ pid int }

func (p printer) View(lwg ids.LWGID, v ids.View) {
	fmt.Printf("[p%d] %s: view %v\n", p.pid, lwg, v)
}

func (p printer) Data(lwg ids.LWGID, src ids.ProcessID, data []byte) {
	fmt.Printf("[p%d] %s: %v says %q\n", p.pid, lwg, src, data)
}

func runSingle(pid int, listen, peersFlag, serversFlag, joinFlag string, chat bool, runFor time.Duration, faultsFlag, debug string) error {
	peers, err := parsePeers(peersFlag)
	if err != nil {
		return err
	}
	servers, err := parsePids(serversFlag)
	if err != nil {
		return err
	}
	faultSpec, err := faults.Parse(faultsFlag)
	if err != nil {
		return err
	}
	cfg := rtnet.NodeConfig{
		PID:         ids.ProcessID(pid),
		Listen:      listen,
		Peers:       peers,
		NameServers: servers,
		Upcalls:     printer{pid: pid},
		Seed:        int64(pid + 1),
	}
	if debug != "" {
		// The debug endpoint implies full observability: a registry for
		// /metrics and a ring for /debug/trace snapshots.
		cfg.Metrics = metrics.NewRegistry()
		cfg.Tracer = trace.NewRing(trace.DefaultRingCapacity)
	}
	node, err := rtnet.Listen(cfg)
	if err != nil {
		return err
	}
	defer node.Close()
	node.SetFaults(faultSpec)
	if err := node.Start(); err != nil {
		return err
	}
	fmt.Printf("node p%d listening on %v\n", pid, node.Addr())
	if faultsFlag != "" {
		fmt.Printf("node p%d injecting faults: %s\n", pid, faultSpec)
	}
	if debug != "" {
		ln, err := net.Listen("tcp", debug)
		if err != nil {
			return fmt.Errorf("debug listen %q: %w", debug, err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, node.DebugHandler()) }()
		fmt.Printf("node p%d debug endpoint on http://%v\n", pid, ln.Addr())
	}

	groups := splitList(joinFlag)
	for _, g := range groups {
		g := ids.LWGID(g)
		node.Do(func(ep *core.Endpoint) {
			if err := ep.Join(g); err != nil {
				fmt.Fprintf(os.Stderr, "join %s: %v\n", g, err)
			}
		})
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var timeout <-chan time.Time
	if runFor > 0 {
		timeout = time.After(runFor)
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-stop:
			return nil
		case <-timeout:
			return nil
		case <-tick.C:
			if !chat {
				continue
			}
			n++
			msg := []byte(fmt.Sprintf("hello %d from p%d", n, pid))
			for _, g := range groups {
				g := ids.LWGID(g)
				node.Do(func(ep *core.Endpoint) { _ = ep.Send(g, msg) })
			}
		}
	}
}

func runDemo() error {
	fmt.Println("=== lwgnode demo: 4 nodes over real UDP (loopback) ===")
	const n = 4
	nodes := make([]*rtnet.Node, n)
	for i := 0; i < n; i++ {
		node, err := rtnet.Listen(rtnet.NodeConfig{
			PID:         ids.ProcessID(i),
			Listen:      "127.0.0.1:0",
			NameServers: []ids.ProcessID{0, 2},
			Upcalls:     printer{pid: i},
			Seed:        int64(i + 1),
		})
		if err != nil {
			return err
		}
		nodes[i] = node
		defer node.Close()
	}
	peers := make(map[ids.ProcessID]string, n)
	for i, node := range nodes {
		peers[ids.ProcessID(i)] = node.Addr().String()
		fmt.Printf("p%d at %v\n", i, node.Addr())
	}
	for _, node := range nodes {
		if err := node.SetPeers(peers); err != nil {
			return err
		}
		if err := node.Start(); err != nil {
			return err
		}
	}

	fmt.Println("\n--- all nodes join group \"orders\" ---")
	for i := 0; i < n; i++ {
		nodes[i].Do(func(ep *core.Endpoint) { _ = ep.Join("orders") })
	}
	time.Sleep(3 * time.Second)

	fmt.Println("\n--- multicast from p1 ---")
	nodes[1].Do(func(ep *core.Endpoint) { _ = ep.Send("orders", []byte("pre-partition")) })
	time.Sleep(time.Second)

	fmt.Println("\n--- partition {p0,p1} | {p2,p3} ---")
	block := &faults.Rule{Block: true}
	for i, node := range nodes {
		for j := range nodes {
			if (i < 2) != (j < 2) {
				node.SetLinkFault(ids.ProcessID(j), block)
			}
		}
	}
	time.Sleep(3 * time.Second)

	fmt.Println("\n--- both sides keep working ---")
	nodes[0].Do(func(ep *core.Endpoint) { _ = ep.Send("orders", []byte("A-side order")) })
	nodes[2].Do(func(ep *core.Endpoint) { _ = ep.Send("orders", []byte("B-side order")) })
	time.Sleep(2 * time.Second)

	fmt.Println("\n--- heal: reconciliation merges the views ---")
	for _, node := range nodes {
		node.SetFaults(nil)
	}
	time.Sleep(5 * time.Second)

	fmt.Println("\n--- post-merge multicast from p3 ---")
	nodes[3].Do(func(ep *core.Endpoint) { _ = ep.Send("orders", []byte("merged!")) })
	time.Sleep(2 * time.Second)
	fmt.Println("\ndemo complete")
	return nil
}

func parsePeers(s string) (map[ids.ProcessID]string, error) {
	out := make(map[ids.ProcessID]string)
	for _, part := range splitList(s) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want pid=host:port)", part)
		}
		pid, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer pid %q", kv[0])
		}
		out[ids.ProcessID(pid)] = kv[1]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty peer map")
	}
	return out, nil
}

func parsePids(s string) ([]ids.ProcessID, error) {
	var out []ids.ProcessID
	for _, part := range splitList(s) {
		pid, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad pid %q", part)
		}
		out = append(out, ids.ProcessID(pid))
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
