package naming

import (
	"testing"
	"time"

	"plwg/internal/ids"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// blackholeNet is a minimal netsim.Transport that records every unicast
// and silently drops it (unless answer is set, which replies to each
// request immediately). It isolates the client's retry machinery from
// the full simulated network.
type blackholeNet struct {
	s      *sim.Sim
	sent   []ids.ProcessID // destination of each unicast, in order
	answer func(to ids.ProcessID, req *msgRequest)
}

func (b *blackholeNet) Sim() *sim.Sim                                        { return b.s }
func (b *blackholeNet) Multicast(netsim.NodeID, netsim.Addr, netsim.Message) {}
func (b *blackholeNet) Subscribe(netsim.NodeID, netsim.Addr)                 {}
func (b *blackholeNet) Unsubscribe(netsim.NodeID, netsim.Addr)               {}
func (b *blackholeNet) Unicast(_, to netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
	b.sent = append(b.sent, to)
	if b.answer != nil {
		if req, ok := msg.(*msgRequest); ok {
			b.answer(to, req)
		}
	}
}

func newRetryClient(nServers int, net *blackholeNet) *Client {
	servers := make([]ids.ProcessID, nServers)
	for i := range servers {
		servers[i] = ids.ProcessID(i)
	}
	return NewClient(ClientParams{Net: net, PID: 9, Servers: servers})
}

// TestRetrySweepsServerListWithBackoff: with every server silent, the
// client must sweep the full list once per round, pause between rounds,
// and only give up after retryRounds rounds.
func TestRetrySweepsServerListWithBackoff(t *testing.T) {
	s := sim.New(1)
	net := &blackholeNet{s: s}
	c := newRetryClient(2, net)

	done, ok := false, true
	c.ReadLive("a", func(_ []Entry, o bool) { done, ok = true, o })

	// Round 1 (2 servers × requestTimeout) ends by t=300ms; the old code
	// failed permanently right there.
	s.RunFor(2*requestTimeout + 50*time.Millisecond)
	if done {
		t.Fatal("request gave up after a single pass over the server list")
	}
	if len(net.sent) != 2 {
		t.Fatalf("round 1 sent %d attempts, want 2", len(net.sent))
	}

	// With backoff 200ms (+ up to 50% jitter, doubling) and three more
	// rounds, everything is over well inside 5 seconds.
	s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("request never completed")
	}
	if ok {
		t.Fatal("request reported success with every server silent")
	}
	if len(net.sent) != retryRounds*2 {
		t.Fatalf("sent %d attempts total, want %d rounds × 2 servers", len(net.sent), retryRounds)
	}
	// The sweep must rotate through both servers each round.
	seen := map[ids.ProcessID]int{}
	for _, to := range net.sent {
		seen[to]++
	}
	if seen[0] != retryRounds || seen[1] != retryRounds {
		t.Fatalf("attempts not spread over the list: %v", seen)
	}
}

// TestRetrySucceedsOnLaterRound: servers that wake up after the first
// sweep (partition heals, loss subsides) must still answer the request —
// the regression this PR fixes.
func TestRetrySucceedsOnLaterRound(t *testing.T) {
	s := sim.New(1)
	net := &blackholeNet{s: s}
	c := newRetryClient(2, net)

	done, ok := false, false
	c.ReadLive("a", func(_ []Entry, o bool) { done, ok = true, o })

	// Let round 1 fail, then "heal": answer every subsequent attempt.
	s.RunFor(2*requestTimeout + 50*time.Millisecond)
	if done {
		t.Fatal("request completed before the heal")
	}
	net.answer = func(_ ids.ProcessID, req *msgRequest) {
		s.After(10*time.Millisecond, func() {
			c.HandleMessage(0, ClientPrefix, &msgReply{ReqID: req.ReqID})
		})
	}
	s.RunFor(3 * time.Second)
	if !done || !ok {
		t.Fatalf("request did not succeed after the heal: done=%v ok=%v", done, ok)
	}
}

// TestReplyStopsAttemptTimer: when the reply lands, the in-flight
// timeout timer must be cancelled, not left to fire into a dead
// closure.
func TestReplyStopsAttemptTimer(t *testing.T) {
	s := sim.New(1)
	net := &blackholeNet{s: s}
	c := newRetryClient(1, net)

	c.ReadLive("a", func([]Entry, bool) {})
	p := c.pending[1]
	if p == nil || p.timer == nil {
		t.Fatal("no pending request/timer after issue")
	}
	tm := p.timer
	c.HandleMessage(0, ClientPrefix, &msgReply{ReqID: 1})
	// Stop reports true only if the timer was still pending — i.e. the
	// client failed to cancel it.
	if tm.Stop() {
		t.Fatal("reply left the attempt timer running on the clock")
	}
	// And no retry may fire later.
	s.RunFor(5 * time.Second)
	if len(net.sent) != 1 {
		t.Fatalf("sent %d attempts after a successful reply, want 1", len(net.sent))
	}
}

// TestRetryBackoffGrowsAndCaps: inter-round pauses grow exponentially,
// and retryRounds caps the attempts.
func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	s := sim.New(1)
	net := &blackholeNet{s: s}
	c := newRetryClient(1, net)

	var attempts []sim.Time
	net.answer = func(ids.ProcessID, *msgRequest) {
		attempts = append(attempts, s.Now())
	}
	c.ReadLive("a", func([]Entry, bool) {})
	s.RunFor(10 * time.Second)
	if len(attempts) != retryRounds {
		t.Fatalf("got %d attempts, want %d", len(attempts), retryRounds)
	}
	// Gap between consecutive attempts = requestTimeout + pause, where
	// pause_i = retryBackoff<<i + jitter in [0, 50%).
	for i := 1; i < len(attempts); i++ {
		gap := time.Duration(attempts[i] - attempts[i-1])
		pause := retryBackoff << (i - 1)
		lo := requestTimeout + pause
		hi := requestTimeout + pause*3/2
		if gap < lo || gap > hi {
			t.Fatalf("gap %d = %v, want in [%v, %v]", i, gap, lo, hi)
		}
	}
}
