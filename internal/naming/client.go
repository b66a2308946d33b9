package naming

import (
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/netsim"
	"plwg/internal/sim"
)

// Client is a process's naming-service access point. Requests go to the
// configured servers in order; a server that does not answer within
// requestTimeout (crashed, or in another partition) is skipped and the
// next one is tried — "there is a high probability of having at least one
// server available at each partition" (Section 5.2). After a full
// unanswered pass over the server list the client pauses for a jittered,
// exponentially-growing backoff (retryBackoff doubling per round) and
// sweeps the list again; only after retryRounds such passes does the
// operation complete with ok == false and leave further retries to the
// caller. Under transient loss or a short partition this rides out the
// outage instead of failing eagerly.
//
// All operations are asynchronous: the simulation is single-threaded, so
// results arrive through callbacks.
type Client struct {
	pid     ids.ProcessID
	net     netsim.Transport
	clock   *sim.Sim
	servers []ids.ProcessID

	nextReq uint64
	pending map[uint64]*pendingReq

	// Instruments (nil with metrics disabled; nil instruments no-op).
	cRequests *metrics.Counter
	cRetries  *metrics.Counter
	cFailures *metrics.Counter
}

type pendingReq struct {
	req    *msgRequest
	cb     func([]Entry, bool)
	tried  int // servers tried in the current round
	sIndex int
	rounds int // full passes over the server list so far
	// timer is the single outstanding clock entry for this request —
	// either a per-attempt timeout or an inter-round backoff sleep. It is
	// stopped when the reply lands so no dead timer stays queued.
	timer *sim.Timer
}

// ClientParams bundles the dependencies of a Client.
type ClientParams struct {
	Net     netsim.Transport
	PID     ids.ProcessID
	Servers []ids.ProcessID
	// Metrics receives the client's request/retry/failure counters; nil
	// disables them.
	Metrics *metrics.Registry
}

// NewClient creates a naming client. The caller must route mux prefix
// ClientPrefix to HandleMessage.
func NewClient(p ClientParams) *Client {
	return &Client{
		pid:       p.PID,
		net:       p.Net,
		clock:     p.Net.Sim(),
		servers:   append([]ids.ProcessID(nil), p.Servers...),
		pending:   make(map[uint64]*pendingReq),
		cRequests: p.Metrics.Counter("ns_client_requests_total"),
		cRetries:  p.Metrics.Counter("ns_client_retries_total"),
		cFailures: p.Metrics.Counter("ns_client_failures_total"),
	}
}

// HandleMessage is the network receive entry point for ClientPrefix.
func (c *Client) HandleMessage(_ netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
	r, ok := msg.(*msgReply)
	if !ok {
		return
	}
	p, ok := c.pending[r.ReqID]
	if !ok {
		return // late reply from a failed-over server
	}
	delete(c.pending, r.ReqID)
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.cb(r.Entries, true)
}

// SetView stores (or updates) the mapping of one LWG view. The callback
// receives the live mappings as the server now sees them.
func (c *Client) SetView(e Entry, cb func([]Entry, bool)) {
	c.issue(&msgRequest{Op: opSetView, LWG: e.LWG, Entry: e}, cb)
}

// ReadLive fetches the live mappings of the LWG.
func (c *Client) ReadLive(lwg ids.LWGID, cb func([]Entry, bool)) {
	c.issue(&msgRequest{Op: opReadLive, LWG: lwg}, cb)
}

// TestSet atomically installs the mapping if the LWG has no live mapping
// at the answering server, and returns the current live mappings either
// way (Table 2's ns.testset, extended with view information).
func (c *Client) TestSet(e Entry, cb func([]Entry, bool)) {
	c.issue(&msgRequest{Op: opTestSet, LWG: e.LWG, Entry: e}, cb)
}

// Delete tombstones the mapping of one LWG view (used when a group
// dissolves). The caller supplies the version from the same sequence its
// set-view refreshes use: entries are single-writer per view (the view's
// coordinator writes both refreshes and the dissolve), so the version
// totally orders a delete against the refreshes around it — a delete
// whose retry straggles in after the group was re-founded under the same
// view ID carries a provably older version and is discarded.
func (c *Client) Delete(lwg ids.LWGID, view ids.ViewID, ver uint64, cb func([]Entry, bool)) {
	c.issue(&msgRequest{Op: opDelete, LWG: lwg, Entry: Entry{
		LWG: lwg, View: view, Ver: ver, Refreshed: int64(c.clock.Now()),
	}}, cb)
}

// PreferredHWG returns the heavy-weight group a joiner should use given a
// set of live mappings: the highest group identifier, the same total
// order used by mapping reconciliation (Section 6.2).
func PreferredHWG(entries []Entry) ids.HWGID {
	var best ids.HWGID
	for _, e := range entries {
		if e.HWG > best {
			best = e.HWG
		}
	}
	return best
}

func (c *Client) issue(req *msgRequest, cb func([]Entry, bool)) {
	if len(c.servers) == 0 {
		cb(nil, false)
		return
	}
	c.nextReq++
	req.ReqID = c.nextReq
	req.From = c.pid
	c.cRequests.Inc()
	// Start at the server "closest" to this process (deterministic
	// spread: indexed by pid) so load distributes across replicas.
	p := &pendingReq{
		req: req, cb: cb,
		sIndex: int(c.pid) % len(c.servers),
	}
	c.pending[req.ReqID] = p
	c.sendAttempt(p)
}

func (c *Client) sendAttempt(p *pendingReq) {
	server := c.servers[p.sIndex%len(c.servers)]
	c.net.Unicast(c.pid, server, ServerPrefix, p.req)
	p.timer = c.clock.After(requestTimeout, func() {
		if _, live := c.pending[p.req.ReqID]; !live {
			return
		}
		p.tried++
		p.sIndex++
		c.cRetries.Inc()
		if p.tried < len(c.servers) {
			c.sendAttempt(p)
			return
		}
		// A full pass over the server list went unanswered.
		p.tried = 0
		p.rounds++
		if p.rounds >= retryRounds {
			delete(c.pending, p.req.ReqID)
			p.timer = nil
			c.cFailures.Inc()
			p.cb(nil, false)
			return
		}
		// Back off before the next pass: exponential with jitter (up to
		// +50%) so a herd of clients re-converging after a heal does not
		// resweep the servers in lockstep.
		pause := retryBackoff << (p.rounds - 1)
		if jit := int64(pause / 2); jit > 0 {
			pause += time.Duration(c.clock.Rand().Int63n(jit))
		}
		p.timer = c.clock.After(pause, func() {
			if _, live := c.pending[p.req.ReqID]; !live {
				return
			}
			c.sendAttempt(p)
		})
	})
}
