package naming

import (
	"fmt"
	"strings"
	"time"

	"plwg/internal/ids"
	"plwg/internal/metrics"
	"plwg/internal/netsim"
	"plwg/internal/sim"
	"plwg/internal/trace"
)

// Server is one name-server replica. Servers are "physically placed in
// strategic locations" (Section 5.2) — in the simulation, on a chosen
// subset of the nodes, e.g. one per prospective partition — and reconcile
// their databases by periodic anti-entropy, which also performs the
// database reconciliation when a partition heals.
//
// Reconciliation is a digest/delta exchange rather than a full database
// push: a round opens with a tiny probe carrying the initiator's
// whole-database summary hash; only if the hashes differ does the peer
// answer with its per-LWG digest vector, and only the groups whose
// digests differ have their entries shipped (in both directions, so one
// exchange still reconciles both replicas).
type Server struct {
	pid    ids.ProcessID
	net    netsim.Transport
	clock  *sim.Sim
	cfg    Config
	db     *DB
	peers  []ids.ProcessID // other servers, in ring order
	next   int             // round-robin anti-entropy cursor
	tracer trace.Tracer

	// sync tracks per-peer exchange state for the idle-skip rule.
	sync map[ids.ProcessID]*peerSync
	// stats counts anti-entropy work (see SyncStats for the names),
	// backed by the injected metrics registry.
	stats *srvMetrics

	// notified remembers the last conflict snapshot announced per LWG so
	// unchanged conflicts are re-announced only by the periodic timer.
	notified map[ids.LWGID]string

	syncTicker   *sim.Ticker
	notifyTicker *sim.Ticker
	expireTicker *sim.Ticker
}

// peerSync is one peer's anti-entropy exchange state.
type peerSync struct {
	// done is true after a completed exchange; doneGen is OUR generation
	// snapshot taken when that exchange started. While the generation
	// still equals doneGen we know nothing new has appeared locally since
	// the peer last saw our state, so the round can be skipped. Snapshot
	// at start (not completion) is deliberately conservative: entries
	// merged during the exchange advance the generation past doneGen and
	// force one cheap confirming probe next round.
	done    bool
	doneGen uint64
	// skipped counts consecutive skipped rounds; a forced probe every
	// maxIdleSkips rounds bounds the exposure to a lost ack or a
	// summary-hash collision.
	skipped int
	// pending/startGen bracket an exchange in flight: startGen is the
	// generation snapshot when we sent our probe or digest vector.
	pending  bool
	startGen uint64
}

// ServerParams bundles the dependencies of a Server.
type ServerParams struct {
	Net    netsim.Transport
	PID    ids.ProcessID
	Peers  []ids.ProcessID // all server pids (may include PID)
	Config Config
	Tracer trace.Tracer
	// Metrics receives the server's anti-entropy counters (as
	// ns_<name>_total); when nil a private registry backs SyncStats.
	Metrics *metrics.Registry
}

// NewServer creates a name server on the node. The caller must route mux
// prefix ServerPrefix to HandleMessage and call Start.
func NewServer(p ServerParams) *Server {
	tr := p.Tracer
	if tr == nil {
		tr = trace.Nop{}
	}
	var peers []ids.ProcessID
	for _, q := range p.Peers {
		if q != p.PID {
			peers = append(peers, q)
		}
	}
	return &Server{
		pid:      p.PID,
		net:      p.Net,
		clock:    p.Net.Sim(),
		cfg:      p.Config.withDefaults(),
		db:       NewDB(),
		peers:    peers,
		tracer:   tr,
		sync:     make(map[ids.ProcessID]*peerSync),
		stats:    newSrvMetrics(p.Metrics),
		notified: make(map[ids.LWGID]string),
	}
}

// Start arms the anti-entropy and conflict-notification timers.
func (s *Server) Start() {
	if s.syncTicker != nil {
		return
	}
	// Stagger by pid so servers do not sync in lockstep.
	phase := syncInterval * time.Duration(int(s.pid)%7) / 7
	s.clock.After(phase, func() {
		if s.syncTicker != nil {
			return
		}
		s.syncTicker = s.clock.Every(syncInterval, s.antiEntropy)
		s.notifyTicker = s.clock.Every(notifyInterval, s.renotifyConflicts)
		if s.cfg.MappingTTL > 0 {
			s.expireTicker = s.clock.Every(s.cfg.MappingTTL/4, s.expireLeases)
		}
	})
}

// filterLapsed drops entries whose lease has already lapsed. Without this
// admission check, two servers with offset expiry scans resurrect each
// other's garbage through anti-entropy forever: each deletes the entry,
// then re-learns it from the peer before the peer's own scan fires.
func (s *Server) filterLapsed(entries []Entry) []Entry {
	if s.cfg.MappingTTL <= 0 {
		return entries
	}
	cutoff := int64(s.clock.Now()) - int64(s.cfg.MappingTTL)
	out := entries[:0]
	for _, e := range entries {
		if e.Refreshed >= cutoff {
			out = append(out, e)
		}
	}
	return out
}

// expireLeases collects mappings whose lease lapsed (dead-view garbage)
// and re-examines only the groups that lost entries.
func (s *Server) expireLeases() {
	dirty := s.db.Expire(int64(s.clock.Now()), s.cfg.MappingTTL)
	if len(dirty) == 0 {
		return
	}
	s.trace("expire", "collected lapsed mapping leases in %d groups", len(dirty))
	for _, lwg := range dirty {
		s.checkConflict(lwg)
	}
}

// Stop cancels the server's timers.
func (s *Server) Stop() {
	if s.syncTicker != nil {
		s.syncTicker.Stop()
		s.syncTicker = nil
	}
	if s.notifyTicker != nil {
		s.notifyTicker.Stop()
		s.notifyTicker = nil
	}
	if s.expireTicker != nil {
		s.expireTicker.Stop()
		s.expireTicker = nil
	}
}

// DB exposes the server's database for introspection (scenario dumps of
// Tables 3 and 4).
func (s *Server) DB() *DB { return s.db }

// PID returns the server's node.
func (s *Server) PID() ids.ProcessID { return s.pid }

// SyncStats returns a snapshot of the server's anti-entropy counters:
//
//	rounds          anti-entropy timer fires with at least one peer
//	skipped         rounds skipped by the idle rule (no probe sent)
//	probes_sent     digest probes opened
//	vectors_sent    digest-vector replies sent
//	deltas_sent     delta messages sent (either direction)
//	delta_groups    groups whose entries were shipped in deltas
//	delta_entries   entries shipped in deltas
//	version_mismatch digest messages dropped for an alien format version
//	merge_entries   entries passed to DB.Merge from sync messages
//	merge_changed   groups actually changed by sync merges
//	conflict_checks per-group conflict examinations after merges
//	sync_bytes      modeled bytes of all sync messages sent
//	exchanges_done  completed digest exchanges (both legs)
func (s *Server) SyncStats() map[string]int64 { return s.stats.snapshot() }

// ResetSyncStats starts a fresh counting window (benchmark windows). The
// underlying registry counters stay monotonic; SyncStats reports deltas
// against the window start.
func (s *Server) ResetSyncStats() { s.stats.reset() }

// HandleMessage is the network receive entry point for ServerPrefix.
func (s *Server) HandleMessage(from netsim.NodeID, _ netsim.Addr, msg netsim.Message) {
	switch m := msg.(type) {
	case *msgRequest:
		s.onRequest(from, m)
	case *msgDigest:
		s.onDigest(m)
	case *msgDelta:
		s.onDelta(m)
	}
}

func (s *Server) onRequest(from netsim.NodeID, r *msgRequest) {
	changed := false
	switch r.Op {
	case opSetView:
		changed = s.db.Put(r.Entry)
	case opTestSet:
		// Atomic at this server: install the mapping only if the LWG has
		// no live mapping yet; either way the reply carries the current
		// live set.
		if len(s.db.Live(r.LWG)) == 0 {
			changed = s.db.Put(r.Entry)
		}
	case opDelete:
		e := r.Entry
		e.Deleted = true
		changed = s.db.Put(e)
	case opReadLive:
		// read-only
	}
	s.net.Unicast(s.pid, from, ClientPrefix, &msgReply{
		ReqID:   r.ReqID,
		Entries: s.db.Live(r.LWG),
	})
	if changed {
		s.trace("update", "%s %s by %v", r.Op, r.LWG, from)
		s.checkConflict(r.LWG)
	}
}

// peerState returns (creating if needed) the exchange state for a peer.
func (s *Server) peerState(peer ids.ProcessID) *peerSync {
	st := s.sync[peer]
	if st == nil {
		st = &peerSync{}
		s.sync[peer] = st
	}
	return st
}

// sendSync sends one anti-entropy message and accounts its modeled size.
func (s *Server) sendSync(peer ids.ProcessID, m netsim.Message) {
	s.stats.add("sync_bytes", int64(m.WireSize()))
	s.net.Unicast(s.pid, peer, ServerPrefix, m)
}

// antiEntropy runs one reconciliation round against the next ring peer.
// If our generation has not moved since the last completed exchange with
// this peer, skip the round entirely (bounded by maxIdleSkips). Otherwise
// open with a probe carrying only our summary hash; the entry exchange
// happens in onDigest/onDelta and only for the groups that actually
// differ.
func (s *Server) antiEntropy() {
	if len(s.peers) == 0 {
		return
	}
	peer := s.peers[s.next%len(s.peers)]
	s.next++
	s.stats.add("rounds", 1)
	st := s.peerState(peer)
	if st.done && st.doneGen == s.db.Generation() && st.skipped < maxIdleSkips {
		st.skipped++
		s.stats.add("skipped", 1)
		return
	}
	st.skipped = 0
	st.pending = true
	st.startGen = s.db.Generation()
	s.stats.add("probes_sent", 1)
	s.tracer.Trace(trace.Event{
		At:    s.clock.Now(),
		Node:  s.pid,
		Layer: "ns",
		What:  trace.NSDigest,
		Ref:   peer.String(),
		Text:  fmt.Sprintf("probe to %v gen=%d", peer, st.startGen),
	})
	s.sendSync(peer, &msgDigest{
		From:    s.pid,
		Version: digestVersion,
		Gen:     st.startGen,
		DBHash:  s.db.Hash(),
	})
}

func (s *Server) onDigest(m *msgDigest) {
	if m.Version != digestVersion {
		// Summaries in a format we cannot interpret: outside input, dropped
		// and counted, never answered.
		s.stats.add("version_mismatch", 1)
		return
	}
	if !m.Reply {
		// Probe from an initiator. Equal summary hashes end the exchange
		// with an empty ack — and tell us the peer has our state, so our
		// own next round against it can skip too.
		if m.DBHash == s.db.Hash() {
			st := s.peerState(m.From)
			st.done = true
			st.doneGen = s.db.Generation()
			st.pending = false
			s.stats.add("deltas_sent", 1)
			s.sendSync(m.From, &msgDelta{From: s.pid, Reply: true})
			return
		}
		// Hashes differ: answer with our digest vector; the initiator
		// computes the differing groups. Completion for our side is the
		// initiator's delta (handled in onDelta).
		st := s.peerState(m.From)
		st.pending = true
		st.startGen = s.db.Generation()
		s.stats.add("vectors_sent", 1)
		s.tracer.Trace(trace.Event{
			At:    s.clock.Now(),
			Node:  s.pid,
			Layer: "ns",
			What:  trace.NSDigest,
			Ref:   m.From.String(),
			Text:  fmt.Sprintf("digest vector to %v (hash differs)", m.From),
		})
		s.sendSync(m.From, &msgDigest{
			From:    s.pid,
			Version: digestVersion,
			Gen:     st.startGen,
			DBHash:  s.db.Hash(),
			Digests: s.db.DigestVector(),
			Reply:   true,
		})
		return
	}
	// Digest vector from the responder: ship entries for every group
	// whose digests differ, and ask (zero digest, no entries) for groups
	// only the responder has. The delta also carries our digest per
	// group so the responder can tell whether a reverse delta is needed.
	diff := diffDigests(s.db.DigestVector(), m.Digests)
	groups := make([]groupDelta, 0, len(diff))
	for _, lwg := range diff {
		groups = append(groups, groupDelta{
			LWG:     lwg,
			D:       s.db.DigestOf(lwg),
			Entries: s.db.EntriesOf(lwg),
		})
	}
	s.stats.add("deltas_sent", 1)
	s.stats.add("delta_groups", int64(len(groups)))
	for _, g := range groups {
		s.stats.add("delta_entries", int64(len(g.Entries)))
	}
	s.sendSync(m.From, &msgDelta{From: s.pid, Groups: groups})
}

func (s *Server) onDelta(m *msgDelta) {
	// Merge what the peer sent, tracking which groups changed.
	var dirty []ids.LWGID
	entries := 0
	for _, g := range m.Groups {
		entries += len(g.Entries)
		dirty = append(dirty, s.db.Merge(s.filterLapsed(g.Entries))...)
	}
	if !m.Reply {
		// Initiator's delta: answer with our entries for every group
		// whose post-merge digest still differs from the one the
		// initiator reported — those are exactly the groups where the
		// initiator's state is not yet the merge of both replicas.
		reply := make([]groupDelta, 0, len(m.Groups))
		for _, g := range m.Groups {
			d := s.db.DigestOf(g.LWG)
			if d == g.D {
				continue
			}
			reply = append(reply, groupDelta{
				LWG:     g.LWG,
				D:       d,
				Entries: s.db.EntriesOf(g.LWG),
			})
		}
		s.stats.add("deltas_sent", 1)
		s.stats.add("delta_groups", int64(len(reply)))
		for _, g := range reply {
			s.stats.add("delta_entries", int64(len(g.Entries)))
		}
		s.sendSync(m.From, &msgDelta{From: s.pid, Groups: reply, Reply: true})
	}
	// Either side: receiving a delta completes the exchange in flight.
	if st := s.sync[m.From]; st != nil && st.pending {
		st.pending = false
		st.done = true
		st.doneGen = st.startGen
		st.skipped = 0
		s.stats.add("exchanges_done", 1)
	}
	if len(dirty) > 0 {
		s.stats.add("merge_entries", int64(entries))
		s.stats.add("merge_changed", int64(len(dirty)))
		s.trace("reconcile", "merged delta of %d groups from %v", len(m.Groups), m.From)
		s.checkConflicts(dirty)
	}
}

// checkConflicts re-examines only the given (dirty) groups.
func (s *Server) checkConflicts(lwgs []ids.LWGID) {
	for _, lwg := range lwgs {
		s.checkConflict(lwg)
	}
}

// checkConflict sends MULTIPLE-MAPPINGS to the coordinator of every live
// view of the LWG when concurrent views are mapped onto different HWGs
// (the global peer discovery of Section 6.1).
func (s *Server) checkConflict(lwg ids.LWGID) {
	s.stats.add("conflict_checks", 1)
	if !s.db.Conflict(lwg) {
		delete(s.notified, lwg)
		return
	}
	live := s.db.Live(lwg)
	snap := snapshot(live)
	if s.notified[lwg] == snap {
		return // unchanged; the periodic timer re-announces
	}
	s.notified[lwg] = snap
	s.notify(lwg, live)
}

// renotifyConflicts periodically re-announces persisting conflicts, in
// case an earlier callback was lost to a partition or raced a view
// change.
func (s *Server) renotifyConflicts() {
	for _, lwg := range s.db.LWGs() {
		if s.db.Conflict(lwg) {
			live := s.db.Live(lwg)
			s.notified[lwg] = snapshot(live)
			s.notify(lwg, live)
		}
	}
}

func (s *Server) notify(lwg ids.LWGID, live []Entry) {
	targets := make(map[ids.ProcessID]bool)
	for _, e := range live {
		targets[e.View.Coord] = true
	}
	coords := make(ids.Members, 0, len(targets))
	for coord := range targets {
		coords = append(coords, coord)
	}
	coords = ids.NewMembers(coords...) // deterministic emission order
	s.tracer.Trace(trace.Event{
		At:    s.clock.Now(),
		Node:  s.pid,
		Layer: "ns",
		What:  "multiple-mappings",
		Text:  fmt.Sprintf("%s has %d conflicting mappings", lwg, len(live)),
		Group: string(lwg),
	})
	for _, coord := range coords {
		s.net.Unicast(s.pid, coord, CallbackPrefix, &MsgMultipleMappings{
			LWG:      lwg,
			Mappings: append([]Entry(nil), live...),
		})
	}
}

func snapshot(es []Entry) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = fmt.Sprintf("%v>%v@%d", e.View, e.HWG, e.Ver)
	}
	return strings.Join(parts, ";")
}

func (s *Server) trace(what, format string, args ...any) {
	s.tracer.Trace(trace.Event{
		At:    s.clock.Now(),
		Node:  s.pid,
		Layer: "ns",
		What:  what,
		Text:  fmt.Sprintf(format, args...),
	})
}
