package core

import (
	"fmt"

	"plwg/internal/ids"
	"plwg/internal/trace"
	"plwg/internal/vsync"
)

// LWG message packing: user sends from every LWG mapped on the same HWG
// coalesce into one lwgBatch multicast, amortizing the per-frame
// overhead, the vsync header, and the per-receiver processing cost
// across the batch. Each packed payload keeps its own LWG and view tag,
// so view-change filtering and the merge-views protocol see exactly the
// messages they would have seen unbatched.
//
// Ordering invariant: a batch never survives past a control message on
// its HWG. Every control send goes through hwgSend, which flushes the
// batch first — so batched data is multicast before any lwgStop,
// lwgFlushOk or lwgView it could otherwise reorder with, and LWG
// flushes account for it in the view it was sent in.
//
// Stop invariant: when the HWG itself stops (vsync flush), the vsync
// layer has already quiesced — a multicast now would be buffered and
// re-sent in the NEW heavy-weight view, still carrying the old LWG view
// tags, and dropped at every receiver as ancestor-view traffic. The
// batch is instead requeued as pending sends and re-tagged when the
// LWGs drain after the next view installs.

// Flush timing: packing is a rate limit, not a dwell. The timer-driven
// flush fires at max(now, lastFlush + maxBatchDelay), where lastFlush is
// the last data multicast this endpoint put on the HWG. On a quiet HWG
// that is a zero-delay timer, which the engine runs after every event
// already queued for the same instant (and the real-time driver after
// the inbox batch it just drained) — so sends made together, in one
// handler or in several at one instant, still leave as one frame, while
// a lone send never waits for companions that are not coming. On a busy
// HWG, timer-driven flushes are spaced at least maxBatchDelay apart and
// the batch fills in between.

// enqueueBatch adds one data message to the HWG's send batch, flushing
// by size or arming the timer-driven flush.
func (e *Endpoint) enqueueBatch(st *hwgState, msg *lwgData) {
	st.batch = append(st.batch, msg)
	st.batchBytes += msg.WireSize()
	if st.batchBytes >= e.cfg.batchMaxBytes {
		e.flushBatch(st)
		return
	}
	if st.batchTimer == nil {
		st.batchTimer = e.clock.At(st.nextFlush, func() {
			st.batchTimer = nil
			e.flushBatch(st)
		})
	}
}

// flushBatch multicasts the pending batch, if any. A single packed
// message goes out as a plain lwgData — no batch framing to pay for.
// The LWGSend trace is emitted here, not at enqueue: a batched payload
// can still be pulled back (requeueBatch) and re-stamped under a later
// view, so only the copy that actually reaches the wire counts as sent —
// anything earlier double-counts against the delivery invariants.
func (e *Endpoint) flushBatch(st *hwgState) {
	if st.batchTimer != nil {
		st.batchTimer.Stop()
		st.batchTimer = nil
	}
	if len(st.batch) == 0 || st.stopped {
		return
	}
	batch := st.batch
	bytes := st.batchBytes
	st.batch, st.batchBytes = nil, 0
	st.nextFlush = e.clock.Now().Add(e.cfg.batchMaxDelay)
	for _, msg := range batch {
		e.traceSend(msg)
	}
	e.ins.batchFlushes.Inc()
	e.ins.batchedMsgs.Add(int64(len(batch)))
	e.ins.batchedBytes.Add(int64(bytes))
	if len(batch) == 1 {
		_ = e.hwg.Send(st.gid, batch[0])
		return
	}
	_ = e.hwg.Send(st.gid, &lwgBatch{Msgs: batch})
}

// traceSend records one data payload leaving under its final view tag,
// and counts it — only the copy that reaches the wire counts as sent.
func (e *Endpoint) traceSend(msg *lwgData) {
	e.ins.sends.Inc()
	e.traceEvent(trace.Event{
		What:  trace.LWGSend,
		Text:  fmt.Sprintf("%s: %q in %v", msg.LWG, msg.Data, msg.View),
		Group: string(msg.LWG),
		View:  msg.View,
		Src:   e.pid,
		Data:  string(msg.Data),
	})
}

// hwgSend multicasts a control message on the HWG, draining any pending
// data batch first so batched lwgData never reorders after control
// traffic (the flush and switch protocols depend on this).
func (e *Endpoint) hwgSend(gid ids.HWGID, p vsync.Payload) {
	if st := e.hwgs[gid]; st != nil {
		e.flushBatch(st)
	}
	_ = e.hwg.Send(gid, p)
}

// requeueBatch returns every batched payload to its LWG's pending-send
// queue (prepended, preserving order) — used when the HWG stops and the
// batch can no longer be multicast under its current view tags.
func (e *Endpoint) requeueBatch(st *hwgState) {
	if st.batchTimer != nil {
		st.batchTimer.Stop()
		st.batchTimer = nil
	}
	if len(st.batch) == 0 {
		return
	}
	batch := st.batch
	st.batch, st.batchBytes = nil, 0
	per := make(map[ids.LWGID][][]byte)
	for _, d := range batch {
		per[d.LWG] = append(per[d.LWG], d.Data)
	}
	for l, data := range per {
		if m := e.lwgs[l]; m != nil {
			m.pendingSends = append(data, m.pendingSends...)
		}
	}
}

// requeueBatchFor pulls one LWG's payloads out of the HWG batch and
// prepends them to its pending sends — used when that LWG installs a
// new view while payloads tagged with its old view are still packed
// (they would be dropped as ancestor-view traffic if multicast late).
func (e *Endpoint) requeueBatchFor(st *hwgState, m *lwgMember) {
	if len(st.batch) == 0 {
		return
	}
	var mine [][]byte
	kept := st.batch[:0]
	bytes := 0
	for _, d := range st.batch {
		if d.LWG == m.id {
			mine = append(mine, d.Data)
			continue
		}
		kept = append(kept, d)
		bytes += d.WireSize()
	}
	st.batch, st.batchBytes = kept, bytes
	if len(st.batch) == 0 && st.batchTimer != nil {
		st.batchTimer.Stop()
		st.batchTimer = nil
	}
	if len(mine) > 0 {
		m.pendingSends = append(mine, m.pendingSends...)
	}
}
