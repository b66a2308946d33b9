// Package rtnet runs the protocol stacks on a real network. The same
// protocol code that runs under the deterministic simulator runs here
// unchanged: a Driver executes a sim.Sim event loop in real time (timers
// fire at wall-clock deadlines), and a Transport implements
// netsim.Transport over UDP, emulating multicast by unicast fan-out with
// receiver-side subscription filtering.
//
// Concurrency model: everything protocol-related (stacks, endpoints,
// upcalls) runs on the driver's single loop goroutine — the same
// single-threaded discipline the simulator enforces. External goroutines
// (the transport's reader, application code) enter the loop through
// Driver.Do/Call; the data plane around the loop runs on two goroutines
// per transport: the reader (socket reads, reassembly, envelope
// decoding) and the writer (bundling, socket writes), which the loop
// hands each turn's frames in one go (see the package comment in
// transport.go).
package rtnet

import (
	"sync"
	"time"

	"plwg/internal/sim"
)

// task is one unit of injected loop work. Application calls carry a
// closure in fn; decoded envelopes from the transport's reader ride
// inline in env instead (tr non-nil), so the per-packet hot path
// allocates no closure and the envelope value travels by copy into the
// inbox slice.
type task struct {
	fn  func()
	tr  *Transport
	env envelope
}

// Driver executes a simulation engine in real time. Virtual time is
// wall-clock time since Start.
type Driver struct {
	s     *sim.Sim
	start time.Time

	mu    sync.Mutex
	inbox []task
	// spare is the drained batch's backing array, handed back by the
	// loop so the inbox and the loop ping-pong between two slices
	// instead of allocating one per drain.
	spare []task

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
}

// spareCap bounds the recycled inbox backing array: a rare burst can
// grow the batch arbitrarily, but we don't pin that much memory
// forever.
const spareCap = 4096

// NewDriver creates a real-time driver around a fresh engine.
func NewDriver(seed int64) *Driver {
	return &Driver{
		s:    sim.New(seed),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Sim exposes the engine. Only code running on the loop goroutine (timer
// callbacks and functions passed to Do) may touch it.
func (d *Driver) Sim() *sim.Sim { return d.s }

// Do schedules fn to run on the loop goroutine. It is safe to call from
// any goroutine; fn runs at (approximately) the current wall-clock
// instant of virtual time. Do never blocks on fn. Once the driver is
// closed no loop will drain the inbox, so Do drops fn.
func (d *Driver) Do(fn func()) {
	select {
	case <-d.done:
		return
	default:
	}
	d.mu.Lock()
	d.inbox = append(d.inbox, task{fn: fn})
	d.mu.Unlock()
	d.wakeup()
}

// doEnvBatch injects the decoded envelopes of one datagram for delivery
// on the loop: one lock acquisition and one wakeup for the whole
// datagram. The envelope values are copied into the inbox, so the
// caller may reuse envs immediately.
func (d *Driver) doEnvBatch(t *Transport, envs []envelope) {
	if len(envs) == 0 {
		return
	}
	d.mu.Lock()
	for i := range envs {
		d.inbox = append(d.inbox, task{tr: t, env: envs[i]})
	}
	d.mu.Unlock()
	d.wakeup()
}

// inboxLen is the number of tasks waiting for the loop (sampled for
// observability).
func (d *Driver) inboxLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.inbox)
}

func (d *Driver) wakeup() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Call runs fn on the loop goroutine and waits for it to finish — the
// synchronous variant of Do, for application code that needs a result.
// Once the driver is closed Call returns without running fn; a caller
// that must know sets a flag in fn. fn never runs after Call returns.
func (d *Driver) Call(fn func()) {
	ch := make(chan struct{})
	d.Do(func() {
		defer close(ch)
		fn()
	})
	select {
	case <-ch:
	case <-d.done:
	}
}

// Start launches the loop goroutine.
func (d *Driver) Start() {
	d.startOnce.Do(func() {
		d.start = time.Now()
		go d.loop()
	})
}

// Close stops the loop and waits for it to exit. A driver never started
// has no loop to wait for, and cannot be started afterwards.
func (d *Driver) Close() {
	d.startOnce.Do(func() { close(d.done) })
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

func (d *Driver) loop() {
	defer close(d.done)
	const idleSleep = 50 * time.Millisecond
	for {
		// Run everything due up to the current wall-clock instant.
		now := sim.Time(time.Since(d.start))
		d.s.RunUntil(now)

		// Drain externally injected work (packets, application calls)
		// with a double-buffer swap: the inbox and the just-run batch
		// alternate as backing arrays, so steady state allocates
		// nothing per drain.
		d.mu.Lock()
		batch := d.inbox
		d.inbox = d.spare[:0]
		d.spare = nil
		d.mu.Unlock()
		for i := range batch {
			if batch[i].fn != nil {
				batch[i].fn()
			} else {
				batch[i].tr.deliverEnv(&batch[i].env)
			}
		}
		if len(batch) > 0 {
			// The batch may have scheduled immediate events.
			d.s.RunUntil(sim.Time(time.Since(d.start)))
		}
		// Hand the drained array back for the next swap, dropping the
		// task references (envelopes hold message payloads) so the GC
		// isn't pinned by stale batches.
		clear(batch)
		if cap(batch) <= spareCap {
			d.mu.Lock()
			if d.spare == nil {
				d.spare = batch[:0]
			}
			d.mu.Unlock()
		}

		// Sleep until the next timer deadline, an injection, or stop.
		sleep := idleSleep
		if next, ok := d.s.NextAt(); ok {
			until := time.Duration(next - sim.Time(time.Since(d.start)))
			if until < 0 {
				until = 0
			}
			if until < sleep {
				sleep = until
			}
		}
		if sleep <= 0 {
			select {
			case <-d.stop:
				return
			default:
				continue
			}
		}
		timer := time.NewTimer(sleep)
		select {
		case <-d.stop:
			timer.Stop()
			return
		case <-d.wake:
			timer.Stop()
		case <-timer.C:
		}
	}
}
