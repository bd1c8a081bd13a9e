// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives cooperative processes (goroutines) over a virtual clock.
// Exactly one goroutine — either the driver (the caller of Run) or a single
// process — runs at any moment, so simulations are fully deterministic for a
// fixed seed and independent of host scheduling. Processes block on virtual
// time (Sleep), on Events, on Resources (contended capacity such as CPU
// cores), and on Queues (bounded FIFOs).
//
// The design follows the classic process-interaction style of SimPy: the
// event loop pops the earliest event off a priority queue ordered by
// (time, sequence) and runs its action; actions either complete inline or
// hand control to a process, which runs until it blocks again.
//
// Hot-path specializations (see DESIGN.md, "Kernel performance"):
//
//   - Events are typed records ({t, seq, kind, proc, gen}), not closures, so
//     Sleep/wake, resource grants, and event triggers schedule without
//     allocating. Env.Schedule keeps a closure escape hatch (kind evClosure).
//   - The event queue is a hand-specialized 4-ary heap of records by value:
//     no container/heap interface boxing, shallower than a binary heap.
//   - The event loop migrates: when a process blocks, its own goroutine
//     keeps popping events. Handing control to another goroutine is a single
//     channel rendezvous, and a process that pops its *own* wake-up record
//     continues inline with no channel operation at all.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// maxTime is the largest representable virtual time (run-forever limit).
const maxTime = Time(1<<62 - 1)

// Dur converts a virtual time to a time.Duration for formatting.
func (t Time) Dur() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Event kinds. Wakes and starts carry their target in typed fields so the
// steady-state scheduling path never allocates; only the generic Schedule
// escape hatch carries a closure.
const (
	evClosure = iota // run fn inline on the loop goroutine
	evWake           // resume proc p if still blocked with generation gen
	evStart          // launch p's goroutine and hand control to it
)

// item is a scheduled action in the event queue, stored by value.
type item struct {
	t    Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	gen  uint64 // evWake: the wake generation armed by the blocker
	p    *Proc  // evWake, evStart
	fn   func() // evClosure
	kind uint8
}

func (a *item) before(b *item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of items ordered by (t, seq). It is
// hand-specialized (no container/heap) so push and pop move records by
// value without interface boxing, and the shallower tree halves the number
// of comparison levels relative to a binary heap.
type eventQueue struct {
	a []item
}

func (q *eventQueue) push(it item) {
	q.a = append(q.a, it)
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q.a[i].before(&q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

func (q *eventQueue) pop() item {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = item{} // drop fn/proc references for GC
	q.a = a[:n]
	a = q.a

	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if a[c].before(&a[min]) {
				min = c
			}
		}
		if !a[min].before(&a[i]) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// Env is a simulation environment: a virtual clock plus an event queue.
// All methods must be called from the driver goroutine or from a process
// belonging to this environment; Env is not safe for use from foreign
// goroutines.
type Env struct {
	now     Time
	seq     uint64
	eq      eventQueue
	limit   Time // loop() processes events with t <= limit
	driver  chan struct{}
	rng     *rand.Rand
	procSeq int
	live    int // number of live processes
	procs   []*Proc

	// stopped aborts Run at the next event boundary.
	stopped bool

	// Sim-sanitizer state (see trace.go): when tracing, every popped event
	// folds into digest.
	tracing bool
	digest  Digest
	traced  uint64
}

// NewEnv creates a simulation environment seeded deterministically.
func NewEnv(seed int64) *Env {
	return &Env{
		driver: make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Schedule runs fn at now+d. d must be non-negative. This is the closure
// escape hatch; kernel-internal wake-ups use typed records instead.
func (e *Env) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative schedule delay %v", d))
	}
	e.seq++
	e.eq.push(item{t: e.now + Time(d), seq: e.seq, kind: evClosure, fn: fn})
}

// wakeAt schedules process p, currently blocked with generation gen, to be
// resumed at time t. Stale generations (the process has since been woken by
// someone else) are ignored, which makes racing wake-ups — timeouts versus
// event triggers versus kills — safe. Allocation-free.
func (e *Env) wakeAt(t Time, p *Proc, gen uint64) {
	e.seq++
	e.eq.push(item{t: t, seq: e.seq, kind: evWake, p: p, gen: gen})
}

// Stop aborts the current Run at the next event boundary. Pending events
// remain queued; a subsequent Run resumes them.
func (e *Env) Stop() { e.stopped = true }

// Run executes events until the queue drains (all processes blocked forever
// or finished) or Stop is called.
func (e *Env) Run() {
	e.run(maxTime)
}

// RunUntil executes events with timestamps <= t (virtual nanoseconds from
// start) and then stops, leaving the clock at t.
func (e *Env) RunUntil(t time.Duration) {
	e.run(Time(t))
	if e.now < Time(t) {
		e.now = Time(t)
	}
}

// RunFor advances the simulation by d beyond the current clock.
func (e *Env) RunFor(d time.Duration) { e.RunUntil(time.Duration(e.now) + d) }

// run executes events with t <= limit on the calling (driver) goroutine
// until the loop terminates. If control was handed to a process, the driver
// parks until the loop — continued by whichever goroutine last ran — hands
// control back at termination.
func (e *Env) run(limit Time) {
	e.stopped = false
	e.limit = limit
	if next := e.loop(nil); next != nil {
		next.resume <- struct{}{}
		<-e.driver
	}
}

// loop is the migrating event loop. It processes events on the calling
// goroutine until either the queue drains / the limit is reached / Stop was
// called (returns nil: control must go back to the driver) or control must
// transfer to a process (returns that process). Callers pass their own Proc
// as self; if loop returns self, the caller's own wake-up fired and it
// simply continues running — the zero-handoff inline path.
func (e *Env) loop(self *Proc) *Proc {
	for len(e.eq.a) > 0 && !e.stopped {
		if e.eq.a[0].t > e.limit {
			return nil
		}
		it := e.eq.pop()
		if it.t < e.now {
			panic("sim: event queue time went backwards")
		}
		e.now = it.t
		if e.tracing {
			e.traceEvent(&it)
		}
		switch it.kind {
		case evClosure:
			it.fn()
		case evWake:
			p := it.p
			if p.terminated || p.gen != it.gen || !p.blocked {
				continue // stale wake-up
			}
			p.blocked = false
			return p
		case evStart:
			go it.p.top()
			return it.p
		}
	}
	return nil
}

// handoff transfers control from the calling goroutine to next (a process,
// or the driver when next is nil). The caller must park or exit afterwards.
func (e *Env) handoff(next *Proc) {
	if next != nil {
		next.resume <- struct{}{}
	} else {
		e.driver <- struct{}{}
	}
}

// Live reports the number of processes that have started and not finished.
func (e *Env) Live() int { return e.live }

// Shutdown kills every live process and drains their unwinding, releasing
// all goroutines (and therefore everything the simulation references) for
// garbage collection. Unwinding may spawn further processes (cleanup
// helpers); Shutdown keeps killing and draining until no process remains.
// If a pass makes no progress — live processes that will not unwind — it
// panics with their names rather than silently leaking goroutines.
// The environment must not be used afterwards.
func (e *Env) Shutdown() {
	for e.live > 0 {
		prev := e.live
		for _, p := range e.procs {
			p.Kill()
		}
		e.run(maxTime)
		if e.live >= prev {
			var stuck []string
			for _, p := range e.procs {
				if !p.terminated {
					stuck = append(stuck, p.name)
				}
			}
			panic(fmt.Sprintf("sim: Shutdown made no progress; %d stuck processes: %v", len(stuck), stuck))
		}
	}
	e.procs = nil
	e.eq.a = nil
	// Return freed pages to the OS: simulations touch GBs of PM pages and
	// back-to-back experiments would otherwise accumulate resident memory.
	debug.FreeOSMemory()
}
