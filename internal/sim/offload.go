package sim

import (
	"runtime"
	"sync"
)

// Host offload. Some simulated work is also real host work: the LZW codec
// the NICFS compression stage models is run for real, because its output
// travels the simulated wire. Run inline, that computation stalls the one
// goroutine the event loop allows. Offloading it runs the computation on a
// host worker goroutine while the proc pays the modelled cost in virtual
// time, and the proc joins the job before it reads the output.
//
// The determinism contract (DESIGN.md §8) holds as long as a job obeys four
// rules: Run is a pure function of the job's inputs; the job owns its
// buffers exclusively from Start to Join; the joining proc joins at a point
// fixed in simulated time (after the charge it already makes for the work);
// and Run schedules no events and draws no randomness. The output is then
// the same value, consumed at the same simulated instant, as if the work had
// run inline, so the event stream cannot tell the difference.

// Job is host work that Start runs on a worker goroutine. Implementations
// embed Offload, which carries the hand-off state, and implement Run.
type Job interface {
	// Run performs the computation. It must touch only the job's own
	// fields and the buffers the job owns until Join.
	Run()
	offload() *Offload
}

// Offload is the hand-off state of one Job: embed it in the job struct. The
// zero value is ready; a job is reused across Start/Join rounds, and after
// its first round neither Start nor Join allocates.
type Offload struct {
	// done carries the job's recovered panic value (nil on success) from
	// the worker to the joiner; capacity 1, so the worker never blocks.
	done    chan any
	pending bool
}

func (o *Offload) offload() *Offload { return o }

// offloadQueueCap bounds the started-but-unclaimed jobs. It is sized well
// above what one simulation keeps in flight (a NIC's compress workers plus
// a mirror batch's frames, per node) so that Start does not block on a
// busy pool; when it does, workers drain the queue without the
// simulation's help, so the wait always ends.
const offloadQueueCap = 1024

// offloadPool is the process-wide worker pool, started by the first Start:
// a run that never offloads spawns no worker. The workers live for the
// rest of the process and the queue is never closed; they are shared by
// every Env, including experiments running side by side under -j.
var offloadPool struct {
	once sync.Once
	jobs chan Job
}

func startOffloadWorkers() {
	offloadPool.jobs = make(chan Job, offloadQueueCap)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go offloadWorker(offloadPool.jobs)
	}
}

func offloadWorker(jobs <-chan Job) {
	for j := range jobs {
		runJob(j)
	}
}

// runJob runs one job and signals its joiner, forwarding a panic instead of
// crashing the worker.
func runJob(j Job) {
	o := j.offload()
	defer func() { o.done <- recover() }()
	j.Run()
}

// Start hands j to a host worker and returns at once. The caller must Join
// the job before it reads the job's output or reuses its buffers, and must
// join it on every path out, including a kill's unwind (use defer).
// Starting a job that is still pending panics.
func Start(j Job) {
	o := j.offload()
	if o.pending {
		panic("sim: offload job started while still pending")
	}
	if o.done == nil {
		o.done = make(chan any, 1)
	}
	o.pending = true
	offloadPool.once.Do(startOffloadWorkers)
	offloadPool.jobs <- j
}

// Join blocks the calling goroutine until the job's Run has returned. A
// panic inside Run is re-raised here with the same value. Joining a job
// that is not pending (never started, or already joined) is a no-op, so a
// deferred Join may follow an explicit one.
func (o *Offload) Join() {
	if !o.pending {
		return
	}
	o.pending = false
	if r := <-o.done; r != nil {
		panic(r)
	}
}

// Pending reports whether the job was started and not yet joined.
func (o *Offload) Pending() bool { return o.pending }
