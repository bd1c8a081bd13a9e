// Package procctxtest seeds procctx violations.
package procctxtest

import (
	"sync"

	"linefs/internal/sim"
)

func worker(p *sim.Proc, n int) {
	go helper()             // want `raw goroutine inside a sim-process callback`
	ch := make(chan int, n) // want `make of a channel inside a sim-process callback`
	ch <- 1                 // want `channel send inside a sim-process callback`
	<-ch                    // want `channel receive inside a sim-process callback`
	close(ch)               // want `close of a channel inside a sim-process callback`
	var mu sync.Mutex       // want `sync\.Mutex inside a sim-process callback`
	_ = mu
}

func selector(p *sim.Proc, a, b chan int) {
	select { // want `select inside a sim-process callback`
	case <-a:
	case <-b:
	}
}

func spawned(env *sim.Env) {
	env.Go("w", func(p *sim.Proc) {
		ch := make(chan struct{}) // want `make of a channel inside a sim-process callback`
		_ = ch
	})
}

func helper() {}

// driver runs outside any simulation process: host concurrency is legal.
func driver() {
	var wg sync.WaitGroup
	results := make(chan int, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results <- 1
	}()
	wg.Wait()
	close(results)
}

// cooperative shows the sanctioned process-side primitives.
func cooperative(p *sim.Proc, env *sim.Env) {
	ev := sim.NewEvent(env)
	env.Go("peer", func(q *sim.Proc) { ev.Trigger(nil) })
	p.Wait(ev)
}

// codecJob is host work handed to the offload pool.
type codecJob struct {
	sim.Offload
	out int
}

func (j *codecJob) Run() { j.out = 1 }

// offloaded runs host work through the sanctioned primitive: Start and
// Join are kernel calls, not host concurrency in the proc body.
func offloaded(p *sim.Proc, j *codecJob) int {
	sim.Start(j)
	defer j.Join()
	p.Sleep(0)
	go j.Run() // want `raw goroutine inside a sim-process callback`
	return j.out
}
