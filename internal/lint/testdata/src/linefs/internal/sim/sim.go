// Package sim is a stub of the simulation kernel for analyzer tests. The
// analyzers match kernel types by (package path, name), so this stub only
// needs the same shape, not the real implementation.
package sim

import "time"

// Time is a point in virtual time.
type Time int64

// Env is the stub environment.
type Env struct{}

// NewEnv creates a stub environment.
func NewEnv(seed int64) *Env { return &Env{} }

// Now returns the virtual time.
func (e *Env) Now() Time { return 0 }

// Go starts a stub process.
func (e *Env) Go(name string, fn func(*Proc)) *Proc { return &Proc{} }

// Schedule runs fn later.
func (e *Env) Schedule(d time.Duration, fn func()) {}

// Proc is the stub process.
type Proc struct{}

// Now returns the virtual time.
func (p *Proc) Now() Time { return 0 }

// Sleep advances virtual time.
func (p *Proc) Sleep(d time.Duration) {}

// Wait blocks on an event.
func (p *Proc) Wait(ev *Event) any { return nil }

// Event is the stub one-shot event.
type Event struct{}

// NewEvent creates a stub event.
func NewEvent(e *Env) *Event { return &Event{} }

// Trigger fires the event.
func (ev *Event) Trigger(val any) {}

// Queue is the stub bounded FIFO.
type Queue struct{}

// Put enqueues.
func (q *Queue) Put(p *Proc, v any) {}

// Get dequeues.
func (q *Queue) Get(p *Proc) any { return nil }

// Job is the stub offloaded host computation.
type Job interface{ Run() }

// Offload is the stub hand-off state a job embeds.
type Offload struct{}

// Join waits for the job.
func (o *Offload) Join() {}

// Start hands a job to a host worker.
func Start(j Job) {}
