package sim

import (
	"hash/fnv"
	"testing"
	"time"
)

// hashJob is a pure host computation: an FNV-1a hash of its input.
type hashJob struct {
	Offload
	in  []byte
	out uint64
}

func (j *hashJob) Run() {
	h := fnv.New64a()
	h.Write(j.in)
	j.out = h.Sum64()
}

// offloadWorkload runs procs that each hash a buffer, pay a charge for it in
// virtual time, and sleep for a time derived from the hash. With offload
// the hash runs on a worker and is joined after the charge; without, it
// runs inline before the charge. It returns the trace digest, event count
// and a fold of every hash.
func offloadWorkload(t *testing.T, offload bool) (Digest, uint64, uint64) {
	t.Helper()
	env := NewEnv(3)
	env.EnableTrace()
	cpu := NewResource(env, 2)
	var fold uint64
	for i := 0; i < 6; i++ {
		buf := make([]byte, 64<<10)
		for k := range buf {
			buf[k] = byte(k*7 + i)
		}
		env.Go("hasher", func(p *Proc) {
			j := &hashJob{}
			defer j.Join()
			for round := 0; round < 5; round++ {
				buf[round] ^= byte(fold)
				j.in = buf
				if offload {
					Start(j)
				} else {
					j.Run()
				}
				cpu.Acquire(p, 0)
				p.Sleep(20 * time.Microsecond)
				cpu.Release()
				j.Join()
				fold = fold*31 + j.out
				p.Sleep(time.Duration(j.out%97+1) * time.Microsecond)
			}
		})
	}
	env.Run()
	d, n := env.TraceDigest(), env.TracedEvents()
	env.Shutdown()
	return d, n, fold
}

func TestOffloadDigestMatchesInline(t *testing.T) {
	t.Parallel()
	d1, n1, f1 := offloadWorkload(t, false)
	d2, n2, f2 := offloadWorkload(t, true)
	if d1 != d2 || n1 != n2 || f1 != f2 {
		t.Fatalf("offload changed the run: inline %016x/%d events/fold %x, offload %016x/%d events/fold %x",
			uint64(d1), n1, f1, uint64(d2), n2, f2)
	}
}

// slowJob takes real host time, so a joiner that did not wait would see
// done still false (and the race detector would flag the read).
type slowJob struct {
	Offload
	done bool
}

func (j *slowJob) Run() {
	time.Sleep(20 * time.Millisecond)
	j.done = true
}

func TestOffloadJoinedByKilledProc(t *testing.T) {
	t.Parallel()
	env := NewEnv(1)
	j := &slowJob{}
	victim := env.Go("victim", func(p *Proc) {
		Start(j)
		defer j.Join()
		p.Sleep(time.Second) // the modelled charge; the kill lands here
		t.Error("victim survived its kill")
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		victim.Kill()
	})
	env.Run()
	env.Shutdown()
	if j.Pending() {
		t.Fatal("killed proc unwound without joining its job")
	}
	if !j.done {
		t.Fatal("job not finished after the killed proc's join")
	}
}

type panicJob struct{ Offload }

func (j *panicJob) Run() { panic("codec fault") }

func TestOffloadPanicReraisedOnJoiner(t *testing.T) {
	t.Parallel()
	j := &panicJob{}
	Start(j)
	func() {
		defer func() {
			if r := recover(); r != "codec fault" {
				t.Fatalf("Join recovered %v, want the job's panic value", r)
			}
		}()
		j.Join()
		t.Fatal("Join returned normally from a panicked job")
	}()
	// The worker survived the panic and the job is reusable.
	h := &hashJob{in: []byte("x")}
	Start(h)
	h.Join()
	if h.out == 0 {
		t.Fatal("worker pool stopped after a job panic")
	}
}

func TestOffloadAllocationFree(t *testing.T) {
	j := &hashJob{in: []byte("steady state")}
	Start(j)
	j.Join()
	if a := testing.AllocsPerRun(1000, func() {
		Start(j)
		j.Join()
	}); a != 0 {
		t.Fatalf("Start+Join allocates %.1f allocs/op, want 0", a)
	}
}
