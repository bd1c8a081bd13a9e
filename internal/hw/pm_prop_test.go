package hw

import (
	"bytes"
	"math/rand"
	"testing"

	"linefs/internal/sim"
)

// pmModel is the obviously-correct PM reference: two full arrays, where
// persist copies the window wholesale (unwritten bytes are identical in
// both views, so copying them is the identity) and crash rewinds the
// volatile view to the durable bytes.
type pmModel struct {
	durable  []byte
	volatile []byte
}

func newPMModel(size int64) *pmModel {
	return &pmModel{durable: make([]byte, size), volatile: make([]byte, size)}
}

func (m *pmModel) write(off int64, src []byte) { copy(m.volatile[off:], src) }
func (m *pmModel) persist(off, n int64)        { copy(m.durable[off:off+n], m.volatile[off:off+n]) }
func (m *pmModel) persistAll()                 { copy(m.durable, m.volatile) }
func (m *pmModel) crash()                      { copy(m.volatile, m.durable) }

// pmWindow draws a range [off, off+n) with 1 <= n <= maxN inside a device
// of size bytes. Half the draws are placed to straddle a page edge.
func pmWindow(rng *rand.Rand, size int64, maxN int) (int64, int) {
	n := 1 + rng.Intn(maxN)
	if rng.Intn(2) == 0 {
		edge := pmPageSize * (1 + rng.Int63n(size/pmPageSize-1))
		off := edge - 1 - rng.Int63n(int64(n))
		if off >= 0 && off+int64(n) <= size {
			return off, n
		}
	}
	return rng.Int63n(size - int64(n)), n
}

// TestPMMatchesModel drives the paged, undo-logging PM and the naive model
// with the same random mix of overlapping writes (some persisted in the
// same call), partial persists, full fences and crashes over five pages,
// comparing the read view throughout and the durable view after every
// crash.
func TestPMMatchesModel(t *testing.T) {
	t.Parallel()
	const size = 5 * pmPageSize
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(1)
		pm := NewPM(env, "pm", PMConfig{Size: size, Bandwidth: 1e9})
		model := newPMModel(size)
		buf := make([]byte, 8192)
		got := make([]byte, size)
		for op := 0; op < 400; op++ {
			switch rng.Intn(11) {
			case 0, 1, 2, 3, 4: // write
				off, n := pmWindow(rng, size, len(buf))
				rng.Read(buf[:n])
				pm.WriteNoCost(off, buf[:n])
				model.write(off, buf[:n])
			case 5: // write persisted in the same call
				off, n := pmWindow(rng, size, len(buf))
				rng.Read(buf[:n])
				pm.WritePersistNoCost(off, buf[:n])
				model.write(off, buf[:n])
				model.persist(off, int64(n))
			case 6, 7: // partial persist
				off, n := pmWindow(rng, size, 16384)
				pm.PersistNoCost(off, int64(n))
				model.persist(off, int64(n))
			case 8: // full fence
				pm.PersistAll()
				model.persistAll()
			case 9: // crash
				pm.Crash()
				model.crash()
				pm.ReadNoCost(0, got)
				if !bytes.Equal(got, model.durable) {
					t.Fatalf("seed %d op %d: durable state diverged after crash", seed, op)
				}
			case 10: // read a window
				off, n := pmWindow(rng, size, size/4)
				pm.ReadNoCost(off, got[:n])
				if !bytes.Equal(got[:n], model.volatile[off:off+int64(n)]) {
					t.Fatalf("seed %d op %d: read view diverged at [%d,%d)", seed, op, off, off+int64(n))
				}
			}
		}
		pm.ReadNoCost(0, got)
		if !bytes.Equal(got, model.volatile) {
			t.Fatalf("seed %d: final read view diverged", seed)
		}
		pm.Crash()
		pm.ReadNoCost(0, got)
		if !bytes.Equal(got, model.durable) {
			t.Fatalf("seed %d: final durable state diverged", seed)
		}
	}
}

// TestPMSparsePages checks that the byte store scales with the bytes
// written: on a 64 GiB device, three far-apart writes allocate exactly
// three pages, never-written ranges read as zeros, and a crash after a
// write to a fresh page restores zeros.
func TestPMSparsePages(t *testing.T) {
	t.Parallel()
	pm := NewPM(sim.NewEnv(1), "pm", PMConfig{Size: 64 << 30, Bandwidth: 1e9})
	offs := []int64{0, 17<<30 + 12345, 64<<30 - 8}
	for _, off := range offs {
		pm.WritePersistNoCost(off, []byte("durable!"))
	}
	live := 0
	for _, pg := range pm.pages {
		if pg != nil {
			live++
		}
	}
	if live != len(offs) {
		t.Fatalf("%d pages allocated after %d far-apart writes, want %d", live, len(offs), len(offs))
	}
	got := make([]byte, 3*pmPageSize)
	pm.ReadNoCost(40<<30-pmPageSize, got)
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("never-written range does not read as zeros")
	}
	for _, off := range offs {
		pm.ReadNoCost(off, got[:8])
		if string(got[:8]) != "durable!" {
			t.Fatalf("read at %d = %q", off, got[:8])
		}
	}

	const fresh = 33 << 30
	pm.WriteNoCost(fresh, []byte("volatile"))
	pm.Crash()
	pm.ReadNoCost(fresh, got[:8])
	if !bytes.Equal(got[:8], make([]byte, 8)) {
		t.Fatalf("crash after a write to a fresh page left %q, want zeros", got[:8])
	}
}

// TestPMSplitRecordSurvivesRecycling persists the middle of one write, so
// its undo record splits into two remnants, then persists the left
// remnant, which frees its buffer, and writes again so that buffer is
// recycled: the right remnant must still restore its bytes on a crash.
func TestPMSplitRecordSurvivesRecycling(t *testing.T) {
	t.Parallel()
	pm := NewPM(sim.NewEnv(1), "pm", PMConfig{Size: 1 << 20, Bandwidth: 1e9})
	pm.WritePersistNoCost(0, bytes.Repeat([]byte{'o'}, 100))
	pm.WriteNoCost(0, bytes.Repeat([]byte{'n'}, 100))
	pm.PersistNoCost(40, 20)
	pm.PersistNoCost(0, 40)
	pm.WriteNoCost(1000, bytes.Repeat([]byte{'x'}, 100))
	if got, want := pm.PendingBytes(), int64(140); got != want {
		t.Fatalf("pending = %d, want %d", got, want)
	}
	pm.Crash()
	got := make([]byte, 100)
	pm.ReadNoCost(0, got)
	want := append(bytes.Repeat([]byte{'n'}, 60), bytes.Repeat([]byte{'o'}, 40)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after crash = %q, want %q", got, want)
	}
	pm.ReadNoCost(1000, got)
	if !bytes.Equal(got, make([]byte, 100)) {
		t.Fatalf("unpersisted write survived the crash: %q", got)
	}
}

// TestPMWriteNoCostAllocFree is the 0 allocs/op gate for the PM write hot
// path: steady-state write+persist must not allocate and must not retain
// the caller's buffer. Every page is touched before measuring, so a
// first-touch page allocation cannot hide in AllocsPerRun's integer
// division.
func TestPMWriteNoCostAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	pm := NewPM(env, "pm", PMConfig{Size: 1 << 20, Bandwidth: 1e9})
	blk := make([]byte, 16<<10)
	for off := int64(0); off < pm.Size(); off += int64(len(blk)) {
		pm.WritePersistNoCost(off, blk)
	}
	// Warm the undo slices and the pre-image pool.
	pm.WriteNoCost(0, blk)
	pm.PersistNoCost(0, int64(len(blk)))
	off := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		pm.WriteNoCost(off, blk)
		pm.PersistNoCost(off, int64(len(blk)))
		pm.WritePersistNoCost(off, blk)
		off += int64(len(blk))
		if off+int64(len(blk)) > pm.Size() {
			off = 0
		}
	}); a != 0 {
		t.Errorf("WriteNoCost+PersistNoCost steady state: %v allocs/op, want 0", a)
	}
}

func BenchmarkPMWritePersist(b *testing.B) {
	env := sim.NewEnv(1)
	pm := NewPM(env, "pm", PMConfig{Size: 64 << 20, Bandwidth: 1e9})
	blk := make([]byte, 16<<10)
	rand.New(rand.NewSource(1)).Read(blk)
	b.SetBytes(int64(len(blk)))
	b.ReportAllocs()
	b.ResetTimer()
	off := int64(0)
	for i := 0; i < b.N; i++ {
		pm.WriteNoCost(off, blk)
		pm.PersistNoCost(off, int64(len(blk)))
		off += int64(len(blk))
		if off+int64(len(blk)) > pm.Size() {
			off = 0
		}
	}
}
