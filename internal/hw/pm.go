package hw

import (
	"fmt"
	"time"

	"linefs/internal/sim"
)

// PM models a byte-addressable persistent-memory device (Intel Optane DC in
// App-Direct mode). It stores real bytes and distinguishes written from
// persisted state: writes land in a volatile view and become durable only
// after a Persist barrier (clwb+fence in the real system). Crash discards
// the unpersisted writes, which lets tests exercise prefix crash
// consistency for real.
//
// One byte store holds what programs read, in 64 KiB pages allocated on
// first write (an unwritten page reads as zeros), so memory scales with the
// bytes written, not with the device size. Each unpersisted write keeps an
// undo record: the bytes it overwrote, in a recycled buffer. Persist drops
// the parts of the records inside its window; Crash writes the remaining
// records back newest first, which leaves every byte at its durable value
// (the pre-image held by the oldest record covering it).
//
// Access costs are charged in virtual time: a fixed media latency per
// operation plus serialization through the device's shared bandwidth link.
type PM struct {
	Env  *sim.Env
	Name string

	size  int64
	pages [][]byte // pmPageSize bytes each; nil until first written
	undo  []pmUndo // pre-images of unpersisted writes, oldest first
	spare []pmUndo // scratch for persist-time rebuilds
	free  [][]byte // recycled pre-image buffers

	ReadLat  time.Duration
	WriteLat time.Duration
	link     *Link
}

// pmPageSize is the granularity at which the byte store is allocated.
const pmPageSize = 64 << 10

// pmUndo records that the bytes at [off, off+len(pre)) held pre before an
// unpersisted write.
type pmUndo struct {
	off int64
	pre []byte
}

// PMConfig sets PM device parameters.
type PMConfig struct {
	Size     int64
	ReadLat  time.Duration
	WriteLat time.Duration
	// Bandwidth is the device's aggregate bandwidth in bytes/sec shared by
	// all accessors (host CPU, DMA engine, RDMA).
	Bandwidth float64
}

// DefaultPMConfig mirrors the paper's testbed: 6x interleaved Optane DIMMs.
func DefaultPMConfig(size int64) PMConfig {
	return PMConfig{
		Size:      size,
		ReadLat:   300 * time.Nanosecond,
		WriteLat:  100 * time.Nanosecond,
		Bandwidth: 10e9,
	}
}

// newPMLink builds the device bandwidth link: full aggregate bandwidth for
// streaming, with fine segmentation so small metadata accesses are not
// stuck behind multi-hundred-KB bulk transfers.
func newPMLink(env *sim.Env, name string, bw float64) *Link {
	l := NewLink(env, name+"/bw", 0, bw)
	l.MaxSeg = 64 << 10
	return l
}

// NewPM creates a PM device. Only the page table is allocated up front.
func NewPM(env *sim.Env, name string, cfg PMConfig) *PM {
	return &PM{
		Env:      env,
		Name:     name,
		size:     cfg.Size,
		pages:    make([][]byte, (cfg.Size+pmPageSize-1)/pmPageSize),
		ReadLat:  cfg.ReadLat,
		WriteLat: cfg.WriteLat,
		link:     newPMLink(env, name, cfg.Bandwidth),
	}
}

// Size returns the device capacity in bytes.
func (pm *PM) Size() int64 { return pm.size }

// Link exposes the device bandwidth link so co-located engines (DMA) can
// share it.
func (pm *PM) Link() *Link { return pm.link }

func (pm *PM) check(off int64, n int) {
	if off < 0 || off+int64(n) > pm.size {
		panic(fmt.Sprintf("hw: PM %s access out of range: off=%d n=%d size=%d",
			pm.Name, off, n, pm.size))
	}
}

// Read copies n=len(dst) bytes at off into dst, charging media latency and
// bandwidth to p. The read observes unpersisted writes (program order).
func (pm *PM) Read(p *sim.Proc, off int64, dst []byte) {
	p.Sleep(pm.ReadLat)
	pm.link.Transfer(p, len(dst), 0)
	pm.ReadNoCost(off, dst)
}

// ReadNoCost copies bytes without charging time (for accessors whose cost
// is modeled elsewhere, and for test inspection).
//
//linefs:hotpath
func (pm *PM) ReadNoCost(off int64, dst []byte) {
	pm.check(off, len(dst))
	for len(dst) > 0 {
		pg, o := pm.pages[off/pmPageSize], off%pmPageSize
		n := min(len(dst), int(pmPageSize-o))
		if pg == nil {
			clear(dst[:n])
		} else {
			copy(dst, pg[o:])
		}
		dst, off = dst[n:], off+int64(n)
	}
}

// store copies src into the byte store at off, allocating pages on first
// touch.
func (pm *PM) store(off int64, src []byte) {
	for len(src) > 0 {
		pg := pm.pages[off/pmPageSize]
		if pg == nil {
			pg = make([]byte, pmPageSize)
			pm.pages[off/pmPageSize] = pg
		}
		n := copy(pg[off%pmPageSize:], src)
		src, off = src[n:], off+int64(n)
	}
}

// Write stores src at off into the volatile view, charging media latency
// and bandwidth. Data becomes durable only after Persist covers it.
func (pm *PM) Write(p *sim.Proc, off int64, src []byte) {
	pm.WriteAmp(p, off, src, 1)
}

// WriteAmp is Write with a memory-system amplification factor: CPU stores
// into PM cost several times their payload in memory traffic (read-modify-
// write at cacheline granularity, write-combining misses, cache pollution),
// which is how a host-based DFS interferes with memory-bound co-runners.
func (pm *PM) WriteAmp(p *sim.Proc, off int64, src []byte, amp int) {
	if amp < 1 {
		amp = 1
	}
	p.Sleep(pm.WriteLat)
	pm.link.Transfer(p, len(src)*amp, 0)
	pm.WriteNoCost(off, src)
}

// WriteNoCost stores bytes without charging time: the overwritten bytes go
// into a recycled undo buffer, then src is copied in (src is not retained).
//
//linefs:hotpath
func (pm *PM) WriteNoCost(off int64, src []byte) {
	pm.check(off, len(src))
	pre := pm.preBuf(len(src))
	pm.ReadNoCost(off, pre)
	pm.undo = append(pm.undo, pmUndo{off: off, pre: pre})
	pm.store(off, src)
}

// preBuf returns an n-byte pre-image buffer, recycling a freed one when it
// is large enough.
func (pm *PM) preBuf(n int) []byte {
	var b []byte
	if k := len(pm.free); k > 0 {
		b, pm.free = pm.free[k-1], pm.free[:k-1]
	}
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// WritePersist writes src and immediately persists it (the common
// clwb-per-store pattern on the log append path).
func (pm *PM) WritePersist(p *sim.Proc, off int64, src []byte) {
	pm.Write(p, off, src)
	pm.Persist(p, off, int64(len(src)))
}

// WritePersistNoCost is WriteNoCost followed by PersistNoCost over the same
// range, for callers with no yield between the two: no crash can land in
// between, so no undo record is taken.
//
//linefs:hotpath
func (pm *PM) WritePersistNoCost(off int64, src []byte) {
	pm.check(off, len(src))
	pm.store(off, src)
	pm.PersistNoCost(off, int64(len(src)))
}

// Persist makes all writes overlapping [off, off+n) durable, charging a
// flush cost proportional to the range.
func (pm *PM) Persist(p *sim.Proc, off, n int64) {
	p.Sleep(pm.WriteLat) // fence cost
	pm.PersistNoCost(off, n)
}

// PersistNoCost makes [off, off+n) durable without charging time by
// dropping the parts of undo records inside the window. A record
// straddling an edge keeps its outside parts as capacity-limited
// sub-slices, so a recycled buffer never overwrites a live remnant.
//
//linefs:hotpath
func (pm *PM) PersistNoCost(off, n int64) {
	lo, hi := off, off+n
	kept := pm.spare[:0]
	for _, u := range pm.undo {
		end := u.off + int64(len(u.pre))
		switch {
		case u.off >= lo && end <= hi:
			pm.free = append(pm.free, u.pre)
		case end <= lo || u.off >= hi:
			kept = append(kept, u)
		default:
			if k := lo - u.off; k > 0 {
				kept = append(kept, pmUndo{off: u.off, pre: u.pre[:k:k]})
			}
			if end > hi {
				kept = append(kept, pmUndo{off: hi, pre: u.pre[hi-u.off:]})
			}
		}
	}
	pm.spare = pm.undo[:0]
	pm.undo = kept
}

// PersistAll makes every pending write durable (a full fence; used at
// clean shutdown and in setup code).
func (pm *PM) PersistAll() {
	for _, u := range pm.undo {
		pm.free = append(pm.free, u.pre)
	}
	pm.undo = pm.undo[:0]
}

// Crash discards all unpersisted writes, emulating power loss or an OS
// crash before the data reached the persistence domain: the undo records
// are written back newest first.
func (pm *PM) Crash() {
	for i := len(pm.undo) - 1; i >= 0; i-- {
		pm.store(pm.undo[i].off, pm.undo[i].pre)
		pm.free = append(pm.free, pm.undo[i].pre)
	}
	pm.undo = pm.undo[:0]
}

// PendingBytes reports the volume of unpersisted writes (test helper). It
// sums the undo records, so a byte written twice before a persist counts
// twice.
func (pm *PM) PendingBytes() int64 {
	var n int64
	for _, u := range pm.undo {
		n += int64(len(u.pre))
	}
	return n
}
