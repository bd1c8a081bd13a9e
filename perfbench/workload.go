package main

import (
	"fmt"
	"math/rand"
)

// Every workload is a closed loop of clientsPerRun LibFS clients on node0:
// each client sends its next call when the previous one returns. A run's
// inputs — payload bytes, write sizes, the varmail op sequence — are derived
// from the workload seed alone, before the simulation starts, so the same
// seed always replays the same calls.
const clientsPerRun = 2

// opKind names one dfs.Client call.
type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opOpen
	opWrite
	opFsync
	opRead
	opClose
	opUnlink
	numOps
)

var opNames = [numOps]string{"mkdir", "create", "open", "write", "fsync", "read", "close", "unlink"}

func (k opKind) String() string { return opNames[k] }

// op is one planned call. file indexes the client's file table; off and n
// are the byte range of a write or read; src is the pool offset a write's
// payload is taken from.
type op struct {
	kind  opKind
	write bool // opOpen: open for writing
	file  int
	off   int
	n     int
	src   int
}

// plan is one client's whole run: the untimed set-up calls that build its
// working set, then the measured calls. pool is the immutable payload source
// every write slices from.
type plan struct {
	dir     string
	files   int
	setup   []op
	run     []op
	pool    []byte
	poolLen int // pool[i] == pool[i%poolLen] for i < len(pool)
}

func (pl *plan) path(file int) string { return fmt.Sprintf("%s/f%05d", pl.dir, file) }

// workloadSpec is a named benchmark workload.
type workloadSpec struct {
	name     string
	compress bool
	plan     func(rng *rand.Rand, client int) *plan
}

var workloads = []workloadSpec{
	{name: "seqwrite", plan: seqwritePlan(randomPool)},
	{name: "varmail", plan: varmailPlan},
	{name: "seqwrite-lz", compress: true, plan: seqwritePlan(compressiblePool)},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Sequential-write shape: each client streams seqBytes into one file in
// writes of seqWriteMean bytes on average and fsyncs every seqFsyncEvery
// bytes. The two clients write 2 × 128 MiB: 1024 fsyncs, and each client's
// stream wraps its 24 MB log more than five times.
const (
	seqBytes      = 128 << 20
	seqWriteMean  = 16 << 10
	seqFsyncEvery = 256 << 10
	poolBase      = 1 << 20
)

// seqwritePlan returns the planner for a sequential stream over the pool
// built by mkPool. Write sizes are drawn in 4 KiB steps from 8..24 KiB
// (16 KiB mean), so the seed moves entry boundaries against chunk and fsync
// boundaries; a client fsyncs after each write that crosses a 256 KiB
// boundary of its file.
func seqwritePlan(mkPool func(rng *rand.Rand, n int) []byte) func(*rand.Rand, int) *plan {
	return func(rng *rand.Rand, client int) *plan {
		pl := &plan{dir: fmt.Sprintf("/seq%d", client), files: 1, poolLen: poolBase}
		pl.pool = extendPool(mkPool(rng, poolBase), 2*seqWriteMean)
		pl.setup = []op{{kind: opMkdir}, {kind: opCreate, file: 0}}
		for off := 0; off < seqBytes; {
			n := min(seqWriteMean+(rng.Intn(5)-2)*4096, seqBytes-off)
			pl.run = append(pl.run, op{kind: opWrite, off: off, n: n, src: off % poolBase})
			if (off+n)/seqFsyncEvery != off/seqFsyncEvery || off+n == seqBytes {
				pl.run = append(pl.run, op{kind: opFsync})
			}
			off += n
		}
		pl.run = append(pl.run, op{kind: opClose})
		return pl
	}
}

// Varmail shape (filebench varmail): varmailFiles mailboxes per client with
// a 16 KiB mean size, pre-created during set-up; the measured phase runs
// varmailFlows flows of delete+recreate+fsync, append+fsync, and two
// whole-file reads, each sub-op on an independently drawn mailbox.
const (
	varmailFiles  = 1024
	varmailMean   = 16 << 10
	varmailAppend = 8 << 10
	varmailFlows  = 1024
)

func varmailPlan(rng *rand.Rand, client int) *plan {
	pl := &plan{dir: fmt.Sprintf("/mail%d", client), files: varmailFiles, poolLen: poolBase}
	pl.pool = extendPool(randomPool(rng, poolBase), 2*varmailMean)
	sizes := make([]int, varmailFiles)
	src := func(n int) int { return rng.Intn(poolBase - n) }
	pl.setup = append(pl.setup, op{kind: opMkdir})
	for f := range sizes {
		sizes[f] = varmailMean/2 + rng.Intn(varmailMean)
		pl.setup = append(pl.setup,
			op{kind: opCreate, file: f},
			op{kind: opWrite, file: f, n: sizes[f], src: src(sizes[f])},
			op{kind: opClose, file: f})
	}
	// One fsync makes the client's whole pre-populated log durable.
	pl.setup = append(pl.setup, op{kind: opOpen, file: 0}, op{kind: opFsync}, op{kind: opClose})
	for i := 0; i < varmailFlows; i++ {
		f := rng.Intn(varmailFiles)
		sizes[f] = varmailMean/2 + rng.Intn(varmailMean)
		pl.run = append(pl.run,
			op{kind: opUnlink, file: f},
			op{kind: opCreate, file: f},
			op{kind: opWrite, file: f, n: sizes[f], src: src(sizes[f])},
			op{kind: opFsync, file: f},
			op{kind: opClose, file: f})
		f = rng.Intn(varmailFiles)
		pl.run = append(pl.run,
			op{kind: opOpen, write: true, file: f},
			op{kind: opWrite, file: f, off: sizes[f], n: varmailAppend, src: src(varmailAppend)},
			op{kind: opFsync, file: f},
			op{kind: opClose, file: f})
		sizes[f] += varmailAppend
		for r := 0; r < 2; r++ {
			f = rng.Intn(varmailFiles)
			pl.run = append(pl.run,
				op{kind: opOpen, file: f},
				op{kind: opRead, file: f, n: sizes[f]},
				op{kind: opClose, file: f})
		}
	}
	return pl
}

// randomPool is incompressible seeded data.
func randomPool(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// compressiblePool is seeded data of fixed compressibility: runs of zero
// bytes between runs of a 16-symbol alphabet, in the style of gensort
// record bodies. The replication LZW codec shrinks it about 2.9x.
func compressiblePool(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; {
		run := 1 + rng.Intn(16)
		zero := rng.Float64() < 0.5
		for j := 0; j < run && i < n; j++ {
			if !zero {
				b[i] = byte('A' + rng.Intn(16))
			}
			i++
		}
	}
	return b
}

// extendPool appends the pool's first tail bytes to its end, so a write of
// up to tail bytes starting anywhere in the first len(base) bytes is one
// contiguous slice.
func extendPool(base []byte, tail int) []byte {
	return append(base, base[:tail]...)
}

// fill writes the expected content of bytes [off, off+len(dst)) of a file
// laid out by exts into dst.
func (pl *plan) fill(dst []byte, exts []extent, off int) {
	for _, e := range exts {
		lo, hi := max(off, e.off), min(off+len(dst), e.off+e.n)
		for o := lo; o < hi; {
			p := (e.src + o - e.off) % pl.poolLen
			k := copy(dst[o-off:hi-off], pl.pool[p:pl.poolLen])
			o += k
		}
	}
}

// extent is a written range of a file: n bytes at file offset off whose
// content starts at pool offset src.
type extent struct{ off, n, src int }
