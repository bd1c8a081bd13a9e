package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/sim"
)

// DataStats are wall-clock throughput numbers for the real data-plane
// compute the simulation carries: LZW compression of payload bytes, the
// CRC-protected log entry codec, and byte movement through the simulated
// PM device. Fixed workloads make them comparable across PRs.
type DataStats struct {
	// LZWCompressMBps compresses the mixed 1 MiB corpus (zero-heavy,
	// log-text, incompressible thirds).
	LZWCompressMBps float64 `json:"lzw_compress_mbps"`
	// LZWDecompressMBps decodes the corpus's compressed stream.
	LZWDecompressMBps float64 `json:"lzw_decompress_mbps"`
	// LogEncodePerSec encodes a 4 KiB write entry (header + CRC + copy).
	LogEncodePerSec float64 `json:"log_encode_entries_per_sec"`
	// LogDecodePerSec parses and CRC-checks the same entry.
	LogDecodePerSec float64 `json:"log_decode_entries_per_sec"`
	// PMWriteGBps streams 16 KiB write+persist pairs through the device.
	PMWriteGBps float64 `json:"pm_write_gbps"`
}

// DataBenchReport is the BENCH_dataplane.json schema, mirroring
// BENCH_kernel.json: a baseline column, this run's numbers, and speedups.
// Unlike the kernel report the baseline is not a frozen constant — it is
// re-measured from the preserved seed implementations on the same machine
// and corpus, so the speedup column is hardware-independent.
type DataBenchReport struct {
	Baseline DataStats `json:"baseline"`
	Current  DataStats `json:"current"`
	Speedup  DataStats `json:"speedup"`
	// SpeedupAggregate is the geometric mean of the four LZW and
	// log-codec speedups (the PM device column is reported but excluded:
	// its seed implementation is quadratic in pending writes, so its
	// speedup is unboundedly flattering).
	SpeedupAggregate float64 `json:"speedup_aggregate"`
	MeasuredAt       string  `json:"measured_at"`
}

// dataCorpus builds the 1 MiB measurement input: a simulated client log
// segment of wire-encoded entries — exactly the byte stream the chunk
// pipeline's compress stage sees. Payloads mix mostly-zero pages (cold
// file writes), patterned records, and incompressible bytes; namespace
// ops interleave the repetitive header text.
func dataCorpus() []byte {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 0, 1<<20)
	for seq := uint64(1); len(buf) < 1<<20; seq++ {
		e := fs.Entry{Seq: seq, Type: fs.OpWrite, Ino: fs.Ino(1 + rng.Intn(8))}
		switch rng.Intn(10) {
		case 0: // namespace op: header + name, no payload
			e.Type = fs.OpCreate
			e.PIno = 1
			e.Name = fmt.Sprintf("segment-%04d.dat", rng.Intn(64))
		case 1, 2: // incompressible page
			e.Off = uint64(rng.Intn(1 << 20))
			e.Data = make([]byte, 1+rng.Intn(4096))
			rng.Read(e.Data)
		case 3, 4, 5: // patterned record batch
			e.Off = uint64(rng.Intn(1 << 20))
			rec := fmt.Sprintf("inode=%06d off=%06d len=%05d ", rng.Intn(512), rng.Intn(1<<20), rng.Intn(65536))
			e.Data = bytes.Repeat([]byte(rec), 1+rng.Intn(64))
		default: // cold file page: zeros with a handful of dirty bytes
			e.Off = uint64(rng.Intn(1 << 20))
			e.Data = make([]byte, 1+rng.Intn(4096))
			for i := rng.Intn(8); i > 0; i-- {
				e.Data[rng.Intn(len(e.Data))] = byte(rng.Intn(256))
			}
		}
		buf = e.AppendWire(buf)
	}
	return buf[:1<<20]
}

// benchEntry is the 4 KiB write entry both log-codec columns encode.
func benchEntry() *fs.Entry {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(data)
	return &fs.Entry{Seq: 5, Type: fs.OpWrite, Ino: 3, Off: 8192, Data: data}
}

// rate runs f in a timed loop after one warmup call and returns
// (iterations/sec, allocs/op). minTime bounds the measurement window, so a
// smoke run can use a few milliseconds and CI stays fast.
func rate(minTime time.Duration, f func()) (persec, allocsPerOp float64) {
	f()          // warmup: size scratch buffers, fault pages
	runtime.GC() // drain garbage from prior metrics so GC pauses don't leak across columns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < minTime {
		f()
		n++
	}
	el := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return float64(n) / el, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// dataMetric is one row of the report: paired baseline and current
// measurement loops over the same workload. setup returns the two loops
// plus the per-iteration work in the metric's unit (bytes for throughput
// rows, 1 for entries/sec).
type dataMetric struct {
	name     string
	baseline func()
	current  func()
	unit     float64
	store    func(st *DataStats, v float64)
}

// MeasureDataBench measures the seed (baseline) and current data-plane
// implementations over the same corpus. Each metric's two loops run
// back-to-back so the recorded ratio is insensitive to machine-speed drift
// across the run (CPU frequency scaling, noisy neighbors). The current
// loops are additionally asserted to run at 0 allocs/op steady state.
// minTime is the per-loop measurement window.
func MeasureDataBench(minTime time.Duration) (base, cur DataStats, err error) {
	corpus := dataCorpus()

	// LZW inputs/outputs shared by both columns.
	enc := compress.NewEncoder()
	stream := enc.CompressInto(nil, corpus)
	dec := compress.NewDecoder()
	out, rerr := dec.DecompressInto(nil, stream)
	if rerr != nil || !bytes.Equal(out, corpus) {
		return base, cur, fmt.Errorf("databench: corpus round trip failed: %v", rerr)
	}

	// Log codec inputs.
	e := benchEntry()
	scratch := e.AppendWire(nil)
	var decoded fs.Entry

	// PM devices, one per column, driven with the digest path's access
	// pattern: a burst of block writes into a log window, then one persist
	// over the whole window.
	const pmWindow = 64
	blk := corpus[:16<<10]
	env := sim.NewEnv(1)
	pm := hw.NewPM(env, "pm", hw.PMConfig{Size: 64 << 20, Bandwidth: 1e9})
	spm := newSeedPM(64 << 20)
	// The current device allocates pages on first write: touch them all
	// first (the seed device's array is faulted in by make), so both
	// columns measure the steady state of a log window written before.
	for off := int64(0); off < pm.Size(); off += int64(len(blk)) {
		pm.WritePersistNoCost(off, blk)
	}
	pmOff, spmOff := int64(0), int64(0)

	metrics := []dataMetric{
		{
			name:     "lzw compress",
			baseline: func() { compress.ReferenceCompress(corpus) },
			current:  func() { stream = enc.CompressInto(stream[:0], corpus) },
			unit:     float64(len(corpus)) / 1e6,
			store:    func(st *DataStats, v float64) { st.LZWCompressMBps = v },
		},
		{
			name: "lzw decompress",
			baseline: func() {
				if _, err := compress.ReferenceDecompress(stream); err != nil {
					panic(err)
				}
			},
			current: func() {
				var err error
				if out, err = dec.DecompressInto(out[:0], stream); err != nil {
					panic(err)
				}
			},
			unit:  float64(len(corpus)) / 1e6,
			store: func(st *DataStats, v float64) { st.LZWDecompressMBps = v },
		},
		{
			name:     "log encode",
			baseline: func() { seedEncodeEntry(e) },
			current:  func() { scratch = e.AppendWire(scratch[:0]) },
			unit:     1,
			store:    func(st *DataStats, v float64) { st.LogEncodePerSec = v },
		},
		{
			name: "log decode",
			baseline: func() {
				if _, _, err := seedDecodeEntry(scratch); err != nil {
					panic(err)
				}
			},
			current: func() {
				if _, err := fs.DecodeEntryInto(&decoded, scratch); err != nil {
					panic(err)
				}
			},
			unit:  1,
			store: func(st *DataStats, v float64) { st.LogDecodePerSec = v },
		},
		{
			name: "pm write",
			baseline: func() {
				start := spmOff
				for i := 0; i < pmWindow; i++ {
					spm.writeNoCost(spmOff, blk)
					spmOff += int64(len(blk))
				}
				spm.persistNoCost(start, spmOff-start)
				if spmOff+int64(pmWindow*len(blk)) > int64(len(spm.data)) {
					spmOff = 0
				}
			},
			current: func() {
				start := pmOff
				for i := 0; i < pmWindow; i++ {
					pm.WriteNoCost(pmOff, blk)
					pmOff += int64(len(blk))
				}
				pm.PersistNoCost(start, pmOff-start)
				if pmOff+int64(pmWindow*len(blk)) > pm.Size() {
					pmOff = 0
				}
			},
			unit:  float64(pmWindow*len(blk)) / 1e9,
			store: func(st *DataStats, v float64) { st.PMWriteGBps = v },
		},
	}

	for _, m := range metrics {
		persec, _ := rate(minTime, m.baseline)
		m.store(&base, persec*m.unit)
		persec, allocs := rate(minTime, m.current)
		// The timed loop itself is alloc-free; anything counted came from
		// the measured path. Tolerate stray runtime allocations (background
		// sweeps) below one per op, never a per-op allocation.
		if allocs >= 1 {
			return base, cur, fmt.Errorf("databench: %s steady state allocates (%.1f allocs/op, want 0)", m.name, allocs)
		}
		m.store(&cur, persec*m.unit)
	}
	return base, cur, nil
}

// WriteDataBench measures baseline and current data-plane throughput and
// writes the report to path.
func WriteDataBench(path string, minTime time.Duration) (DataBenchReport, error) {
	var rep DataBenchReport
	base, cur, err := MeasureDataBench(minTime)
	if err != nil {
		return rep, err
	}
	rep = DataBenchReport{
		Baseline: base,
		Current:  cur,
		Speedup: DataStats{
			LZWCompressMBps:   cur.LZWCompressMBps / base.LZWCompressMBps,
			LZWDecompressMBps: cur.LZWDecompressMBps / base.LZWDecompressMBps,
			LogEncodePerSec:   cur.LogEncodePerSec / base.LogEncodePerSec,
			LogDecodePerSec:   cur.LogDecodePerSec / base.LogDecodePerSec,
			PMWriteGBps:       cur.PMWriteGBps / base.PMWriteGBps,
		},
		MeasuredAt: time.Now().UTC().Format(time.RFC3339),
	}
	rep.SpeedupAggregate = math.Pow(rep.Speedup.LZWCompressMBps*rep.Speedup.LZWDecompressMBps*
		rep.Speedup.LogEncodePerSec*rep.Speedup.LogDecodePerSec, 0.25)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	b = append(b, '\n')
	return rep, os.WriteFile(path, b, 0o644)
}

// The remainder of this file preserves the seed (PR 0) log entry codec and
// PM write path verbatim, as the baseline column of BENCH_dataplane.json.
// Do not optimize them; their slowness is the point. (The seed LZW codec
// lives in internal/compress/reference.go, shared with the golden tests.)

// seedEncodeEntry is the seed fs.Entry.Encode: a fresh zeroed buffer per
// entry, payload copy, then a separate CRC pass.
func seedEncodeEntry(e *fs.Entry) []byte {
	buf := make([]byte, e.WireSize())
	binary.LittleEndian.PutUint32(buf[0:], 0x4C4F4745)
	binary.LittleEndian.PutUint64(buf[8:], e.Seq)
	buf[16] = byte(e.Type)
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(e.Name)))
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(e.Name2)))
	binary.LittleEndian.PutUint32(buf[24:], uint32(e.Ino))
	binary.LittleEndian.PutUint32(buf[28:], uint32(e.PIno))
	binary.LittleEndian.PutUint32(buf[32:], uint32(e.PIno2))
	binary.LittleEndian.PutUint64(buf[40:], e.Off)
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(e.Data)))
	p := fs.EntryHeaderSize
	copy(buf[p:], e.Name)
	p += len(e.Name)
	copy(buf[p:], e.Name2)
	p += len(e.Name2)
	copy(buf[p:], e.Data)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// seedDecodeEntry is the seed fs.DecodeEntry: allocates the Entry and
// copies the payload out of the buffer.
func seedDecodeEntry(buf []byte) (*fs.Entry, int, error) {
	if len(buf) < fs.EntryHeaderSize {
		return nil, 0, fmt.Errorf("short")
	}
	if binary.LittleEndian.Uint32(buf[0:]) != 0x4C4F4745 {
		return nil, 0, fmt.Errorf("bad magic")
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[18:]))
	name2Len := int(binary.LittleEndian.Uint16(buf[20:]))
	dataLen := int(binary.LittleEndian.Uint32(buf[48:]))
	size := (fs.EntryHeaderSize + nameLen + name2Len + dataLen + 7) &^ 7
	if len(buf) < size {
		return nil, 0, fmt.Errorf("short")
	}
	if crc32.ChecksumIEEE(buf[8:size]) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, fmt.Errorf("bad crc")
	}
	e := &fs.Entry{
		Seq:   binary.LittleEndian.Uint64(buf[8:]),
		Type:  fs.EntryType(buf[16]),
		Ino:   fs.Ino(binary.LittleEndian.Uint32(buf[24:])),
		PIno:  fs.Ino(binary.LittleEndian.Uint32(buf[28:])),
		PIno2: fs.Ino(binary.LittleEndian.Uint32(buf[32:])),
		Off:   binary.LittleEndian.Uint64(buf[40:]),
	}
	p := fs.EntryHeaderSize
	e.Name = string(buf[p : p+nameLen])
	p += nameLen
	e.Name2 = string(buf[p : p+name2Len])
	p += name2Len
	e.Data = append([]byte(nil), buf[p:p+dataLen]...)
	return e, size, nil
}

// seedPM is the seed PM write path: every write copies src into a fresh
// overlay buffer; persist walks and splits the overlay list.
type seedPM struct {
	data    []byte
	overlay []seedPMRange
}

type seedPMRange struct {
	off  int64
	data []byte
}

func newSeedPM(size int64) *seedPM {
	return &seedPM{data: make([]byte, size)}
}

func (pm *seedPM) writeNoCost(off int64, src []byte) {
	cp := make([]byte, len(src))
	copy(cp, src)
	pm.overlay = append(pm.overlay, seedPMRange{off: off, data: cp})
}

func (pm *seedPM) persistNoCost(off, n int64) {
	kept := pm.overlay[:0]
	for _, r := range pm.overlay {
		lo, hi := r.off, r.off+int64(len(r.data))
		if hi <= off || lo >= off+n {
			kept = append(kept, r)
			continue
		}
		s, e := lo, hi
		if off > s {
			s = off
		}
		if off+n < e {
			e = off + n
		}
		copy(pm.data[s:e], r.data[s-lo:e-lo])
		if lo < s {
			kept = append(kept, seedPMRange{off: lo, data: r.data[:s-lo]})
		}
		if e < hi {
			kept = append(kept, seedPMRange{off: e, data: r.data[e-lo:]})
		}
	}
	pm.overlay = kept
}
