package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"linefs/internal/core"
	"linefs/internal/sim"
)

// RepStats are simulated-time replication-chain numbers for one wire
// protocol configuration: a fixed single-client stream pushed down the
// 3-replica chain, then a train of single-chunk write+fsync round trips.
type RepStats struct {
	// ChunksPerSec is replication throughput: chunks fully replicated and
	// acknowledged per simulated second of the streaming phase.
	ChunksPerSec float64 `json:"chunks_per_sec"`
	// WireMsgsPerChunk is total chain traffic — data messages sent by every
	// hop plus acknowledgment messages received — divided by chunks
	// replicated. The seed protocol pays 4 per chunk (two data hops, two
	// acks); batching amortizes all four.
	WireMsgsPerChunk float64 `json:"wire_msgs_per_chunk"`
	// FsyncP50Micros / FsyncP99Micros are write+fsync round-trip latency
	// percentiles in simulated microseconds (one chunk per sync).
	FsyncP50Micros float64 `json:"fsync_p50_us"`
	FsyncP99Micros float64 `json:"fsync_p99_us"`
}

// RepBenchReport is the BENCH_replication.json schema, in the
// BENCH_dataplane.json style: the baseline column is re-measured on the
// same binary by setting RepBatchChunks to 1, which makes every frame a
// batch of one — one data frame and one replAck per chunk, event-identical
// to the seed's per-chunk wire protocol — so the ratios are hardware- and
// calibration-independent. Improvement factors
// are all oriented so that bigger is better.
type RepBenchReport struct {
	Baseline RepStats `json:"baseline"`
	Current  RepStats `json:"current"`
	// ChunksPerSecSpeedup = current / baseline throughput.
	ChunksPerSecSpeedup float64 `json:"chunks_per_sec_speedup"`
	// WireMsgReduction = baseline / current messages per chunk.
	WireMsgReduction float64 `json:"wire_msg_reduction"`
	// FsyncP99Speedup = baseline / current tail latency.
	FsyncP99Speedup float64 `json:"fsync_p99_speedup"`
	// PooledAllocsPerOp is measured wall-clock over core.ReplHotLoop —
	// the //linefs:hotpath-annotated pooled helpers — and must be 0.
	PooledAllocsPerOp float64 `json:"pooled_allocs_per_op"`
	MeasuredAt        string  `json:"measured_at"`
}

const (
	// repChunkSize keeps chunks small so per-message overhead (RPC
	// dispatch, switch latency, header bytes) dominates wire time — the
	// regime doorbell batching exists for, and the regime a metadata-heavy
	// fsync workload actually produces.
	repChunkSize = 16 << 10
	// repStreamChunks is the streaming-phase backlog length.
	repStreamChunks = 192
	// repFsyncOps is the latency-phase sample count.
	repFsyncOps = 64
)

// measureRepChain runs the fixed workload against a fresh 3-node cluster.
// batched selects the current protocol; otherwise RepBatchChunks is pinned
// to 1, reproducing the seed's per-chunk wire cadence (batches of one) on
// the same binary. All
// numbers are simulated time, so they are deterministic across machines.
func measureRepChain(o Options, batched bool) (RepStats, error) {
	cfg := lineFSConfig(o, 1)
	cfg.ChunkSize = repChunkSize
	if batched {
		// The full fast path: default wire batching plus submission-side
		// doorbell coalescing, so one dispatch forms several chunks and
		// the sender sees a real backlog to coalesce.
		cfg.NotifyChunks = 8
	} else {
		// The seed cadence on the same binary: one doorbell, one
		// batch-of-one frame, and one replAck round trip per chunk.
		cfg.RepBatchChunks = 1
		cfg.NotifyChunks = 1
	}
	env, cl, err := newLineFS(o, cfg)
	if err != nil {
		return RepStats{}, err
	}
	defer env.Shutdown()

	// Incompressible payload: compression never pays off, so the chain
	// moves raw frames and the wire protocol itself is what is measured.
	payload := make([]byte, repChunkSize)
	rand.New(rand.NewSource(11)).Read(payload)

	var st RepStats
	var runErr error
	g := newGroup(env, 1)
	env.Go("repbench/client", func(p *sim.Proc) {
		defer g.done()
		fail := func(err error) { runErr = err }
		a, err := cl.Attach(p, 0)
		if err != nil {
			fail(err)
			return
		}
		fd, err := a.Client.Create(p, "/repbench")
		if err != nil {
			fail(err)
			return
		}
		// Streaming phase: one chunk-sized write per chunk paces one
		// chunk-ready notification each, so the sender sees a genuine
		// multi-chunk backlog; the closing fsync waits until every chunk
		// is replicated and acknowledged.
		start := p.Now()
		for i := 0; i < repStreamChunks; i++ {
			if _, err := a.Client.WriteAt(p, fd, uint64(i*repChunkSize), payload); err != nil {
				fail(err)
				return
			}
		}
		if err := a.Client.Fsync(p, fd); err != nil {
			fail(err)
			return
		}
		elapsed := time.Duration(p.Now() - start)
		chunks := cl.NICs[0].RepChunksSent
		var msgs int64
		for _, n := range cl.NICs {
			msgs += n.RepMsgs + n.AckMsgs
		}
		if chunks == 0 || elapsed <= 0 {
			fail(fmt.Errorf("repbench: streaming phase replicated nothing (chunks=%d elapsed=%v)", chunks, elapsed))
			return
		}
		st.ChunksPerSec = float64(chunks) / elapsed.Seconds()
		st.WireMsgsPerChunk = float64(msgs) / float64(chunks)

		// Latency phase: single-chunk write+fsync round trips.
		lat := make([]time.Duration, 0, repFsyncOps)
		off := uint64(repStreamChunks * repChunkSize)
		for i := 0; i < repFsyncOps; i++ {
			if _, err := a.Client.WriteAt(p, fd, off, payload); err != nil {
				fail(err)
				return
			}
			off += repChunkSize
			s0 := p.Now()
			if err := a.Client.Fsync(p, fd); err != nil {
				fail(err)
				return
			}
			lat = append(lat, time.Duration(p.Now()-s0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		st.FsyncP50Micros = float64(lat[len(lat)/2]) / 1e3
		st.FsyncP99Micros = float64(lat[len(lat)*99/100]) / 1e3

		for _, n := range cl.NICs {
			if n.StaleAcks != 0 {
				fail(fmt.Errorf("repbench: %d stale acks on a healthy run", n.StaleAcks))
				return
			}
		}
	})
	if !g.wait(10 * time.Minute) {
		return st, fmt.Errorf("repbench: workload did not finish within the simulated deadline")
	}
	if runErr != nil {
		return st, runErr
	}
	return st, nil
}

// MeasureRepBench measures the seed per-chunk protocol and the batched
// protocol back to back on the same binary, then the pooled hot path's
// allocation rate under a wall-clock window of minTime.
func MeasureRepBench(minTime time.Duration) (RepBenchReport, error) {
	var rep RepBenchReport
	o := DefaultOptions()
	base, err := measureRepChain(o, false)
	if err != nil {
		return rep, fmt.Errorf("baseline (per-chunk): %w", err)
	}
	cur, err := measureRepChain(o, true)
	if err != nil {
		return rep, fmt.Errorf("current (batched): %w", err)
	}
	hot, err := core.ReplHotLoop()
	if err != nil {
		return rep, err
	}
	_, allocs := rate(minTime, hot)
	// As in the databench: tolerate stray background runtime allocations
	// below one per op, never a per-op allocation.
	if allocs >= 1 {
		return rep, fmt.Errorf("repbench: pooled hot path allocates (%.1f allocs/op, want 0)", allocs)
	}
	rep = RepBenchReport{
		Baseline:            base,
		Current:             cur,
		ChunksPerSecSpeedup: cur.ChunksPerSec / base.ChunksPerSec,
		WireMsgReduction:    base.WireMsgsPerChunk / cur.WireMsgsPerChunk,
		FsyncP99Speedup:     base.FsyncP99Micros / cur.FsyncP99Micros,
		PooledAllocsPerOp:   allocs,
		MeasuredAt:          time.Now().UTC().Format(time.RFC3339),
	}
	return rep, nil
}

// WriteRepBench measures the replication chain and writes the report to
// path.
func WriteRepBench(path string, minTime time.Duration) (RepBenchReport, error) {
	rep, err := MeasureRepBench(minTime)
	if err != nil {
		return rep, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	b = append(b, '\n')
	return rep, os.WriteFile(path, b, 0o644)
}
