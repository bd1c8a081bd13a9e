package bench

import (
	"testing"
	"time"
)

// TestRepBenchAcceptance runs the replication-chain bench at a tiny
// allocation window and pins the PR's acceptance shape: the batched fast
// path must beat the seed per-chunk protocol by >= 2x in chunks/sec and
// >= 4x in wire messages per chunk, without regressing fsync latency
// beyond noise, and the pooled hot path must not allocate. The simulated
// columns are deterministic, so a re-measure of the baseline must
// reproduce it bit for bit. It is not parallel: the allocation window
// reads process-global runtime.MemStats, so a parallel sibling's
// allocations would land in it.
func TestRepBenchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full chain workloads")
	}
	rep, err := MeasureRepBench(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.WireMsgsPerChunk != 4 {
		t.Errorf("seed protocol sends %.2f wire messages per chunk, want exactly 4 (2 data hops + 2 acks)",
			rep.Baseline.WireMsgsPerChunk)
	}
	if rep.ChunksPerSecSpeedup < 2 {
		t.Errorf("chunks/sec speedup = %.2fx, want >= 2x", rep.ChunksPerSecSpeedup)
	}
	if rep.WireMsgReduction < 4 {
		t.Errorf("wire message reduction = %.2fx, want >= 4x", rep.WireMsgReduction)
	}
	if rep.Current.FsyncP99Micros > 1.25*rep.Baseline.FsyncP99Micros {
		t.Errorf("fsync p99 regressed: %.1f us vs baseline %.1f us",
			rep.Current.FsyncP99Micros, rep.Baseline.FsyncP99Micros)
	}
	if rep.PooledAllocsPerOp >= 1 {
		t.Errorf("pooled hot path allocates %.1f allocs/op, want 0", rep.PooledAllocsPerOp)
	}
	again, err := measureRepChain(DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if again != rep.Baseline {
		t.Errorf("baseline chain run is nondeterministic:\n first %+v\nsecond %+v", rep.Baseline, again)
	}
}
