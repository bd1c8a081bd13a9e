// Command linefs-bench regenerates the paper's evaluation tables and
// figures on the simulated testbed.
//
// Usage:
//
//	linefs-bench -exp fig4            # one experiment
//	linefs-bench -exp all             # the full suite, paper order
//	linefs-bench -exp all -j 4        # four experiments concurrently
//	linefs-bench -exp table3 -full    # paper-scale sizes (slow)
//	linefs-bench -list                # enumerate experiments
//	linefs-bench -kernelbench         # DES kernel microbench -> BENCH_kernel.json
//	linefs-bench -databench           # data-plane microbench -> BENCH_dataplane.json
//	linefs-bench -repbench            # replication-chain bench -> BENCH_replication.json
//	linefs-bench -selfcheck           # run each experiment twice, fail on digest divergence
//	linefs-bench -chaos               # 200 seeded fault schedules, fail on invariant violations
//	linefs-bench -chaos -chaos-seed 7 # replay one chaos schedule (minimal reproducer)
//	linefs-bench -exp fig9 -cpuprofile cpu.out -memprofile mem.out  # pprof profiles of the run
//
// Every experiment owns a self-contained sim.Env with a deterministic seed,
// so -j N produces byte-identical tables to -j 1; only wall-clock changes.
// Per-experiment timing goes to stderr to keep stdout reproducible.
//
// -selfcheck is the runtime half of the determinism contract (DESIGN.md §8):
// each selected experiment runs twice with the sim-sanitizer enabled, and
// the run fails unless both executions fold the exact same event sequence
// into the same digest and render byte-identical tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"linefs/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so tests can drive the CLI with
// captured streams and compare stdout bytes across -j values.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("linefs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment name (table1..table3, fig4..fig10) or 'all'")
		full   = fs.Bool("full", false, "run at paper-scale sizes instead of quick scale")
		seed   = fs.Int64("seed", 42, "simulation seed")
		list   = fs.Bool("list", false, "list experiments and exit")
		j      = fs.Int("j", runtime.GOMAXPROCS(0), "experiments to run concurrently")
		kbench = fs.Bool("kernelbench", false, "run DES kernel microbenchmarks and write BENCH_kernel.json")
		kout   = fs.String("kernelbench-out", "BENCH_kernel.json", "output path for -kernelbench")
		dbench = fs.Bool("databench", false, "run data-plane microbenchmarks and write BENCH_dataplane.json")
		dout   = fs.String("databench-out", "BENCH_dataplane.json", "output path for -databench")
		dtime  = fs.Duration("databench-time", time.Second, "per-metric measurement window for -databench")
		rbench = fs.Bool("repbench", false, "run replication-chain benchmarks and write BENCH_replication.json")
		rout   = fs.String("repbench-out", "BENCH_replication.json", "output path for -repbench")
		rtime  = fs.Duration("repbench-time", time.Second, "pooled-path allocation measurement window for -repbench")
		self   = fs.Bool("selfcheck", false, "run each experiment twice and fail on sim-sanitizer digest divergence")
		chaos  = fs.Bool("chaos", false, "run the seeded fault-schedule explorer and fail on any invariant violation")
		chaosN = fs.Int("chaos-n", 200, "number of seeded fault schedules for -chaos")
		chaosS = fs.Int64("chaos-seed", -1, "replay exactly this chaos seed (reproducer mode); -1 runs -chaos-n schedules")
		cpuOut = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memOut = fs.String("memprofile", "", "write a pprof heap profile (allocations over the whole run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}
	if *memOut != "" {
		defer func() {
			if err := writeHeapProfile(*memOut); err != nil && code == 0 {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	if *list {
		for _, e := range append(bench.All(), bench.Ablations()...) {
			fmt.Fprintf(stdout, "  %-12s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	if *kbench {
		cur, err := bench.WriteKernelBench(*kout)
		if err != nil {
			fmt.Fprintf(stderr, "kernelbench: %v\n", err)
			return 1
		}
		base := bench.KernelBaseline
		fmt.Fprintf(stdout, "kernel events/sec:          %12.0f (baseline %12.0f, %.1fx)\n",
			cur.EventsPerSec, base.EventsPerSec, cur.EventsPerSec/base.EventsPerSec)
		fmt.Fprintf(stdout, "kernel handoff events/sec:  %12.0f (baseline %12.0f, %.1fx)\n",
			cur.HandoffEventsPerSec, base.HandoffEventsPerSec, cur.HandoffEventsPerSec/base.HandoffEventsPerSec)
		fmt.Fprintf(stdout, "resource grants/sec:        %12.0f (baseline %12.0f, %.1fx)\n",
			cur.ResourceGrantsPerSec, base.ResourceGrantsPerSec, cur.ResourceGrantsPerSec/base.ResourceGrantsPerSec)
		fmt.Fprintf(stdout, "queue put+get pairs/sec:    %12.0f (baseline %12.0f, %.1fx)\n",
			cur.QueueOpsPerSec, base.QueueOpsPerSec, cur.QueueOpsPerSec/base.QueueOpsPerSec)
		fmt.Fprintf(stdout, "wrote %s\n", *kout)
		return 0
	}

	if *dbench {
		rep, err := bench.WriteDataBench(*dout, *dtime)
		if err != nil {
			fmt.Fprintf(stderr, "databench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "lzw compress MB/s:          %12.1f (baseline %12.1f, %.1fx)\n",
			rep.Current.LZWCompressMBps, rep.Baseline.LZWCompressMBps, rep.Speedup.LZWCompressMBps)
		fmt.Fprintf(stdout, "lzw decompress MB/s:        %12.1f (baseline %12.1f, %.1fx)\n",
			rep.Current.LZWDecompressMBps, rep.Baseline.LZWDecompressMBps, rep.Speedup.LZWDecompressMBps)
		fmt.Fprintf(stdout, "log encode entries/sec:     %12.0f (baseline %12.0f, %.1fx)\n",
			rep.Current.LogEncodePerSec, rep.Baseline.LogEncodePerSec, rep.Speedup.LogEncodePerSec)
		fmt.Fprintf(stdout, "log decode entries/sec:     %12.0f (baseline %12.0f, %.1fx)\n",
			rep.Current.LogDecodePerSec, rep.Baseline.LogDecodePerSec, rep.Speedup.LogDecodePerSec)
		fmt.Fprintf(stdout, "pm write+persist GB/s:      %12.2f (baseline %12.2f, %.1fx)\n",
			rep.Current.PMWriteGBps, rep.Baseline.PMWriteGBps, rep.Speedup.PMWriteGBps)
		fmt.Fprintf(stdout, "aggregate speedup (lzw+log geomean): %.1fx\n", rep.SpeedupAggregate)
		fmt.Fprintf(stdout, "wrote %s\n", *dout)
		return 0
	}

	if *rbench {
		rep, err := bench.WriteRepBench(*rout, *rtime)
		if err != nil {
			fmt.Fprintf(stderr, "repbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chain chunks/sec:           %12.0f (baseline %12.0f, %.1fx)\n",
			rep.Current.ChunksPerSec, rep.Baseline.ChunksPerSec, rep.ChunksPerSecSpeedup)
		fmt.Fprintf(stdout, "wire messages/chunk:        %12.2f (baseline %12.2f, %.1fx fewer)\n",
			rep.Current.WireMsgsPerChunk, rep.Baseline.WireMsgsPerChunk, rep.WireMsgReduction)
		fmt.Fprintf(stdout, "fsync p50 us:               %12.1f (baseline %12.1f)\n",
			rep.Current.FsyncP50Micros, rep.Baseline.FsyncP50Micros)
		fmt.Fprintf(stdout, "fsync p99 us:               %12.1f (baseline %12.1f, %.2fx)\n",
			rep.Current.FsyncP99Micros, rep.Baseline.FsyncP99Micros, rep.FsyncP99Speedup)
		fmt.Fprintf(stdout, "pooled path allocs/op:      %12.3f\n", rep.PooledAllocsPerOp)
		fmt.Fprintf(stdout, "wrote %s\n", *rout)
		return 0
	}

	if *chaos {
		if bad := bench.Chaos(bench.Options{Quick: !*full, Seed: *seed}, *chaosN, *chaosS, stdout, stderr); bad > 0 {
			fmt.Fprintf(stderr, "chaos: %d schedule(s) violated invariants\n", bad)
			return 1
		}
		return 0
	}

	opts := bench.Options{Quick: !*full, Seed: *seed}

	var toRun []bench.Experiment
	switch *exp {
	case "all":
		toRun = bench.All()
	case "ablations":
		toRun = bench.Ablations()
	default:
		for _, name := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", name)
				return 2
			}
			toRun = append(toRun, e)
		}
	}

	start := time.Now()
	if *self {
		failed := 0
		for _, r := range bench.SelfCheck(toRun, opts, *j) {
			switch {
			case r.Err != nil:
				fmt.Fprintf(stderr, "selfcheck %s: %v\n", r.Name, r.Err)
				failed++
			case !r.OK():
				fmt.Fprintf(stdout, "selfcheck %-10s DIVERGED: digest %016x over %d events vs %016x over %d events\n",
					r.Name, uint64(r.Digest[0]), r.Events[0], uint64(r.Digest[1]), r.Events[1])
				if r.Output[0] != r.Output[1] {
					fmt.Fprintf(stdout, "selfcheck %-10s rendered outputs differ (%d vs %d bytes)\n",
						r.Name, len(r.Output[0]), len(r.Output[1]))
				}
				failed++
			default:
				fmt.Fprintf(stdout, "selfcheck %-10s ok: digest %016x over %d events\n",
					r.Name, uint64(r.Digest[0]), r.Events[0])
			}
		}
		fmt.Fprintf(stderr, "selfchecked %d experiment(s) twice with -j %d in %s\n",
			len(toRun), *j, time.Since(start).Round(time.Millisecond))
		if failed > 0 {
			fmt.Fprintf(stderr, "selfcheck: %d experiment(s) nondeterministic or failing\n", failed)
			return 1
		}
		return 0
	}

	results, errs := bench.RunAll(toRun, opts, *j)
	for i, e := range toRun {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, errs[i])
			return 1
		}
		results[i].Print(stdout)
	}
	fmt.Fprintf(stderr, "ran %d experiment(s) with -j %d in %s\n",
		len(toRun), *j, time.Since(start).Round(time.Millisecond))
	return 0
}

// writeHeapProfile writes the heap profile to path. Its alloc_space and
// alloc_objects samples cover the whole run; the GC first makes the
// in-use samples current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
