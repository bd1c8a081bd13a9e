package workload

import (
	"fmt"
	"testing"
	"time"

	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/sim"
)

func testCluster(t *testing.T, clients int) (*sim.Env, *core.Cluster) {
	t.Helper()
	// Small PM: the workloads here move at most ~8 MB.
	cfg := core.DefaultConfig()
	cfg.Spec.PMSize = 256 << 20
	cfg.VolSize = 128 << 20
	cfg.LogSize = 16 << 20
	cfg.ChunkSize = 1 << 20
	cfg.MaxClients = clients
	cfg.InodesPerVol = 32768
	env := sim.NewEnv(1)
	cl, err := core.NewCluster(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	return env, cl
}

func TestWriteAndReadBench(t *testing.T) {
	t.Parallel()
	env, cl := testCluster(t, 1)
	done := false
	env.Go("bench", func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		bw, err := WriteBench(p, a.Client, "/wfile", 8<<20, 16<<10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bw < 100e6 {
			t.Errorf("write bandwidth %.0f MB/s implausibly low", bw/1e6)
		}
		p.Sleep(2 * time.Second) // let publication finish
		seq, err := ReadBench(p, a.Client, "/wfile", 8<<20, 16<<10, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := ReadBench(p, a.Client, "/wfile", 8<<20, 16<<10, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		if seq < 500e6 || rnd < 500e6 {
			t.Errorf("read bandwidths seq=%.0f rnd=%.0f MB/s too low", seq/1e6, rnd/1e6)
		}
		done = true
	})
	env.RunUntil(120 * time.Second)
	if !done {
		t.Fatal("bench did not finish")
	}
}

func TestLatencyBench(t *testing.T) {
	t.Parallel()
	env, cl := testCluster(t, 1)
	done := false
	env.Go("bench", func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		lat, err := LatencyBench(p, a.Client, "/lat", 200, 16<<10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if lat.N() != 200 {
			t.Fatalf("samples = %d", lat.N())
		}
		if lat.Mean() <= 0 || lat.Mean() > 5*time.Millisecond {
			t.Fatalf("mean latency %v out of plausible range", lat.Mean())
		}
		if lat.Percentile(99) < lat.Percentile(50) {
			t.Fatal("percentiles not monotone")
		}
		done = true
	})
	env.RunUntil(120 * time.Second)
	if !done {
		t.Fatal("bench did not finish")
	}
}

func TestStreamclusterSoloVsInterfered(t *testing.T) {
	t.Parallel()
	// Solo: job on an otherwise idle CPU finishes in SoloTime.
	env, cl := testCluster(t, 1)
	cpu := cl.Machines[0].HostCPU
	sc := NewStreamcluster(cpu, cpu.NumCores(), 20, time.Millisecond, 0)
	sc.Start(env)
	env.RunUntil(10 * time.Second)
	if !sc.Done.Triggered() {
		t.Fatal("solo streamcluster never finished")
	}
	solo := sc.Elapsed
	if solo != sc.SoloTime() {
		t.Fatalf("solo = %v, want %v", solo, sc.SoloTime())
	}

	// Interfered: a competing DFS-tagged compute load slows it down.
	env2, cl2 := testCluster(t, 1)
	cpu2 := cl2.Machines[0].HostCPU
	sc2 := NewStreamcluster(cpu2, cpu2.NumCores(), 20, time.Millisecond, 0)
	sc2.Start(env2)
	for i := 0; i < 8; i++ {
		env2.Go("hog", func(p *sim.Proc) {
			for {
				cpu2.Compute(p, time.Millisecond, 0, "dfs")
			}
		})
	}
	env2.RunUntil(30 * time.Second)
	if !sc2.Done.Triggered() {
		t.Fatal("interfered streamcluster never finished")
	}
	if sc2.Elapsed <= solo {
		t.Fatalf("interference had no effect: %v vs solo %v", sc2.Elapsed, solo)
	}
}

func TestFilebenchFileserver(t *testing.T) {
	t.Parallel()
	env, cl := testCluster(t, 1)
	done := false
	env.Go("fb", func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		res, err := Filebench(p, a.Client, FilebenchConfig{
			Profile: Fileserver, Files: 20, Ops: 100, Dir: "/fsrv", Seed: 3,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 100 || res.OpsPerSec <= 0 {
			t.Fatalf("result = %+v", res)
		}
		done = true
	})
	env.RunUntil(300 * time.Second)
	if !done {
		t.Fatal("fileserver did not finish")
	}
}

func TestFilebenchVarmailFsyncs(t *testing.T) {
	t.Parallel()
	env, cl := testCluster(t, 1)
	done := false
	var syncs int64
	env.Go("fb", func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		res, err := Filebench(p, a.Client, FilebenchConfig{
			Profile: Varmail, Files: 20, Ops: 100, Dir: "/mail", Seed: 3,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops != 100 {
			t.Fatalf("ops = %d", res.Ops)
		}
		syncs = a.Client.Fsyncs
		done = true
	})
	env.RunUntil(300 * time.Second)
	if !done {
		t.Fatal("varmail did not finish")
	}
	if syncs < 40 {
		t.Fatalf("varmail issued only %d fsyncs; expected ~half of ops", syncs)
	}
}

func TestTencentSortCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("full 20k-record sort takes ~30s of simulation; skipped in -short")
	}
	t.Parallel()
	env, cl := testCluster(t, 8)
	done := false
	env.Go("sort", func(p *sim.Proc) {
		var clients []*dfs.Client
		for i := 0; i < 8; i++ {
			a, err := cl.Attach(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, a.Client)
		}
		cfg := DefaultSortConfig(20000)
		res, err := TencentSort(p, env, clients, cl.Machines[0].HostCPU, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.OutputBytes != int64(cfg.Records*cfg.RecordSize) {
			t.Fatalf("output bytes = %d, want %d", res.OutputBytes, cfg.Records*cfg.RecordSize)
		}
		for s := 0; s < cfg.Sorters; s++ {
			ok, err := VerifySorted(p, clients[0], fmt.Sprintf("%s_out_r%d", cfg.Dir, s), cfg)
			if err != nil || !ok {
				t.Fatalf("range %d not sorted: %v", s, err)
			}
		}
		done = true
	})
	env.RunUntil(600 * time.Second)
	if !done {
		t.Fatal("sort did not finish")
	}
}

func TestIperfConsumesBandwidth(t *testing.T) {
	t.Parallel()
	env, cl := testCluster(t, 1)
	ip := StartIperf(env, cl.Machines[0].Port, cl.Machines[1].Port, 256<<10)
	env.RunUntil(time.Second)
	ip.Stop()
	// 1s at 2.75 GB/s egress: iperf alone should move over 2 GB.
	if ip.Bytes < 2<<30 {
		t.Fatalf("iperf moved only %d bytes in 1s", ip.Bytes)
	}
}
