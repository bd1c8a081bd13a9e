// Command perfbench is the LineFS benchmark: it runs one workload through
// the dfs.Client API on a quick-scale 3-node LineFS chain, checks the
// outputs, and prints end-to-end metrics on both clocks — simulated fsync
// latency and goodput, host wall time and memory — or, with --trace 1, the
// per-layer metrics of a traced run. See README.md.
//
// Every repetition runs in a fresh child process (the same binary with
// -rep), so peak RSS is that of a process running the workload once. The
// parent repeats until --seconds of repetitions have run and reports
// medians of the host-clock figures; the simulated-clock figures must be
// identical in every repetition.
//
//	bash perfbench/run.sh --workload varmail --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// minReps is the fewest untraced repetitions a run reports medians of.
	minReps = 3
	// hardLimit bounds a whole invocation: a repetition that would not end
	// by then is not started, and one that hangs is killed at it.
	hardLimit = 170 * time.Second
)

func main() {
	rep := flag.String("rep", "", "run one repetition (a JSON repConfig) and print its record; used by the parent")
	workload := flag.String("workload", "", "workload: seqwrite, varmail or seqwrite-lz")
	seed := flag.Int64("seed", 1, "workload seed: payloads, op sequence and the simulation seed derive from it")
	seconds := flag.Int("seconds", 30, "how long to keep repeating the workload")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for traces, profiles and determinism records")
	flag.Parse()

	if *rep != "" {
		os.Exit(childMain(*rep))
	}
	if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := parentMain(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func childMain(arg string) int {
	var cfg repConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad -rep: %v\n", err)
		return 2
	}
	res, err := runRep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.Workload, cfg.Seed, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// repRun is one finished child: its record and the kernel's peak RSS.
type repRun struct {
	res         *repResult
	rssMB       float64
	userS, sysS float64 // whole-process CPU time
	traced      bool
}

func parentMain(workload string, seed int64, seconds time.Duration, trace bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	prov := provenance(exe)
	begin := time.Now()

	// Untraced runs repeat the workload untraced; a traced run alternates
	// untraced and traced repetitions so tracing overhead is measured
	// against a baseline taken on the same machine at the same time.
	var runs []repRun
	var problems []string
	var longest time.Duration
	for {
		untraced, traced := 0, 0
		for _, r := range runs {
			if r.traced {
				traced++
			} else {
				untraced++
			}
		}
		enough := untraced >= minReps
		if trace {
			enough = untraced >= 1 && traced >= 1
		}
		if (enough && time.Since(begin) >= seconds) || time.Since(begin)+longest > hardLimit {
			break
		}
		cfg := repConfig{Workload: workload, Seed: seed, Traced: trace && untraced > traced, OutDir: out}
		start := time.Now()
		r, err := runChild(exe, cfg, begin.Add(hardLimit))
		if err != nil {
			problems = append(problems, err.Error())
			break
		}
		longest = max(longest, time.Since(start))
		runs = append(runs, r)
		res := r.res
		fmt.Printf("rep %d traced=%v: setup %.3fs wall %.3fs verify %.3fs peak RSS %.0f MB, cpu user %.2fs sys %.2fs; sim: %d calls, %d fsyncs, p50 %.1fus p99 %.1fus, %.1f MB/s; attempted %d failed %d\n",
			len(runs), cfg.Traced, res.SetupS, res.WallS, res.VerifyS, r.rssMB, r.userS, r.sysS, res.Sim.Calls, res.Sim.Fsyncs,
			float64(res.Sim.FsyncP50Ns)/1e3, float64(res.Sim.FsyncP99Ns)/1e3, res.Sim.writeMBps(), res.Attempted, res.Failed)
		for _, f := range res.Files {
			fmt.Printf("rep %d wrote %s\n", len(runs), f)
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("no repetition completed: %s", strings.Join(problems, "; "))
	}

	attempted, failed := 0, len(problems)
	for _, r := range runs {
		attempted += r.res.Attempted
		failed += r.res.Failed
		problems = append(problems, r.res.Problems...)
	}
	// Simulated-clock determinism guard: every repetition of this code and
	// seed, traced or not, must agree, within this run and with the record
	// kept from earlier runs.
	ref := runs[0].res.Sim
	for i, r := range runs {
		for j := range i {
			if !r.res.Sim.sameAs(runs[j].res.Sim) {
				problems = append(problems, fmt.Sprintf("determinism: repetitions %d and %d disagree on the simulated clock", j+1, i+1))
				break
			}
		}
		if r.res.Sim.Digest != 0 {
			ref = r.res.Sim
		}
	}
	if msg := checkRecord(out, prov, workload, seed, ref); msg != "" {
		problems = append(problems, msg)
	}
	fmt.Printf("sim: digest %016x events %d (traced repetitions only), calls %d, fsyncs %d, latency hash %016x\n",
		ref.Digest, ref.Events, ref.Calls, ref.Fsyncs, ref.LatencyHash)

	var metrics map[string]metric
	if trace {
		if ref.Digest == 0 {
			return fmt.Errorf("no traced repetition completed: %s", strings.Join(problems, "; "))
		}
		metrics = layerMetrics(runs)
		if v := metrics["core.retries"].Value + metrics["core.stale_acks"].Value; v != 0 {
			problems = append(problems, "fault-free run counted replication retries or stale acks")
		}
	} else {
		metrics = endToEndMetrics(runs)
	}
	for _, p := range problems {
		fmt.Printf("problem: %s\n", p)
	}
	fmt.Printf("failed_frac: %g (%d of %d calls and checks)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance: %s\n", pj)

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(problems) == 0 && failed == 0, max(attempted, 1), failed, metrics}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEndMetrics(runs []repRun) map[string]metric {
	s := runs[0].res.Sim
	var wall, setup, rss []float64
	for _, r := range runs {
		if !r.traced {
			wall = append(wall, r.res.WallS)
			setup = append(setup, r.res.SetupS)
			rss = append(rss, r.rssMB)
		}
	}
	return map[string]metric{
		"write_mbps":   {s.writeMBps(), "MB/s"},
		"ops_per_s":    {s.opsPerS(), "1/s"},
		"fsync_p50_us": {float64(s.FsyncP50Ns) / 1e3, "us"},
		"fsync_p99_us": {float64(s.FsyncP99Ns) / 1e3, "us"},
		"wall_s":       {median(wall), "s"},
		"setup_s":      {median(setup), "s"},
		"peak_rss_mb":  {median(rss), "MB"},
	}
}

// layerUnits gives every per-layer metric its unit; a metric missing here
// is a bug caught by layerMetrics.
var layerUnits = map[string]string{
	"sim.events": "count", "sim.events_per_op": "events/op", "sim.events_per_wall_s": "1/s",
	"hw.pm_link_mb": "MB", "hw.pcie_mb": "MB", "hw.rss_per_live_mb": "MB/MB",
	"hw.host_cpu_busy_ms": "ms", "hw.nic_cpu_busy_ms": "ms",
	"fs.live_mb":  "MB",
	"core.chunks": "count", "core.wire_msgs_per_chunk": "msgs/chunk",
	"core.retries": "count", "core.stale_acks": "count",
	"rdma.fabric_mb_per_user_mb": "MB/MB",
	"compress.ratio":             "x",
	"dfs.fsync_samples":          "count",
	"process.alloc_bytes_per_op": "B/op", "process.gc_cycles": "count",
	"process.unattributed_self_s": "s", "process.profile_s": "s",
	"process.trace_overhead_s": "s", "process.verify_s": "s",
	"harness.self_s": "s",
}

func init() {
	for _, m := range profileModules {
		layerUnits[m+".self_s"] = "s"
	}
	for _, st := range stageNames {
		layerUnits["core.stage."+st+"_us"] = "us"
	}
	for _, k := range []opKind{opCreate, opWrite, opRead, opUnlink} {
		layerUnits["dfs."+k.String()+"_p50_us"] = "us"
		layerUnits["dfs."+k.String()+"_p99_us"] = "us"
	}
}

// layerMetrics takes the per-layer metrics of the traced repetition with
// the median profile total — one repetition, so its per-module self times
// still add up to its profile — and adds the ones relating traced to
// untraced figures.
func layerMetrics(runs []repRun) map[string]metric {
	var traced []*repResult
	var wallT, wallU, rss []float64
	for _, r := range runs {
		if r.traced {
			traced = append(traced, r.res)
			wallT = append(wallT, r.res.WallS)
		} else {
			wallU = append(wallU, r.res.WallS)
			rss = append(rss, r.rssMB)
		}
	}
	sort.Slice(traced, func(i, j int) bool {
		return traced[i].Layer["process.profile_s"] < traced[j].Layer["process.profile_s"]
	})
	m := traced[(len(traced)-1)/2].Layer
	calls := float64(runs[0].res.Sim.Calls)
	m["sim.events_per_op"] = ratio(m["sim.events"], calls)
	m["sim.events_per_wall_s"] = ratio(m["sim.events"], median(wallU))
	m["hw.rss_per_live_mb"] = ratio(median(rss), m["fs.live_mb"])
	m["process.trace_overhead_s"] = median(wallT) - median(wallU)
	out := map[string]metric{}
	for k, u := range layerUnits {
		v, ok := m[k]
		if !ok {
			panic("perfbench: per-layer metric " + k + " was not measured")
		}
		out[k] = metric{v, u}
	}
	return out
}

// runChild runs one repetition in a fresh process and reads its record and
// peak RSS.
func runChild(exe string, cfg repConfig, deadline time.Time) (repRun, error) {
	arg, err := json.Marshal(cfg)
	if err != nil {
		return repRun{}, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-rep", string(arg))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return repRun{}, err
	}
	if err := cmd.Start(); err != nil {
		return repRun{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return repRun{}, fmt.Errorf("%s seed %d traced=%v: %w", cfg.Workload, cfg.Seed, cfg.Traced, err)
	}
	r := repRun{traced: cfg.Traced, res: &repResult{}}
	if err := json.Unmarshal([]byte(last), r.res); err != nil {
		return repRun{}, fmt.Errorf("repetition record: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
		r.userS = time.Duration(ru.Utime.Nano()).Seconds()
		r.sysS = time.Duration(ru.Stime.Nano()).Seconds()
	}
	return r, nil
}

// childProcs is the GOMAXPROCS every repetition runs with: the machine's
// CPU count, capped at 2 so runs on larger machines stay comparable.
func childProcs() int { return min(runtime.NumCPU(), 2) }

// keptRecord is what a run keeps per binary, workload and seed.
type keptRecord struct {
	Provenance map[string]any `json:"provenance"`
	Sim        simRecord      `json:"sim"`
}

// checkRecord compares a run's simulated-clock record with the one kept for
// the same binary, workload and seed, and stores it when none is kept yet
// (or when this run adds the sanitizer digest). It returns a problem, or "".
func checkRecord(out string, prov map[string]any, workload string, seed int64, rec simRecord) string {
	dir := filepath.Join(out, "records", fmt.Sprint(prov["binary_sha256"]))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if b, err := os.ReadFile(path); err == nil {
		var old keptRecord
		if err := json.Unmarshal(b, &old); err != nil {
			return "determinism record: " + err.Error()
		}
		if !rec.sameAs(old.Sim) {
			return fmt.Sprintf("determinism: simulated-clock record differs from the one kept in %s", path)
		}
		if old.Sim.Digest != 0 || rec.Digest == 0 {
			return ""
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return "determinism record: " + err.Error()
	}
	b, err := json.Marshal(keptRecord{prov, rec})
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return "determinism record: " + err.Error()
	}
	return ""
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// provenance describes the code and machine behind a run's numbers.
func provenance(exe string) map[string]any {
	p := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": childProcs(),
		"nproc":      runtime.NumCPU(),
		"commit":     "unknown",
		"dirty":      "unknown",
		"cpu":        cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		p["ram_mb"] = float64(si.Totalram) * float64(si.Unit) / 1e6
	}
	p["binary_sha256"] = "unknown"
	if sum, err := fileHash(exe); err == nil {
		p["binary_sha256"] = sum[:16]
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
