package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"linefs/internal/core"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/sim"
)

// Simulated-time budgets. A healthy run finishes far inside runDeadline;
// drainFor lets background publication bring every replica's public volume
// up to date before the convergence check.
const (
	runDeadline    = 10 * time.Minute
	drainFor       = 2 * time.Second
	verifyDeadline = time.Minute
	verifyPiece    = 1 << 20
)

// repConfig is what the parent hands each child: one repetition of one
// workload.
type repConfig struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	OutDir   string `json:"out_dir,omitempty"`
}

// repResult is one repetition's record, printed by the child as one JSON
// line. Sim holds every simulated-clock quantity; it must be bit-identical
// for every repetition of the same code and seed, traced or not.
type repResult struct {
	Sim       simRecord          `json:"sim"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	VerifyS   float64            `json:"verify_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Files     []string           `json:"files,omitempty"`
}

// simRecord is the simulated-clock fingerprint of a run. Digest and Events
// come from the sim-sanitizer and are only known on traced runs.
type simRecord struct {
	Calls       int64   `json:"calls"`
	Fsyncs      int64   `json:"fsyncs"`
	AckedBytes  int64   `json:"acked_bytes"`
	RunNs       int64   `json:"run_ns"`
	FsyncP50Ns  int64   `json:"fsync_p50_ns"`
	FsyncP99Ns  int64   `json:"fsync_p99_ns"`
	LatencyHash uint64  `json:"latency_hash"`
	Counters    []int64 `json:"counters"`
	Digest      uint64  `json:"digest,omitempty"`
	Events      uint64  `json:"events,omitempty"`
}

func (s simRecord) writeMBps() float64 {
	return float64(s.AckedBytes) / 1e6 / (float64(s.RunNs) / 1e9)
}

func (s simRecord) opsPerS() float64 { return float64(s.Calls) / (float64(s.RunNs) / 1e9) }

// sameAs compares the fields both records carry: digests only when both
// runs were traced.
func (s simRecord) sameAs(o simRecord) bool {
	if s.Digest != 0 && o.Digest != 0 && (s.Digest != o.Digest || s.Events != o.Events) {
		return false
	}
	s.Digest, s.Events, o.Digest, o.Events = 0, 0, 0, 0
	return reflect.DeepEqual(s, o)
}

// clientRun is one closed-loop client's state: its plan, the expected
// content of its files, and its call accounting.
type clientRun struct {
	id   int
	pl   *plan
	att  *core.Attachment
	fd   int
	exts [][]extent // per file; nil = absent
	// acked[f] is true when the file's current content is covered by an
	// fsync acknowledgment.
	acked []bool
	dirty []int // files written since the last fsync

	lat        [numOps][]time.Duration // simulated latency per timed call, in call order
	calls      int                     // measured calls made
	failed     int                     // measured calls that returned an error
	ackedBytes int64
	unacked    int64
	problems   []string
	spans      *spanLog
	seq        int
	rbuf       []byte // read destination
	ebuf       []byte // expected content, for comparisons
}

func (c *clientRun) problem(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf("c%d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// exec makes one planned call; calls of the measured phase ("run") are
// timed on the simulated clock. It reports false when the call failed; the
// caller stops the client there.
func (c *clientRun) exec(p *sim.Proc, o op, phase string) bool {
	start := p.Now()
	err := c.call(p, o)
	end := p.Now()
	if c.spans != nil {
		c.seq++
		c.spans.call(o.kind.String(), c.id, c.seq, start, end, phase)
	}
	if phase != "run" {
		if err != nil {
			c.problem("%s %s %s: %v", phase, o.kind, c.pl.path(o.file), err)
		}
		return err == nil
	}
	c.calls++
	c.lat[o.kind] = append(c.lat[o.kind], time.Duration(end-start))
	if err != nil {
		c.failed++
		c.problem("%s %s: %v", o.kind, c.pl.path(o.file), err)
		return false
	}
	return true
}

func (c *clientRun) call(p *sim.Proc, o op) error {
	a := c.att
	var err error
	switch o.kind {
	case opMkdir:
		err = a.Mkdir(p, c.pl.dir)
	case opCreate:
		c.fd, err = a.Create(p, c.pl.path(o.file))
		if err == nil {
			c.exts[o.file] = []extent{}
			c.acked[o.file] = false
			c.dirty = append(c.dirty, o.file)
		}
	case opOpen:
		c.fd, err = a.Open(p, c.pl.path(o.file), o.write)
	case opWrite:
		_, err = a.WriteAt(p, c.fd, uint64(o.off), c.pl.pool[o.src:o.src+o.n])
		if err == nil {
			c.recordWrite(o)
		}
	case opFsync:
		err = a.Fsync(p, c.fd)
		if err == nil {
			for _, f := range c.dirty {
				c.acked[f] = true
			}
			c.dirty = c.dirty[:0]
			c.ackedBytes += c.unacked
			c.unacked = 0
		}
	case opRead:
		if cap(c.rbuf) < o.n {
			c.rbuf = make([]byte, 2*o.n)
		}
		got := c.rbuf[:o.n]
		var n int
		n, err = a.ReadAt(p, c.fd, uint64(o.off), got)
		if err == nil && !c.matches(o.file, got[:n], o.off, o.n) {
			err = fmt.Errorf("read %d bytes at %d: content differs from what was written", n, o.off)
		}
	case opClose:
		err = a.Close(p, c.fd)
	case opUnlink:
		err = a.Unlink(p, c.pl.path(o.file))
		if err == nil {
			c.exts[o.file] = nil
		}
	}
	return err
}

// recordWrite extends the file's expected layout; a write continuing the
// previous extent in both file and pool offset merges into it.
func (c *clientRun) recordWrite(o op) {
	ex := c.exts[o.file]
	if k := len(ex) - 1; k >= 0 && ex[k].off+ex[k].n == o.off && (ex[k].src+ex[k].n)%c.pl.poolLen == o.src%c.pl.poolLen {
		ex[k].n += o.n
	} else {
		ex = append(ex, extent{off: o.off, n: o.n, src: o.src})
	}
	c.exts[o.file] = ex
	c.acked[o.file] = false
	c.dirty = append(c.dirty, o.file)
	c.unacked += int64(o.n)
}

// size is the expected length of a file.
func (c *clientRun) size(f int) int {
	s := 0
	for _, e := range c.exts[f] {
		s = max(s, e.off+e.n)
	}
	return s
}

// matches reports whether got holds exactly the expected bytes
// [off, off+want) of file f.
func (c *clientRun) matches(f int, got []byte, off, want int) bool {
	if len(got) != want || off+want > c.size(f) {
		return false
	}
	if cap(c.ebuf) < min(want, verifyPiece) {
		c.ebuf = make([]byte, verifyPiece)
	}
	exp := c.ebuf[:min(want, verifyPiece)]
	for o := 0; o < want; o += len(exp) {
		e := exp[:min(len(exp), want-o)]
		c.pl.fill(e, c.exts[f], off+o)
		if !bytes.Equal(got[o:o+len(e)], e) {
			return false
		}
	}
	return true
}

// latencyHash folds every timed call's simulated latency, in call order per
// client and op kind, into one value: any change to any simulated latency
// changes it.
func latencyHash(cs []*clientRun) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cs {
		for _, lat := range c.lat {
			for _, d := range lat {
				binary.LittleEndian.PutUint64(b[:], uint64(d))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// quickConfig is the experiments' quick-scale LineFS cluster (1600 MB PM
// per node, 24 MB client logs): full LineFS, pipeline parallelism, two
// replicas. One extra client slot serves the verifier.
func quickConfig(compress bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxClients = clientsPerRun + 1
	cfg.Spec.PMSize = 1600 << 20
	cfg.VolSize = 1280 << 20
	cfg.LogSize = 24 << 20
	cfg.InodesPerVol = 32768
	cfg.Compress = compress
	return cfg
}

// waitAll runs the simulation until every event has triggered or the
// simulated deadline passes, and reports whether all triggered.
func waitAll(env *sim.Env, d time.Duration, evs ...*sim.Event) bool {
	ok := true
	env.Go("perfbench/wait", func(p *sim.Proc) {
		deadline := p.Now() + sim.Time(d)
		for _, ev := range evs {
			if _, got := p.WaitTimeout(ev, time.Duration(deadline-p.Now())); !got {
				ok = false
				break
			}
		}
		env.Stop()
	})
	env.Run()
	return ok
}

// runRep runs one repetition: build, format and start the cluster, attach
// the clients and pre-populate their working sets (set-up); release every
// client at once and run to the last return plus drain (measured); then
// check the outputs (verify) and shut the simulation down.
func runRep(cfg repConfig) (*repResult, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := &repResult{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var spans *spanLog
	if cfg.Traced {
		spans = newSpanLog()
	}
	clients := make([]*clientRun, clientsPerRun)
	for i := range clients {
		pl := w.plan(rng, i)
		clients[i] = &clientRun{id: i, pl: pl, exts: make([][]extent, pl.files), acked: make([]bool, pl.files), spans: spans}
	}

	// Set-up.
	t0 := time.Now()
	env := sim.NewEnv(cfg.Seed)
	if cfg.Traced {
		env.EnableTrace()
	}
	ccfg := quickConfig(w.compress)
	cl, err := core.NewCluster(env, ccfg)
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	for i, m := range cl.Machines {
		m.HostCPU.Jitter = hw.NewJitterModel(cfg.Seed+int64(i), 45*time.Microsecond, 0.004, 2500*time.Microsecond)
	}
	cl.Start()
	go1 := sim.NewEvent(env)
	ready := make([]*sim.Event, len(clients))
	done := make([]*sim.Event, len(clients))
	for i, c := range clients {
		c := c
		ready[i], done[i] = sim.NewEvent(env), sim.NewEvent(env)
		env.Go(fmt.Sprintf("perfbench/c%d", i), func(p *sim.Proc) {
			defer done[c.id].Trigger(nil)
			a, err := cl.Attach(p, 0)
			if err != nil {
				c.problem("attach: %v", err)
				ready[c.id].Trigger(nil)
				return
			}
			c.att = a
			ok := true
			for _, o := range c.pl.setup {
				if ok = c.exec(p, o, "setup"); !ok {
					break
				}
			}
			ready[c.id].Trigger(nil)
			if !ok {
				return
			}
			p.Wait(go1)
			c.ackedBytes = 0 // count only bytes acknowledged in the measured phase
			for _, o := range c.pl.run {
				if !c.exec(p, o, "run") {
					return
				}
			}
		})
	}
	if !waitAll(env, runDeadline, ready...) {
		return nil, fmt.Errorf("set-up did not finish within %s of simulated time", runDeadline)
	}
	res.SetupS = time.Since(t0).Seconds()
	spans.phase("setup", t0, time.Now())

	// Measured phase.
	var ms0, ms1 runtime.MemStats
	var prof *os.File
	if cfg.Traced {
		runtime.ReadMemStats(&ms0)
		if prof, err = os.Create(fileIn(cfg, "cpu.pprof")); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	ev0 := env.TracedEvents()
	t1 := time.Now()
	simStart := env.Now()
	go1.Trigger(nil)
	finished := waitAll(env, runDeadline, done...)
	simEnd := env.Now()
	t2 := time.Now()
	env.RunFor(drainFor)
	t3 := time.Now()
	res.WallS = t3.Sub(t1).Seconds()
	ev1 := env.TracedEvents()
	if cfg.Traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
	}
	spans.phase("run", t1, t2)
	spans.phase("drain", t2, t3)

	if !finished {
		res.Problems = append(res.Problems, fmt.Sprintf("workload did not finish within %s of simulated time", runDeadline))
	}

	// Layer counters cover set-up and the measured phase, not the checks.
	lay := layerCounters(cl, clients)

	// Correctness gate (untimed).
	vp := verify(env, cl, clients, spans)
	res.VerifyS = time.Since(t3).Seconds()
	spans.phase("verify", t3, time.Now())

	s := &res.Sim
	s.Calls = lay.calls
	s.AckedBytes = lay.userBytes
	s.Fsyncs = lay.opSamples[opFsync]
	s.RunNs = int64(simEnd - simStart)
	s.FsyncP50Ns = lay.opP50[opFsync]
	s.FsyncP99Ns = lay.opP99[opFsync]
	s.LatencyHash = latencyHash(clients)
	s.Counters = lay.counters()
	// Attempted counts every planned measured call and every check; a
	// call a client never made, after a failure or a stall, failed too.
	res.Attempted = len(vp)
	for _, c := range clients {
		res.Attempted += len(c.pl.run)
		res.Failed += c.failed + len(c.pl.run) - c.calls
		res.Problems = append(res.Problems, c.problems...)
	}
	for _, p := range vp {
		if p != "" {
			res.Failed++
			if len(res.Problems) < 16 {
				res.Problems = append(res.Problems, p)
			}
		}
	}
	if cfg.Traced {
		s.Digest = uint64(env.TraceDigest())
		s.Events = env.TracedEvents()
	}

	// Drain invariant: Shutdown must find no stuck process.
	func() {
		defer func() {
			if v := recover(); v != nil {
				res.Failed++
				res.Problems = append(res.Problems, fmt.Sprintf("drain: %v", v))
			}
		}()
		env.Shutdown()
	}()

	if cfg.Traced {
		res.Layer = lay.metrics(s, res)
		res.Layer["sim.events"] = float64(ev1 - ev0)
		res.Layer["process.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(s.Calls)
		res.Layer["process.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		if err := attributeProfile(fileIn(cfg, "cpu.pprof"), res.Layer); err != nil {
			return nil, err
		}
		tf := fileIn(cfg, "trace.json")
		if err := spans.write(tf); err != nil {
			return nil, err
		}
		res.Files = []string{fileIn(cfg, "cpu.pprof"), tf}
	}
	return res, nil
}

// verify is the correctness gate. Every acknowledged byte is read back
// through a fresh client on node0; then every replica's public volume must
// hold exactly the expected bytes of every file, read with a cost-free
// context so the check adds no simulated work. It returns one entry per
// check, empty when the check passed.
func verify(env *sim.Env, cl *core.Cluster, clients []*clientRun, spans *spanLog) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		if ok {
			out = append(out, "")
		} else {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	fin := sim.NewEvent(env)
	env.Go("perfbench/verify", func(p *sim.Proc) {
		defer fin.Trigger(nil)
		a, err := cl.Attach(p, 0)
		check(err == nil, "verify: attach: %v", err)
		if err != nil {
			return
		}
		rc := &clientRun{id: len(clients), att: a, spans: spans}
		for _, c := range clients {
			rc.pl, rc.exts, rc.acked = c.pl, c.exts, c.acked
			for f, ex := range c.exts {
				if ex == nil || !c.acked[f] {
					continue
				}
				size := c.size(f)
				ok := rc.exec(p, op{kind: opOpen, file: f}, "verify")
				for off := 0; ok && off < size; off += verifyPiece {
					n := min(verifyPiece, size-off)
					ok = rc.exec(p, op{kind: opRead, file: f, off: off, n: n}, "verify")
				}
				if ok {
					rc.exec(p, op{kind: opClose}, "verify")
				}
				check(ok, "durability: %s: %v", c.pl.path(f), rc.problems)
				rc.problems = nil
			}
		}
	})
	if !waitAll(env, verifyDeadline, fin) {
		out = append(out, "durability: read-back did not finish")
	}
	var buf []byte
	for _, c := range clients {
		for f, ex := range c.exts {
			if ex == nil || !c.acked[f] {
				continue
			}
			for mi, v := range cl.Vols {
				ctx := fs.NoCostCtx(cl.Machines[mi].PM)
				check(replicaHolds(ctx, v, c, f, &buf), "convergence: node%d: %s differs from the acknowledged content", mi, c.pl.path(f))
			}
		}
	}
	return out
}

// replicaHolds reports whether a public volume holds exactly file f's
// expected content, and nothing past its end.
func replicaHolds(ctx *fs.Ctx, v *fs.Vol, c *clientRun, f int, buf *[]byte) bool {
	ino, err := v.Resolve(ctx, c.pl.path(f))
	if err != nil {
		return false
	}
	size := c.size(f)
	if len(*buf) < verifyPiece {
		*buf = make([]byte, verifyPiece)
	}
	for off := 0; off < size; off += verifyPiece {
		got := (*buf)[:min(verifyPiece, size-off)]
		n, err := v.ReadFile(ctx, ino, uint64(off), got)
		if err != nil || !c.matches(f, got[:n], off, len(got)) {
			return false
		}
	}
	var tail [1]byte
	n, _ := v.ReadFile(ctx, ino, uint64(size), tail[:])
	return n == 0
}

func fileIn(cfg repConfig, suffix string) string {
	return fmt.Sprintf("%s/%s-seed%d.%s", cfg.OutDir, cfg.Workload, cfg.Seed, suffix)
}
