package core

import (
	"fmt"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/pipeline"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// chunk is the pipeline unit: a contiguous, entry-aligned range of one
// client's log (§3.1 "LineFS chunk"). Chunks recycle through a per-client
// freelist once fully published and replicated: the raw, compression, and
// touched buffers keep their capacity across reuse so the steady-state hot
// path allocates nothing.
type chunk struct {
	cs       *clientState
	from, to uint64
	firstSeq uint64

	raw        []byte // pooled: grown once, reused across chunks
	cbuf       []byte // pooled compression output buffer
	entries    []*fs.Entry
	touched    []touched // pooled
	payload    []byte    // raw or cbuf, for the wire
	compressed bool

	memHeld int64

	// sync marks fsync-path chunks (transferred on the low-latency class);
	// started guards against double-processing when fsyncs overlap.
	sync    bool
	started bool

	sent       *sim.Event
	published  *sim.Event
	replicated *sim.Event
	valid      bool
	// retained marks buffers possibly still referenced by a timed-out
	// kernel-worker copy; such a chunk is leaked instead of recycled.
	retained bool
	dropped  int64 // bytes removed by coalescing
}

// clientState is the primary-side NICFS state for one LibFS client.
type clientState struct {
	n    *NICFS
	slot int
	id   string
	log  *fs.LogArea

	// queued is the log offset up to which chunks have been formed;
	// pubNext the offset publication has applied through; repOff the
	// offset fully acknowledged by all replicas.
	queued  uint64
	pubNext uint64
	repOff  uint64
	ackSent uint64

	// pending holds incomplete chunks in order, drained by the completion
	// process for reclaim.
	pending  []*chunk
	compKick *sim.Event

	// pubBuf reorders chunks arriving at the publish stage (the fsync path
	// can inject chunks around the async pipeline).
	pubBuf map[uint64]*chunk

	// The sender serializes chain transfers: stages enqueue finished chunks
	// on xferQ in any order, xferBuf reorders them by log offset, and the
	// sendNext cursor walks them contiguously, coalescing backlog into
	// replChunkBatch frames (bounded by batchChunks and repBatchBytes).
	xferQ      *sim.Queue[*chunk]
	xferBuf    map[uint64]*chunk
	sendNext   uint64
	batch      []*chunk
	batchBytes int

	// Chain geometry is static per slot; cache it so the ack path does not
	// allocate. ackWater[i] is the cumulative watermark acknowledged by
	// chain position i (replicas only, position 0 is this primary);
	// repPending is the ordered deque of sent-but-unreplicated chunks the
	// watermark advances over.
	chain      []int
	chainNames []string
	ackWater   []uint64
	repPending []*chunk

	// freeCk is the chunk freelist fed by runCompletion.
	freeCk []*chunk

	// repWait tracks procs waiting for replication to reach an offset.
	repWait []repWaiter

	// fault records the first unrecoverable publication/validation error;
	// subsequent fsyncs surface it instead of blocking (e.g. ENOSPC in the
	// public area).
	fault error

	mainPl *pipeline.Pipeline[*chunk]
	repPl  *pipeline.Pipeline[*chunk]
	pubPl  *pipeline.Pipeline[*chunk]

	// seqPl is the LineFS-NotParallel path: one worker does every stage.
	seqQ *sim.Queue[*chunk]

	clientConn *rdma.Conn // NICFS -> LibFS service (reclaim, revoke)

	procs []*sim.Proc
}

type repWaiter struct {
	off uint64
	ev  *sim.Event
}

func newClientState(n *NICFS, slot int, id string, la *fs.LogArea) *clientState {
	cs := &clientState{
		n:        n,
		slot:     slot,
		id:       id,
		log:      la,
		compKick: sim.NewEvent(n.cl.Env),
		pubBuf:   make(map[uint64]*chunk),
		xferQ:    sim.NewQueue[*chunk](n.cl.Env, 0),
		xferBuf:  make(map[uint64]*chunk),
	}
	cs.chain = n.cl.chain(n.machine)
	cs.chainNames = make([]string, len(cs.chain))
	for i, mi := range cs.chain {
		cs.chainNames[i] = n.cl.Machines[mi].Name
	}
	cs.ackWater = make([]uint64, len(cs.chain))
	env := n.cl.Env
	cfg := n.cl.Cfg
	if cfg.Parallel {
		// The ingress queue must never block the NICFS bulk workers (they
		// also drain replication acks); backpressure comes from the NICMem
		// flow-control watermarks in the fetch stage (§4). Worker growth
		// draws from the NICFS-wide budget shared across every client's
		// pipelines (the SmartNIC's cores are one pool).
		plCfg := pipeline.Config{QueueCap: 1 << 20, ScaleThreshold: 5, Budget: n.plBudget}
		cs.mainPl = pipeline.New(env, id+"/main", plCfg,
			pipeline.Stage[*chunk]{Name: "fetch", MinWorkers: 1, MaxWorkers: 2, Work: cs.stageFetch},
			pipeline.Stage[*chunk]{Name: "validate", MinWorkers: 1, MaxWorkers: 4, Work: cs.stageValidate},
			pipeline.Stage[*chunk]{Name: "split", InOrder: true, Work: cs.stageSplit},
		)
		repStages := []pipeline.Stage[*chunk]{}
		if cfg.Compress {
			repStages = append(repStages, pipeline.Stage[*chunk]{
				Name: "compress", MinWorkers: 1, MaxWorkers: cfg.Spec.NICCores, Work: cs.stageCompress,
			})
		}
		repStages = append(repStages, pipeline.Stage[*chunk]{Name: "transfer", Work: cs.stageTransfer})
		cs.repPl = pipeline.New(env, id+"/rep", plCfg, repStages...)
		cs.pubPl = pipeline.New(env, id+"/pub", plCfg,
			pipeline.Stage[*chunk]{Name: "publish", InOrder: true, Work: cs.stagePublish},
		)
	} else {
		cs.seqQ = sim.NewQueue[*chunk](env, 0)
		cs.procs = append(cs.procs, env.Go(id+"/seq", cs.runSequential))
	}
	cs.procs = append(cs.procs, env.Go(id+"/sender", cs.runSender))
	cs.procs = append(cs.procs, env.Go(id+"/completion", cs.runCompletion))
	if n.cl.Fabric.Faults != nil {
		cs.procs = append(cs.procs, env.Go(id+"/retransmit", cs.runRetransmit))
	}
	return cs
}

// repRetryEvery is the retransmit layer's base interval.
const repRetryEvery = 10 * time.Millisecond

// runRetransmit is the replication retry layer. It runs exactly when the
// cluster fabric carries a fault plane: without one, RDMA reliable
// connections lose no frame, and a compressed chunk can take longer than
// repRetryEvery to be acked, so every resend would be spurious. When the
// pending window sits without the cumulative-ack watermark advancing for a
// full interval, the un-replicated chunks are resent down the chain.
// Resends are idempotent — a mirror that already persisted a range re-acks
// its watermark and drops the duplicate (re-forwarding it, in case the lost
// frame was a mid-chain hop's forward) — and the interval backs off
// exponentially while no progress is made, so a long partition does not
// flood the fabric. Chunk buffers stay alive until replication completes,
// so resending reuses them without copies.
func (cs *clientState) runRetransmit(p *sim.Proc) {
	delay := repRetryEvery
	var lastWater uint64
	for {
		p.Sleep(delay)
		if len(cs.repPending) == 0 {
			delay = repRetryEvery
			continue
		}
		water, any := cs.aliveWater()
		if !any {
			// No live replica: advanceAcked already completes chunks against
			// the reconfigured (empty) chain; nothing to resend to.
			delay = repRetryEvery
			continue
		}
		if water > lastWater {
			lastWater = water
			delay = repRetryEvery
			continue
		}
		cs.resendPending(p)
		if delay < 8*repRetryEvery {
			delay *= 2
		}
	}
}

// resendPending re-ships every un-replicated pending chunk, coalescing
// contiguous runs into frames bounded like the first transmission.
func (cs *clientState) resendPending(p *sim.Proc) {
	n := cs.n
	maxChunks := cs.batchChunks()
	var run []*chunk
	flush := func() {
		if len(run) == 0 {
			return
		}
		_ = cs.sendRun(p, run)
		n.cl.Robust.RepResends++
		run = run[:0]
	}
	for _, ck := range cs.repPending {
		if ck.replicated.Triggered() {
			flush()
			continue
		}
		if len(run) > 0 && run[len(run)-1].to != ck.from {
			flush()
		}
		run = append(run, ck)
		if len(run) >= maxChunks {
			flush()
		}
	}
	flush()
}

// repBatchBytes caps one frame's payload: a backlog flushes once its queued
// payload reaches it.
const repBatchBytes = 1 << 20

// batchChunks is the chunk cap of one replChunkBatch frame
// (Config.RepBatchChunks, at least 1).
func (cs *clientState) batchChunks() int {
	return max(cs.n.cl.Cfg.RepBatchChunks, 1)
}

// sendRun ships one contiguous chunk run to the next hop as a single
// replChunkBatch frame — the chain's only data frame, a run of one
// included — riding the low-latency class when any member is fsync-path.
func (cs *clientState) sendRun(p *sim.Proc, run []*chunk) error {
	n := cs.n
	msg := &replChunkBatch{
		Slot: cs.slot, Epoch: n.epoch, From: run[0].from, To: run[len(run)-1].to,
		Chunks: make([]batchChunk, len(run)),
	}
	wire := 0
	for i, ck := range run {
		pl := payloadOf(ck)
		wire += len(pl)
		msg.Sync = msg.Sync || ck.sync
		msg.Chunks[i] = batchChunk{
			From: ck.from, To: ck.to, FirstSeq: ck.firstSeq,
			Payload: pl, Compressed: ck.compressed,
			RawLen: len(ck.raw), Touched: ck.touched, Sync: ck.sync,
		}
	}
	err := n.peer(cs.chain[1], msg.Sync).Send(p, "repl-chunk-batch", msg, wire)
	n.RepMsgs++
	return err
}

func (cs *clientState) kill() {
	if cs.mainPl != nil {
		cs.mainPl.Kill()
		cs.repPl.Kill()
		cs.pubPl.Kill()
	}
	if cs.seqQ != nil {
		cs.seqQ.Close()
	}
	cs.xferQ.Close()
	for _, p := range cs.procs {
		p.Kill()
	}
	cs.procs = nil
}

// notifyClient sends a one-way message to the owning LibFS host service.
func (cs *clientState) notifyClient(p *sim.Proc, op string, arg any, size int) {
	if cs.clientConn == nil {
		m := cs.n.cl.Machines[cs.n.machine]
		cs.clientConn = rdma.Dial(m.NICPort, m.HostPort, clientService(cs.slot), true)
	}
	_ = cs.clientConn.Send(p, op, arg, size)
}

func clientService(slot int) string { return fmt.Sprintf("client%d", slot) }

// getChunk pops a recycled chunk (or makes one) and resets it for the
// range [from, to). Completion events are fresh per use: old waiters hold
// the previous incarnation's events, which stay triggered.
func (cs *clientState) getChunk(from, to uint64, sync bool) *chunk {
	var ck *chunk
	if k := len(cs.freeCk); k > 0 {
		ck = cs.freeCk[k-1]
		cs.freeCk[k-1] = nil
		cs.freeCk = cs.freeCk[:k-1]
	} else {
		ck = &chunk{}
	}
	env := cs.n.cl.Env
	ck.cs = cs
	ck.from, ck.to = from, to
	ck.firstSeq = 0
	ck.raw = ck.raw[:0]
	ck.entries = nil
	ck.touched = ck.touched[:0]
	ck.payload = nil
	ck.compressed = false
	ck.memHeld = 0
	ck.sync = sync
	ck.started = false
	ck.sent = sim.NewEvent(env)
	ck.published = sim.NewEvent(env)
	ck.replicated = sim.NewEvent(env)
	ck.valid = false
	ck.retained = false
	ck.dropped = 0
	return ck
}

// putChunk returns a completed chunk to the freelist. Entries borrow raw,
// so they are dropped here — the buffers themselves keep their capacity.
func (cs *clientState) putChunk(ck *chunk) {
	if ck.retained || len(cs.freeCk) >= 64 {
		return
	}
	ck.entries = nil
	ck.payload = nil
	cs.freeCk = append(cs.freeCk, ck)
}

// growBuf returns a length-n buffer, reusing b's backing array when it is
// large enough.
//
//linefs:hotpath
func growBuf(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// formChunks turns the log range [queued, head) into chunks and submits
// them to the pipelines. Formation is atomic in simulation (no blocking
// between reading and advancing queued), so the fsync path and the async
// path never form overlapping chunks. Returns the last chunk formed.
func (cs *clientState) formChunks(p *sim.Proc, head uint64, sync bool) *chunk {
	var last *chunk
	for cs.queued < head {
		to := head
		// chunkReady notifications arrive at ~ChunkSize boundaries, so
		// [queued, head) is normally a single chunk; fsync may cover
		// several notifications' worth, which is fine — the range is
		// entry-aligned at both ends.
		ck := cs.getChunk(cs.queued, to, sync)
		cs.queued = to
		cs.pending = append(cs.pending, ck)
		cs.compKick.Trigger(nil)
		cs.compKick = sim.NewEvent(cs.n.cl.Env)
		last = ck
		if !sync {
			if cs.mainPl != nil {
				cs.mainPl.Submit(p, ck)
			} else {
				cs.seqQ.Put(p, ck)
			}
		}
	}
	return last
}

// stageFetch pulls the chunk's raw log bytes from host PM into SmartNIC
// memory across PCIe (one-sided read through the NIC switch), under the
// memory flow-control watermarks.
func (cs *clientState) stageFetch(p *sim.Proc, ck *chunk) bool {
	n := cs.n
	start := p.Now()
	size := int64(ck.to - ck.from)
	n.memReserve(p, size)
	ck.memHeld = size

	m := n.cl.Machines[n.machine]
	// One-sided read through the NIC switch: the NIC's read engine is the
	// bottleneck; PM reads and the NIC DRAM placement stream behind it.
	m.Fetch.Transfer(p, int(size), 0)
	ck.raw = growBuf(ck.raw, int(size))
	cs.log.ReadRawInto(fs.NoCostCtx(m.PM), ck.from, ck.raw)
	n.StageTimes["fetch"].add(time.Duration(p.Now() - start))
	return true
}

// stageValidate decodes the chunk, verifies CRCs and sequence continuity,
// checks lease ownership for every update, coalesces superseded entries,
// and records namespace history for the current epoch (§3.3.1, §3.4).
func (cs *clientState) stageValidate(p *sim.Proc, ck *chunk) bool {
	n := cs.n
	start := p.Now()
	spec := n.cl.Cfg.Spec
	// Scan cost across the wimpy cores.
	n.nicCompute(p, validateCost(len(ck.raw), spec.ValidatePerMiB))

	entries, err := fs.DecodeAll(ck.raw)
	if err != nil {
		// Corrupt chunk: reject; the client's log is not reclaimed and the
		// fault is surfaced on its next fsync.
		cs.failChunk(p, ck, err)
		return false
	}
	if len(entries) > 0 {
		ck.firstSeq = entries[0].Seq
		if err := fs.ValidateSeq(entries, entries[0].Seq); err != nil {
			cs.failChunk(p, ck, err)
			return false
		}
	}
	// Lease ownership: published log entries are accepted only when the
	// client held the right leases (§3.4). Enforcement here covers file
	// data (single-writer): a lapsed lease with no competing holder is
	// renewed in place rather than rejecting a write that was legal when
	// logged. Namespace operations were serialized by the client-side
	// parent-directory lease at log time; the directory lease may have
	// legitimately moved on by publication time (revocation), so they are
	// checked structurally during application instead.
	n.nicCompute(p, time.Duration(len(entries))*spec.LeaseCheckCost)
	for _, e := range entries {
		if e.Type != fs.OpWrite && e.Type != fs.OpTruncate {
			continue
		}
		if !n.leases.Holds(e.Ino, cs.id, lease.Write) {
			if ok, _ := n.leases.Acquire(e.Ino, cs.id, lease.Write); !ok {
				cs.failChunk(p, ck, fmt.Errorf("nicfs: validation: write lease on inode %d lost", e.Ino))
				return false
			}
		}
	}
	kept, dropped := entries, int64(0)
	if !n.cl.Cfg.DisableCoalesce {
		kept, dropped = fs.Coalesce(entries)
	}
	//lint:allow borrowcheck ck.entries borrows ck.raw, which the chunk keeps alive through publish
	ck.entries = kept
	ck.dropped = dropped
	n.CoalescedBytes += dropped
	ck.valid = true
	ck.touched = appendTouched(ck.touched[:0], kept)
	n.recordHistory(n.epoch, ck.touched)
	n.StageTimes["validate"].add(time.Duration(p.Now() - start))
	return true
}

// appendTouched appends one namespace-history record per entry to dst,
// reusing dst's capacity (the chunk's pooled touched slice).
//
//linefs:hotpath
func appendTouched(dst []touched, entries []*fs.Entry) []touched {
	for _, e := range entries {
		switch e.Type {
		case fs.OpCreate, fs.OpMkdir:
			typ := fs.TypeFile
			if e.Type == fs.OpMkdir {
				typ = fs.TypeDir
			}
			dst = append(dst, touched{Ino: e.Ino, PIno: e.PIno, Name: e.Name, Type: typ})
		case fs.OpUnlink, fs.OpRmdir:
			dst = append(dst, touched{Ino: e.Ino, PIno: e.PIno, Name: e.Name, Gone: true})
		case fs.OpRename:
			dst = append(dst, touched{Ino: e.Ino, PIno: e.PIno2, Name: e.Name2})
		case fs.OpWrite, fs.OpTruncate:
			dst = append(dst, touched{Ino: e.Ino})
		}
	}
	return dst
}

// stageSplit hands the validated chunk to both the publishing and the
// replication pipelines (they share the fetch and validation work, §3.3).
func (cs *clientState) stageSplit(p *sim.Proc, ck *chunk) bool {
	cs.pubPl.Submit(p, ck)
	cs.repPl.Submit(p, ck)
	return false // split consumes the item in the main pipeline
}

// stageCompress LZW-compresses the chunk payload if it pays off (§3.3.2).
// NICFS parallelizes this stage aggressively because a single wimpy core
// compresses at only ~200 MB/s. The codec runs on a host worker while the
// proc pays the NIC charge, and the output is read only after the join.
func (cs *clientState) stageCompress(p *sim.Proc, ck *chunk) bool {
	n := cs.n
	spec := n.cl.Cfg.Spec
	j := n.cl.getCodecJob()
	defer n.cl.putCodecJob(j)
	j.startCompress(ck.cbuf, ck.raw)
	n.nicCompute(p, time.Duration(float64(len(ck.raw))/spec.CompressBW*float64(time.Second)))
	j.Join()
	ck.cbuf = j.dst
	if len(ck.cbuf) < len(ck.raw) {
		ck.payload = ck.cbuf
		ck.compressed = true
	}
	return true
}

// compressChunk LZW-compresses raw into the chunk's pooled compression
// buffer: the output is retained through replication, so it cannot share a
// scratch across chunks — each chunk owns one, reused across its pool
// incarnations. Pure codec work; the caller charges the virtual-time cost.
//
//linefs:hotpath
func compressChunk(enc *compress.Encoder, dst, raw []byte) []byte {
	return enc.CompressInto(dst[:0], raw)
}

// codecJob is one LZW call offloaded to a host worker (sim.Start): a
// chunk compression or a compressed batch frame's decode. It owns dst, src
// and bc from start to Join. Each job keeps its own encoder and decoder,
// whose tables are allocated on first use, so codec state is bounded by
// the jobs in flight.
type codecJob struct {
	sim.Offload
	enc compress.Encoder
	dec compress.Decoder

	dst, src []byte
	bc       *batchChunk // non-nil: decode bc into dst; nil: compress src
	err      error
}

func (j *codecJob) startCompress(dst, raw []byte) {
	j.dst, j.src, j.bc = dst, raw, nil
	sim.Start(j)
}

func (j *codecJob) startDecode(dst []byte, bc *batchChunk) {
	j.dst, j.src, j.bc = dst, nil, bc
	sim.Start(j)
}

// Run is the worker side: pure codec work over the job's own buffers.
func (j *codecJob) Run() {
	if j.bc != nil {
		j.err = decodeBatchChunk(&j.dec, j.dst, j.bc)
		return
	}
	j.dst = compressChunk(&j.enc, j.dst, j.src)
}

// getCodecJob pops a pooled codec job (or makes one).
func (cl *Cluster) getCodecJob() *codecJob {
	if k := len(cl.codecJobs); k > 0 {
		j := cl.codecJobs[k-1]
		cl.codecJobs[k-1] = nil
		cl.codecJobs = cl.codecJobs[:k-1]
		return j
	}
	return &codecJob{}
}

// putCodecJob joins j, which may still be running when its proc was killed
// mid-charge, and returns it to the pool without its buffer references.
func (cl *Cluster) putCodecJob(j *codecJob) {
	j.Join()
	j.dst, j.src, j.bc, j.err = nil, nil, nil, nil
	cl.codecJobs = append(cl.codecJobs, j)
}

// stagePublish applies chunks to the public area in log order, buffering
// out-of-order arrivals (the fsync path can inject chunks directly).
func (cs *clientState) stagePublish(p *sim.Proc, ck *chunk) bool {
	cs.pubBuf[ck.from] = ck
	for {
		next, ok := cs.pubBuf[cs.pubNext]
		if !ok {
			return false
		}
		delete(cs.pubBuf, cs.pubNext)
		cs.publishChunk(p, next)
		cs.pubNext = next.to
	}
}

// publishChunk applies one chunk's entries: metadata updates run on the
// SmartNIC (indexes cached in NIC DRAM, writes across PCIe); data movement
// is delegated to the host kernel worker's DMA engine, or performed across
// PCIe directly in isolated mode (§3.3.1, §3.5).
func (cs *clientState) publishChunk(p *sim.Proc, ck *chunk) {
	n := cs.n
	start := p.Now()
	defer func() {
		n.StageTimes["publish"].add(time.Duration(p.Now() - start))
		ck.published.Trigger(nil)
	}()
	if !ck.valid {
		return
	}
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	var items []copyItem
	cp := func(dst int64, src []byte) {
		items = append(items, copyItem{Dst: dst, Data: src})
	}
	if err := n.vol.ApplyAll(ctx, ck.entries, cp); err != nil {
		// Publication cannot proceed (e.g. the public area is out of
		// space). Record the fault and unblock waiters; the client sees an
		// error on its next fsync.
		ck.valid = false
		if cs.fault == nil {
			cs.fault = err
		}
		cs.advanceRep(p, ck)
		return
	}
	var total int
	for _, it := range items {
		total += len(it.Data)
	}
	n.PubBytes += int64(total)
	if len(items) == 0 {
		return
	}
	if n.publishItems(p, items, nil) {
		// The timed-out kernel worker may still read these item buffers,
		// which alias ck.raw: leak the chunk instead of recycling it.
		ck.retained = true
	}
}

// stageTransfer hands the chunk to the sender, which restores log order and
// batches the chain transfer.
func (cs *clientState) stageTransfer(p *sim.Proc, ck *chunk) bool {
	cs.xferQ.Put(p, ck)
	return false
}

// runSender is the per-client chain transmit loop: it drains every chunk
// already queued (so a backlog coalesces), reorders by log offset, and
// pumps contiguous chunks onto the wire in batches.
func (cs *clientState) runSender(p *sim.Proc) {
	for {
		ck, ok := cs.xferQ.Get(p)
		if !ok {
			return
		}
		cs.xferBuf[ck.from] = ck
		for {
			more, ok := cs.xferQ.TryGet()
			if !ok {
				break
			}
			cs.xferBuf[more.from] = more
		}
		cs.pumpSends(p)
	}
}

// pumpSends walks the send cursor over contiguous queued chunks, coalescing
// them into batches (doorbell batching: one wire message per backlog burst,
// bounded by batchChunks and repBatchBytes). Sync chunks flush immediately;
// the trailing partial batch flushes when the backlog runs dry, so batching
// never adds latency — it only amortizes per-message overhead a backlog
// would pay anyway. Invalid chunks and replica-less configurations pass
// through without a wire message, keeping the cursor contiguous.
func (cs *clientState) pumpSends(p *sim.Proc) {
	maxChunks := cs.batchChunks()
	for {
		ck, ok := cs.xferBuf[cs.sendNext]
		if !ok {
			cs.flushBatch(p)
			return
		}
		delete(cs.xferBuf, cs.sendNext)
		cs.sendNext = ck.to
		if !ck.valid || len(cs.chain) == 1 {
			// Flush first so chain order is preserved, then complete the
			// chunk locally: it never goes on the wire.
			cs.flushBatch(p)
			ck.sent.Trigger(nil)
			cs.advanceRep(p, ck)
			continue
		}
		cs.batch = append(cs.batch, ck)
		cs.batchBytes += len(payloadOf(ck))
		if ck.sync || len(cs.batch) >= maxChunks || cs.batchBytes >= repBatchBytes {
			cs.flushBatch(p)
		}
	}
}

func payloadOf(ck *chunk) []byte {
	if ck.payload != nil {
		return ck.payload
	}
	return ck.raw
}

// flushBatch ships the open batch down the chain as one frame.
func (cs *clientState) flushBatch(p *sim.Proc) {
	if len(cs.batch) == 0 {
		return
	}
	n := cs.n
	start := p.Now()
	for _, ck := range cs.batch {
		n.RepBytes += int64(len(ck.raw))
		n.RepWireBytes += int64(len(payloadOf(ck)))
	}
	err := cs.sendRun(p, cs.batch)
	n.RepChunksSent += int64(len(cs.batch))
	for _, ck := range cs.batch {
		ck.sent.Trigger(nil)
		cs.repPending = append(cs.repPending, ck)
	}
	if err != nil {
		// Next hop unreachable: account the chunks as replicated so the
		// client is not blocked forever (degraded durability, as when a
		// chain is cut; the cluster manager repairs membership).
		for _, ck := range cs.batch {
			cs.advanceRep(p, ck)
		}
	}
	for i := range cs.batch {
		cs.batch[i] = nil
	}
	cs.batch = cs.batch[:0]
	cs.batchBytes = 0
	n.StageTimes["transfer"].add(time.Duration(p.Now() - start))
}

// ackChunk processes a replica's cumulative acknowledgment: advance that
// replica's watermark and complete every pending chunk covered by the
// minimum watermark across live replicas. An ack that names an unknown node
// or does not advance its watermark is stale (e.g. a late duplicate after a
// membership resweep) and is counted, not applied.
func (cs *clientState) ackChunk(p *sim.Proc, ack *replAck) {
	pos := -1
	for i := 1; i < len(cs.chainNames); i++ {
		if cs.chainNames[i] == ack.Node {
			pos = i
			break
		}
	}
	if pos < 0 || ack.To <= cs.ackWater[pos] {
		cs.n.StaleAcks++
		cs.n.cl.Robust.StaleAcks++
		return
	}
	cs.ackWater[pos] = ack.To
	cs.advanceAcked(p)
}

// aliveWater returns the minimum acknowledged watermark across replicas the
// cluster manager currently believes alive (a failed NICFS must not block
// durability acknowledgments — the manager has already reconfigured leases
// and membership around it); any=false means no replica is alive.
func (cs *clientState) aliveWater() (water uint64, any bool) {
	cl := cs.n.cl
	water = ^uint64(0)
	for i := 1; i < len(cs.chain); i++ {
		if !cl.Mgr.Alive(cs.chainNames[i]) {
			continue
		}
		any = true
		if cs.ackWater[i] < water {
			water = cs.ackWater[i]
		}
	}
	return water, any
}

// advanceAcked completes pending chunks from the front of the deque up to
// the minimum live-replica watermark: O(1) per completed chunk, no scan of
// the un-acked tail.
func (cs *clientState) advanceAcked(p *sim.Proc) {
	water, any := cs.aliveWater()
	for len(cs.repPending) > 0 {
		ck := cs.repPending[0]
		if !ck.replicated.Triggered() {
			if any && ck.to > water {
				return
			}
			cs.advanceRep(p, ck)
		}
		cs.repPending[0] = nil
		cs.repPending = cs.repPending[1:]
	}
}

// failChunk rejects a chunk: the fault is recorded for the client and the
// chunk is routed through the sender so the send cursor stays contiguous
// (it left the pipeline at validation and would otherwise wedge every later
// chunk behind the gap).
func (cs *clientState) failChunk(p *sim.Proc, ck *chunk, err error) {
	ck.valid = false
	if cs.fault == nil {
		cs.fault = err
	}
	ck.published.Trigger(nil)
	cs.xferQ.Put(p, ck)
}

// advanceRep marks a chunk fully replicated and wakes fsync waiters.
func (cs *clientState) advanceRep(p *sim.Proc, ck *chunk) {
	ck.replicated.Trigger(nil)
	if ck.to > cs.repOff {
		cs.repOff = ck.to
	}
	kept := cs.repWait[:0]
	for _, w := range cs.repWait {
		if cs.repOff >= w.off {
			w.ev.Trigger(nil)
		} else {
			kept = append(kept, w)
		}
	}
	cs.repWait = kept
}

// waitReplicated blocks until everything before off is on all replicas.
func (cs *clientState) waitReplicated(p *sim.Proc, off uint64) {
	if cs.repOff >= off {
		return
	}
	ev := sim.NewEvent(cs.n.cl.Env)
	cs.repWait = append(cs.repWait, repWaiter{off: off, ev: ev})
	p.Wait(ev)
}

// runCompletion reclaims client log space once chunks are both published
// and replicated, in order, and recycles chunk buffers to the freelist
// (waiting for sent too: a chunk must have left the sender before reuse).
func (cs *clientState) runCompletion(p *sim.Proc) {
	for {
		for len(cs.pending) == 0 {
			p.Wait(cs.compKick)
		}
		ck := cs.pending[0]
		p.Wait(ck.published)
		p.Wait(ck.replicated)
		p.Wait(ck.sent)
		cs.pending[0] = nil
		cs.pending = cs.pending[1:]
		if ck.memHeld > 0 {
			cs.n.memRelease(ck.memHeld)
			ck.memHeld = 0
		}
		if ck.valid && ck.to > cs.ackSent {
			cs.ackSent = ck.to
			// The SmartNIC-to-host acknowledgment is Figure 2's ACK stage.
			ackStart := p.Now()
			cs.notifyClient(p, "reclaim", &reclaimMsg{Slot: cs.slot, UpTo: ck.to}, 24)
			cs.n.StageTimes["ack"].add(time.Duration(p.Now() - ackStart))
		}
		cs.putChunk(ck)
	}
}

// runSequential is the LineFS-NotParallel datapath: one SmartNIC thread
// executes fetch, validation, publication and replication for each chunk
// back to back, with no overlap.
func (cs *clientState) runSequential(p *sim.Proc) {
	for {
		ck, ok := cs.seqQ.Get(p)
		if !ok {
			return
		}
		if cs.runStages(p, ck) {
			cs.waitReplicated(p, ck.to)
		}
	}
}

// runStages executes one chunk's stages inline on the calling proc: fetch,
// validate, optional compress, publish, then hand-off to the sender. It
// reports whether the chunk validated (a rejected chunk is routed to the
// sender by failChunk instead).
func (cs *clientState) runStages(p *sim.Proc, ck *chunk) bool {
	cs.stageFetch(p, ck)
	if !cs.stageValidate(p, ck) {
		return false
	}
	if cs.n.cl.Cfg.Compress {
		cs.stageCompress(p, ck)
	}
	cs.stagePublish(p, ck)
	cs.stageTransfer(p, ck)
	return true
}

// handleFsync implements fsync(): replicate everything through Head
// synchronously on the low-latency class, wait for lease persistence, and
// acknowledge (§3.3.2, §3.4).
func (n *NICFS) handleFsync(p *sim.Proc, msg *rdma.Msg, req *fsyncReq) {
	cs := n.clients[req.Slot]
	if cs == nil {
		msg.RespondErr(p, fmt.Errorf("nicfs: fsync for unknown slot %d", req.Slot))
		return
	}
	if req.Head > cs.queued {
		cs.formChunks(p, req.Head, true)
		// The sync path runs fetch and validation inline and hands the
		// chunk to the sender marked sync, which flushes immediately on the
		// low-latency connection, bypassing pipeline queues.
		for _, ck := range cs.pending {
			if !ck.sync || ck.started {
				continue
			}
			ck.started = true
			cs.runStages(p, ck)
		}
	}
	cs.waitReplicated(p, req.Head)
	if cs.fault != nil {
		msg.RespondErr(p, cs.fault)
		return
	}
	// Leases granted before this fsync must be durable and replicated.
	if n.leasePending > 0 {
		p.Wait(n.leaseDrained)
	}
	msg.Respond(p, true, 8)
}

// validateCost scales the per-MiB validation cost to a byte count.
func validateCost(n int, perMiB time.Duration) time.Duration {
	return time.Duration(int64(n) * int64(perMiB) / (1 << 20))
}
