package core

import (
	"errors"
	"fmt"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// mirrorState is the replica-side NICFS state for one remote client's log:
// a local PM log mirror that the chain keeps byte-identical with the
// primary's, plus local publication so the replica's public area stays
// current and the mirror can be reclaimed (§3.3.2, Figure 3).
type mirrorState struct {
	n    *NICFS
	slot int
	log  *fs.LogArea

	// chainPos is this node's index in the slot's chain (1 = first
	// replica).
	chainPos int
	chain    []int

	q    *sim.Queue[*rdma.Msg]
	proc *sim.Proc

	// pubQ decouples local publication from the chain critical path.
	pubQ    *sim.Queue[pubJob]
	pubProc *sim.Proc
	pubNext uint64

	// fresh marks a mirror created mid-stream (NICFS recovery): it adopts
	// the first arriving chunk's offset instead of expecting offset zero.
	fresh bool

	// jobs holds the decode jobs of the batch handleBatch is processing.
	jobs []*codecJob

	// bufs is the mirror's raw-buffer freelist: incoming payloads are
	// always copied (or decompressed) into a mirror-owned buffer, never
	// aliased — the primary recycles its chunk buffers as soon as the chain
	// acks, which can be before this replica's background publication runs.
	bufs [][]byte
}

type pubJob struct {
	raw      []byte
	from, to uint64
	// hold owns raw's return to the mirror pool.
	hold *bufHold
}

// bufHold is the reference count on one pooled mirror buffer. Persist and
// publication both hand the buffer to the kernel worker; when either copy
// times out, the worker may still be reading it, so the buffer can return
// to the pool only when every outstanding reference — including a late
// kernel-worker response discarded by the abandoned-call path — has been
// released. A worker that never responds (host crash) keeps its reference
// forever and the buffer leaks, which is the only safe disposition.
type bufHold struct {
	ms   *mirrorState
	buf  []byte
	refs int
}

func (ms *mirrorState) newHold(buf []byte) *bufHold {
	return &bufHold{ms: ms, buf: buf, refs: 1}
}

func (h *bufHold) acquire() { h.refs++ }

func (h *bufHold) release() {
	h.refs--
	if h.refs == 0 {
		h.ms.putBuf(h.buf)
	}
}

// discardHook adapts release to the rdma abandonment callback.
func (h *bufHold) discardHook(p *sim.Proc) { h.release() }

// getBuf pops a pooled length-n buffer (or makes one).
func (ms *mirrorState) getBuf(n int) []byte {
	if k := len(ms.bufs); k > 0 {
		b := ms.bufs[k-1]
		ms.bufs[k-1] = nil
		ms.bufs = ms.bufs[:k-1]
		return growBuf(b, n)
	}
	return make([]byte, n)
}

func (ms *mirrorState) putBuf(b []byte) {
	if cap(b) == 0 || len(ms.bufs) >= 16 {
		return
	}
	ms.bufs = append(ms.bufs, b[:0])
}

// routeMirror dispatches replication traffic to the slot's mirror process,
// creating it on first contact.
func (n *NICFS) routeMirror(p *sim.Proc, msg *rdma.Msg) {
	var slot int
	switch arg := msg.Arg.(type) {
	case *replChunkBatch:
		slot = arg.Slot
	case *replDirect:
		slot = arg.Slot
	default:
		return
	}
	ms := n.mirrors[slot]
	if ms == nil {
		ms = n.newMirror(slot)
	}
	ms.q.Put(p, msg)
}

func (n *NICFS) newMirror(slot int) *mirrorState {
	cl := n.cl
	// The chain is defined by the slot's primary; find our position. The
	// primary machine for a slot is recorded by the client that attached;
	// replicas derive it from chain geometry: the primary is the machine
	// whose chain contains us. Chains are (primary, primary+1, …) mod N,
	// so walk candidates.
	var chain []int
	pos := 0
	for cand := 0; cand < cl.Cfg.Nodes; cand++ {
		ch := cl.chain(cand)
		for i, mi := range ch {
			if mi == n.machine && i > 0 && cl.clients[slot] != nil && cl.clients[slot].machine == cand {
				chain = ch
				pos = i
			}
		}
	}
	if chain == nil {
		// Fall back: assume the immediate predecessor is the primary.
		chain = cl.chain((n.machine - 1 + cl.Cfg.Nodes) % cl.Cfg.Nodes)
		pos = 1
	}
	ms := &mirrorState{
		n:        n,
		slot:     slot,
		log:      fs.NewLogArea(cl.Machines[n.machine].PM, cl.logBase(slot), cl.Cfg.LogSize),
		chainPos: pos,
		chain:    chain,
		q:        sim.NewQueue[*rdma.Msg](cl.Env, 0),
		pubQ:     sim.NewQueue[pubJob](cl.Env, 0),
		fresh:    true,
	}
	ms.proc = cl.Env.Go(n.Name()+"/mirror", ms.run)
	ms.pubProc = cl.Env.Go(n.Name()+"/mirror-pub", ms.runPublisher)
	n.mirrors[slot] = ms
	return ms
}

func (ms *mirrorState) kill() {
	ms.q.Close()
	ms.pubQ.Close()
	if ms.proc != nil {
		ms.proc.Kill()
	}
	if ms.pubProc != nil {
		ms.pubProc.Kill()
	}
}

// runPublisher applies replicated chunks to the replica's public area in
// the background (Figure 3 keeps publication off the chain critical path)
// and recycles their buffers.
func (ms *mirrorState) runPublisher(p *sim.Proc) {
	for {
		job, ok := ms.pubQ.Get(p)
		if !ok {
			return
		}
		ms.publishLocal(p, job.raw, job.from, job.to, job.hold)
		// Drop the pipeline's own reference; the buffer pools once every
		// outstanding kernel-worker handoff has resolved too.
		job.hold.release()
	}
}

// run processes the mirror's replication traffic in log order. The primary
// serializes transfers per client, but sync-path chunks ride the
// low-latency connection class and can overtake bulk-class chunks between
// the two service queues — so arrivals are reordered by log offset before
// processing.
func (ms *mirrorState) run(p *sim.Proc) {
	pending := make(map[uint64]*rdma.Msg)
	for {
		msg, ok := ms.q.Get(p)
		if !ok {
			return
		}
		var from, to uint64
		switch arg := msg.Arg.(type) {
		case *replChunkBatch:
			from, to = arg.From, arg.To
		case *replDirect:
			from, to = arg.From, arg.To
		default:
			continue
		}
		if ms.fresh {
			// A recovered replica's mirror starts at the stream's current
			// position: earlier log content was invalidated and the state
			// it carried was recovered from a peer (§3.6).
			if from > ms.log.Head() {
				ctx := ms.n.cl.nicCtx(p, ms.n.machine, "nicfs")
				ms.log.ResetTo(ctx, from)
				ms.pubNext = from
			}
			ms.fresh = false
		}
		if from < ms.log.Head() {
			// Duplicate delivery: a retransmitted (or fault-plane-duplicated)
			// frame whose range we already persisted — chunk boundaries are
			// stable, so an overlapping From means the covered prefix is
			// already durable here. Re-ack the cumulative watermark (the
			// original ack may be the thing that got lost) and drop the
			// duplicate; a batch whose tail extends past our head is trimmed
			// to its fresh frames instead.
			msg = ms.dedup(p, msg, to)
			if msg == nil {
				continue
			}
			from = ms.log.Head()
		}
		pending[from] = msg
		for {
			next, ok := pending[ms.log.Head()]
			if !ok {
				break
			}
			delete(pending, ms.log.Head())
			switch arg := next.Arg.(type) {
			case *replChunkBatch:
				ms.handleBatch(p, arg)
			case *replDirect:
				ms.handleDirect(p, arg)
			}
		}
	}
}

// dedup handles a replication frame whose From lies below the mirror head:
// it re-acks the cumulative watermark, counts the duplicate, and returns
// either nil (fully covered — drop) or a trimmed copy of a batch whose tail
// carries fresh frames starting exactly at the head.
func (ms *mirrorState) dedup(p *sim.Proc, msg *rdma.Msg, to uint64) *rdma.Msg {
	n := ms.n
	head := ms.log.Head()
	n.cl.Robust.DupDelivered++
	primary := ms.chain[0]
	_ = n.peer(primary, true).Send(p, "repl-ack",
		&replAck{Slot: ms.slot, To: head, Node: n.Name()}, 24)
	// Re-forward the duplicate down-chain: this hop has the range, but the
	// retransmit that produced the duplicate may exist because a down-chain
	// hop never got it (our original forward was the lost frame). Each hop
	// dedups independently, so the repair propagates exactly as far as
	// needed. replDirect only ever targets the last hop, so only data
	// frames re-forward.
	rb, ok := msg.Arg.(*replChunkBatch)
	if ok && ms.chainPos != len(ms.chain)-1 {
		next := ms.chain[ms.chainPos+1]
		n.cl.Env.Go(n.Name()+"/fwd", func(fp *sim.Proc) {
			n.RepMsgs++
			_ = n.peer(next, rb.Sync).Send(fp, "repl-chunk-batch", rb, batchWireLen(rb))
		})
	}
	if to <= head || !ok {
		// A direct note straddling the head would mean the primary
		// re-chunked acknowledged bytes — chunk boundaries are stable, so
		// this cannot happen; drop rather than corrupt.
		return nil
	}
	trimmed := *rb
	trimmed.Chunks = nil
	for i := range rb.Chunks {
		if rb.Chunks[i].To <= head {
			continue
		}
		trimmed.Chunks = append(trimmed.Chunks, rb.Chunks[i])
	}
	if len(trimmed.Chunks) == 0 || trimmed.Chunks[0].From != head {
		return nil
	}
	trimmed.From = head
	msg.Arg = &trimmed
	return msg
}

// errBatchFrame rejects a replication frame whose decoded length does not
// match its declared raw length.
var errBatchFrame = errors.New("core: replication frame length mismatch")

// decodeBatchChunk places one batch frame's raw bytes into dst, which the
// caller sizes (and capacity-pins) to the declared raw length: a corrupt
// compressed frame cannot scribble outside its slot of the batch buffer.
//
//linefs:hotpath
func decodeBatchChunk(dec *compress.Decoder, dst []byte, bc *batchChunk) error {
	if bc.Compressed {
		// dst's capacity is pinned to RawLen, so a decode that tries to grow
		// past it reallocs away from the batch buffer — and can only do so by
		// exceeding RawLen, which the length check below rejects. A correct
		// decode lands fully inside dst; the grow (if any) is a failure path.
		//lint:allow scratchflow over-long decode reallocs only on the rejected path
		out, err := dec.DecompressInto(dst[:0], bc.Payload)
		if err != nil {
			return err
		}
		if len(out) != bc.RawLen {
			return errBatchFrame
		}
		return nil
	}
	if len(bc.Payload) != bc.RawLen {
		return errBatchFrame
	}
	copy(dst, bc.Payload)
	return nil
}

// handleBatch is steps 4–7 of Figure 3 for one replChunkBatch: decode
// every frame into one contiguous mirror buffer, forward down the chain (in
// parallel with the local copy), persist the range into the local PM log
// mirror, send one cumulative ack for To, and publish locally in the
// background. Every compressed frame's decode starts on a host worker up
// front; each is joined after its decompression charge, before its bytes
// are verified.
func (ms *mirrorState) handleBatch(p *sim.Proc, rb *replChunkBatch) {
	n := ms.n
	cl := n.cl
	if len(rb.Chunks) == 0 || uint64(batchRawLen(rb)) != rb.To-rb.From {
		return
	}
	raw := ms.getBuf(int(rb.To - rb.From))
	defer ms.releaseJobs()
	reject := func() {
		ms.releaseJobs()
		ms.putBuf(raw)
	}
	// Check the framing, and start every compressed frame's decode so the
	// decodes overlap the charges below.
	off := 0
	at := rb.From
	for i := range rb.Chunks {
		bc := &rb.Chunks[i]
		if bc.From != at || uint64(bc.RawLen) != bc.To-bc.From {
			reject()
			return // malformed framing: never acknowledged
		}
		if bc.Compressed {
			j := cl.getCodecJob()
			j.startDecode(raw[off:off+bc.RawLen:off+bc.RawLen], bc)
			ms.jobs = append(ms.jobs, j)
		}
		off += bc.RawLen
		at = bc.To
	}
	off = 0
	allRaw := true
	next := 0 // ms.jobs index of the next compressed frame
	for i := range rb.Chunks {
		bc := &rb.Chunks[i]
		frame := raw[off : off+bc.RawLen : off+bc.RawLen]
		off += bc.RawLen
		if bc.Compressed {
			// Decompression on the wimpy cores (reads are cheaper than the
			// compression side; charge at 2x the compression bandwidth). A
			// NIC cannot tell a corrupt frame until it has decompressed it.
			allRaw = false
			n.nicCompute(p, time.Duration(float64(bc.RawLen)/(2*cl.Cfg.Spec.CompressBW)*float64(time.Second)))
			j := ms.jobs[next]
			next++
			j.Join()
			if j.err != nil {
				reject()
				return // corrupt transfer: never acknowledged
			}
		} else if err := decodeBatchChunk(nil, frame, bc); err != nil {
			reject()
			return // corrupt transfer: never acknowledged
		}
		// Per-frame integrity gate: a frame corrupted in flight must be
		// rejected before it is forwarded, persisted, or acknowledged — the
		// primary's retransmit layer resends it; an ack here would mark
		// garbage durable.
		if err := fs.VerifyWire(frame); err != nil {
			n.cl.Robust.CRCRejected++
			reject()
			return
		}
	}
	ms.releaseJobs()

	for i := range rb.Chunks {
		n.recordHistory(rb.Epoch, rb.Chunks[i].Touched)
	}

	// Forward the whole batch down-chain asynchronously as one message (or
	// one-sided writes plus one note on the last hop): the next hop's work
	// overlaps both our local persist and later batches' forwards (steps 4
	// and 5 of Figure 3 pipeline across chunks). Ordering needs no
	// serialization — one-sided writes are offset-addressed and every
	// mirror reorders arrivals by log offset. The forward carries the
	// original primary-owned payloads (alive until the whole chain acks,
	// unlike our pooled copy); compressed frames stay compressed on every
	// hop, which forgoes the last-hop direct write: raw bytes cannot be
	// placed one-sided without a decompression stop at the last NICFS.
	if ms.chainPos != len(ms.chain)-1 {
		next := ms.chain[ms.chainPos+1]
		nextIsLast := ms.chainPos+1 == len(ms.chain)-1 && !cl.Cfg.DisableDirectWrite && allRaw
		cl.Env.Go(n.Name()+"/fwd", func(fp *sim.Proc) {
			if nextIsLast {
				ms.forwardBatchDirect(fp, next, rb)
			} else {
				n.RepMsgs++
				_ = n.peer(next, rb.Sync).Send(fp, "repl-chunk-batch", rb, batchWireLen(rb))
			}
		})
	}

	// The hold's initial reference belongs to the publication pipeline and
	// is released by the publisher once its own kernel-worker handoff
	// resolves.
	hold := ms.newHold(raw)
	ms.persistRaw(p, rb.From, raw, hold)

	// One cumulative acknowledgment covers every chunk in the batch. Acks
	// are latency-critical and ride the low-latency class (§3.3.2).
	primary := ms.chain[0]
	_ = n.peer(primary, true).Send(p, "repl-ack",
		&replAck{Slot: rb.Slot, To: rb.To, Node: n.Name()}, 24)

	ms.pubQ.Put(p, pubJob{raw: raw, from: rb.From, to: rb.To, hold: hold})
}

// releaseJobs joins the batch's decode jobs, including those of frames a
// rejection skipped or a kill interrupted, and returns them to the pool.
func (ms *mirrorState) releaseJobs() {
	for i, j := range ms.jobs {
		ms.n.cl.putCodecJob(j)
		ms.jobs[i] = nil
	}
	ms.jobs = ms.jobs[:0]
}

func batchRawLen(rb *replChunkBatch) int {
	total := 0
	for i := range rb.Chunks {
		total += rb.Chunks[i].RawLen
	}
	return total
}

func batchWireLen(rb *replChunkBatch) int {
	total := 0
	for i := range rb.Chunks {
		total += len(rb.Chunks[i].Payload)
	}
	return total
}

// forwardBatchDirect implements the §3.3.2 step-6 optimization: the
// penultimate replica writes every chunk's payload straight into the last
// replica's host PM log with one-sided RDMA WRITEs, then sends one small
// notification covering the batch range — saving a SmartNIC memory copy on
// the last hop.
func (ms *mirrorState) forwardBatchDirect(p *sim.Proc, next int, rb *replChunkBatch) {
	n := ms.n
	cl := n.cl
	lastLog := fs.NewLogView(cl.logBase(rb.Slot), cl.Cfg.LogSize)
	conn := n.peer(next, rb.Sync)
	for i := range rb.Chunks {
		bc := &rb.Chunks[i]
		off := 0
		for _, seg := range lastLog.SegmentsAt(bc.From, len(bc.Payload)) {
			if err := conn.RDMAWrite(p, "pm", seg.PhysOff, bc.Payload[off:off+seg.Len]); err != nil {
				// Fall back to the message path; the last replica persists
				// the full batch from scratch (its head never advanced).
				n.RepMsgs++
				_ = conn.Send(p, "repl-chunk-batch", rb, batchWireLen(rb))
				return
			}
			off += seg.Len
		}
	}
	var touchedAll []touched
	for i := range rb.Chunks {
		touchedAll = append(touchedAll, rb.Chunks[i].Touched...)
	}
	note := &replDirect{
		Slot: rb.Slot, From: rb.From, To: rb.To, FirstSeq: rb.Chunks[0].FirstSeq,
		RawLen: int(rb.To - rb.From), Touched: touchedAll, Epoch: rb.Epoch,
	}
	// The notification follows the one-sided data on the low-latency
	// class: it must not queue behind other bulk transfers.
	n.RepMsgs++
	_ = n.peer(next, true).Send(p, "repl-direct", note, 64)
}

// handleDirect is the last replica's handling of a direct-written chunk or
// batch: the bytes are already in its PM log; advance the mirror head, send
// the cumulative ack, and publish.
func (ms *mirrorState) handleDirect(p *sim.Proc, rd *replDirect) {
	n := ms.n
	cl := n.cl
	m := cl.Machines[n.machine]
	size := int(rd.To - rd.From)

	// Integrity gate before the head advances: the one-sided write already
	// landed in our PM log slot, but a payload corrupted in flight must not
	// be acknowledged or made visible. The pre-read is cost-free (the costed
	// PCIe fetch below still pays for the bytes publication actually uses).
	raw := ms.getBuf(size)
	ms.log.ReadRawInto(fs.NoCostCtx(m.PM), rd.From, raw)
	if err := fs.VerifyWire(raw); err != nil {
		n.cl.Robust.CRCRejected++
		ms.putBuf(raw)
		return // never advanced, never acknowledged
	}

	n.recordHistory(rd.Epoch, rd.Touched)
	ctx := cl.nicCtx(p, n.machine, "nicfs")
	if err := ms.log.AdvanceHead(ctx, rd.From, size); err != nil {
		ms.putBuf(raw)
		return
	}
	primary := ms.chain[0]
	_ = n.peer(primary, true).Send(p, "repl-ack",
		&replAck{Slot: rd.Slot, To: rd.To, Node: n.Name()}, 24)

	// Publication needs the entries: fetch them from our own host PM log
	// across PCIe into a pooled buffer.
	fctx := &fs.Ctx{P: p, PM: m.PM, ExtraRead: []*hw.Link{m.Fetch}}
	ms.log.ReadRawInto(fctx, rd.From, raw)
	ms.pubQ.Put(p, pubJob{raw: raw, from: rd.From, to: rd.To, hold: ms.newHold(raw)})
}

// persistRaw copies chunk bytes from SmartNIC memory into the local host
// PM log mirror: via the kernel worker's DMA engine normally, or across
// PCIe directly in isolated mode (the Figure 10 failure path). The hold
// keeps raw out of the pool while a timed-out kernel worker may still be
// reading it.
func (ms *mirrorState) persistRaw(p *sim.Proc, at uint64, raw []byte, hold *bufHold) {
	n := ms.n
	segs := ms.log.Segments(at, len(raw))
	var items []copyItem
	off := 0
	for _, seg := range segs {
		items = append(items, copyItem{Dst: seg.PhysOff, Data: raw[off : off+seg.Len]})
		off += seg.Len
	}
	hold.acquire()
	if !n.publishItems(p, items, hold.discardHook) {
		// The worker answered (or the PCIe path ran): its reference is done.
		// On timeout the reference stays with the in-flight copy and the
		// discard hook releases it if the worker ever responds late.
		hold.release()
	}
	// Advance and persist the mirror header (small PCIe write). A gap here
	// means chunk arrival order diverged from log order — a chain-protocol
	// bug that must not be papered over by silently skipping the advance.
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	if err := ms.log.AdvanceHead(ctx, at, len(raw)); err != nil {
		panic(fmt.Sprintf("core: mirror advance: %v", err))
	}
}

// publishLocal applies a replicated chunk (or batch) to this replica's
// public area and reclaims the mirror ring. The hold covers the kernel
// worker's possible retention of raw, exactly as in persistRaw.
func (ms *mirrorState) publishLocal(p *sim.Proc, raw []byte, from, to uint64, hold *bufHold) {
	n := ms.n
	if from != ms.pubNext && ms.pubNext != 0 {
		// Gap (shouldn't happen: arrival order is log order); skip rather
		// than corrupt.
		return
	}
	entries, err := fs.DecodeAll(raw)
	if err != nil {
		return
	}
	n.nicCompute(p, validateCost(len(raw), n.cl.Cfg.Spec.ValidatePerMiB))
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	var items []copyItem
	cp := func(dst int64, src []byte) { items = append(items, copyItem{Dst: dst, Data: src}) }
	if err := n.vol.ApplyAll(ctx, entries, cp); err == nil {
		hold.acquire()
		if !n.publishItems(p, items, hold.discardHook) {
			hold.release()
		}
		n.PubBytes += int64(len(raw))
	}
	ms.pubNext = to
	ms.log.Reclaim(ctx, to)
}
