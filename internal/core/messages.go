package core

import (
	"math/rand"

	"linefs/internal/fs"
	"linefs/internal/lease"
)

// Wire message payloads between LibFS, NICFS instances, and kernel workers.
// Payload []byte fields carry real data; the Size passed to the RDMA layer
// charges their wire cost.

type attachReq struct {
	Client string
	Slot   int
}

type attachResp struct {
	InoBase  fs.Ino
	InoCount int
	LogBase  int64
	LogSize  int64
}

type openReq struct {
	Client string
	Path   string
}

type openResp struct {
	Ino  fs.Ino
	Size uint64
	Type fs.FileType
}

type leaseReq struct {
	Client string
	Ino    fs.Ino
	Mode   lease.Mode
}

type leaseResp struct {
	OK        bool
	Conflicts []string
}

// chunkReady tells NICFS the client log has grown to Head (async).
type chunkReady struct {
	Slot int
	Head uint64
	// Marks are entry-aligned intermediate chunk boundaries (< Head): one
	// coalesced doorbell submits Marks plus the final [last mark, Head)
	// range as separate chunks under a single dispatch.
	Marks []uint64
}

// fsyncReq asks NICFS to make everything up to Head durable on all
// replicas (synchronous).
type fsyncReq struct {
	Slot int
	Head uint64
}

// touched records a namespace-visible update for the epoch history bitmap.
type touched struct {
	Ino  fs.Ino
	PIno fs.Ino
	Name string
	Type fs.FileType
	Gone bool // unlinked
}

// corruptPayload is the fault plane's in-flight bit-flip on one frame's
// payload. The payload is pooled on the primary and shared with down-chain
// forwards, so the flip lands on a deep copy — framing fields stay intact,
// which models a payload bit error the CRC gate must catch (a mangled
// header is caught by the framing checks instead).
func corruptPayload(payload []byte, rng *rand.Rand) []byte {
	bad := make([]byte, len(payload))
	copy(bad, payload)
	if len(bad) > 0 {
		bad[rng.Intn(len(bad))] ^= 0xA5
	}
	return bad
}

// batchChunk is one chunk's framing inside a replChunkBatch.
type batchChunk struct {
	From, To   uint64
	FirstSeq   uint64
	Payload    []byte
	Compressed bool
	RawLen     int
	Touched    []touched
	Sync       bool
}

// replChunkBatch is the replication chain's only data frame (§3.3.2,
// Figure 3): it carries a run of one or more contiguous chunks of one slot
// per replica hop. A backlog coalesces into one frame (doorbell batching:
// one message header, one switch traversal, and one RPC dispatch amortize
// over every chunk), an idle chain or an fsync sends runs of one, and the
// receiver persists and acknowledges the whole run at once. Chunks are
// ordered and contiguous: Chunks[0].From == From, each frame starts where
// the previous ended, and the last ends at To.
type replChunkBatch struct {
	Slot     int
	Epoch    uint64
	From, To uint64
	// Sync is set when any member chunk is fsync-path (the batch then rides
	// the low-latency class).
	Sync   bool
	Chunks []batchChunk
}

// CorruptCopy implements rdma.Corrupter: one member frame's payload is
// deep-copied and bit-flipped; the other frames are shared untouched.
func (rb *replChunkBatch) CorruptCopy(rng *rand.Rand) any {
	out := *rb
	if len(rb.Chunks) == 0 {
		return &out
	}
	out.Chunks = make([]batchChunk, len(rb.Chunks))
	copy(out.Chunks, rb.Chunks)
	i := rng.Intn(len(out.Chunks))
	out.Chunks[i].Payload = corruptPayload(out.Chunks[i].Payload, rng)
	return &out
}

// replDirect notifies the last replica that chunk bytes were already
// RDMA-written into its host PM log slot (the §3.3.2 step-6 optimization).
type replDirect struct {
	Slot     int
	From, To uint64
	FirstSeq uint64
	RawLen   int
	Touched  []touched
	Epoch    uint64
}

// replAck reports that node Node has persisted every chunk through To: a
// cumulative watermark, not a per-chunk receipt. One ack per batch advances
// the primary's per-replica watermark; anything at or below it is already
// covered, so a regressing or duplicate ack is stale by definition.
type replAck struct {
	Slot int
	To   uint64
	Node string
}

// reclaimMsg tells LibFS its log can be truncated up to UpTo.
type reclaimMsg struct {
	Slot int
	UpTo uint64
}

// revokeMsg asks LibFS to drop a cached lease.
type revokeMsg struct {
	Ino fs.Ino
}

// copyItem is one publication copy: place Data at PM offset Dst.
type copyItem struct {
	Dst  int64
	Data []byte
}

// copyReq is a kernel-worker publication batch.
type copyReq struct {
	Items []copyItem
}

// leaseRecord replicates a lease grant/release for crash consistency.
type leaseRecord struct {
	Rec      lease.Record
	Released bool
}

// historyReq asks a peer for namespace history since an epoch (recovery).
type historyReq struct {
	Since uint64
}

type historyResp struct {
	Epoch   uint64
	Touched []touched
}

// fetchFileReq pulls a published file's content from a peer (recovery).
type fetchFileReq struct {
	Ino fs.Ino
}

type fetchFileResp struct {
	Exists bool
	Type   fs.FileType
	Size   uint64
	Data   []byte
}
