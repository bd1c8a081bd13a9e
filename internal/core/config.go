// Package core implements LineFS: a SmartNIC-offloaded distributed file
// system with client-local persistent memory (SOSP '21). Each node runs
//
//   - LibFS instances linked into client processes on the host: they
//     intercept file system calls, persist data and metadata to a private
//     PM operational log, and serve reads from the log plus the public PM
//     area (§3.2);
//   - NICFS on the SmartNIC: it publishes client logs to public PM and
//     chain-replicates them to remote nodes through parallel datapath
//     execution pipelines, arbitrates leases, performs optional coalescing
//     and compression, monitors the host kernel worker, and keeps the node
//     available in isolated mode when the host OS fails (§3.3–3.5);
//   - a kernel worker in the host kernel that publishes chunks with the
//     I/OAT DMA engine on NICFS's behalf (§4).
//
// The package follows the persist-and-publish model: LibFS makes updates
// durable with fast host cores; NICFS moves them to public and remote PM in
// the background with SmartNIC cores, keeping client log order end to end.
package core

import (
	"time"

	"linefs/internal/node"
)

// PubMode selects how the kernel worker publishes chunk data (Figure 7).
type PubMode uint8

// Publication methods.
const (
	// PubDMAIntrBatch batches copy requests and blocks on a DMA completion
	// interrupt — the default used by all other benchmarks.
	PubDMAIntrBatch PubMode = iota
	// PubDMAPollingBatch batches copy requests and busy-polls a host core
	// until the DMA completes.
	PubDMAPollingBatch
	// PubDMAPolling issues one DMA per copy and busy-polls (SPDK-style).
	PubDMAPolling
	// PubCPUMemcpy copies with host cores.
	PubCPUMemcpy
	// PubNoCopy skips data publication entirely (analysis only: published
	// file contents are not materialized).
	PubNoCopy
)

func (m PubMode) String() string {
	switch m {
	case PubDMAIntrBatch:
		return "DMA interrupt + batch"
	case PubDMAPollingBatch:
		return "DMA polling + batch"
	case PubDMAPolling:
		return "DMA polling"
	case PubCPUMemcpy:
		return "CPU memcpy"
	case PubNoCopy:
		return "No copy"
	}
	return "unknown"
}

// Config parameterizes a LineFS cluster.
type Config struct {
	Spec  node.Spec
	Nodes int
	// Replicas is the chain length beyond the primary (default 2: three
	// copies, as in the paper's 3-node testbed).
	Replicas int

	// MaxClients bounds concurrently attached LibFS instances per node;
	// it sizes the per-client PM log slots.
	MaxClients int
	// VolSize is the public PM area per node; LogSize the per-client log
	// (the paper configures 512 MB logs; experiments here default smaller
	// to keep simulations light — throughput is steady-state either way).
	VolSize int64
	LogSize int64
	// ChunkSize is the pipeline unit (4 MB in the paper).
	ChunkSize int

	// Parallel enables pipeline parallelism; false gives the
	// LineFS-NotParallel configuration that processes each chunk's stages
	// sequentially in one thread.
	Parallel bool

	// Compress enables the replication compression stage.
	Compress bool

	// RepBatchChunks caps how many queued chunks coalesce into one
	// replChunkBatch frame per replica hop (values <= 1 send one frame per
	// chunk, the -repbench baseline); a frame's payload is also capped at
	// 1 MiB. Fsync-path chunks always flush the open batch immediately.
	RepBatchChunks int

	// NotifyChunks is the submission-side doorbell coalescing degree: the
	// LibFS client accumulates this many entry-aligned chunk boundaries
	// before ringing one chunk-ready doorbell carrying all of them, so a
	// single NICFS dispatch forms that many chunks. Values <= 1 ring per
	// chunk boundary (the seed behavior). Deferral is bounded: fsync
	// flushes pending boundaries onto the doorbell first.
	NotifyChunks int

	// DisableCoalesce turns off the semantic-compression stage (ablation).
	DisableCoalesce bool
	// DisableDirectWrite turns off the §3.3.2 last-hop one-sided write
	// optimization (ablation): the penultimate replica forwards through
	// the last replica's NICFS memory instead.
	DisableDirectWrite bool

	// PubMode selects the kernel worker's publication method.
	PubMode PubMode

	// LeaseTTL is the lease lifetime.
	LeaseTTL time.Duration

	// DFSPrio is the scheduling priority of host-side DFS work (kernel
	// worker, LibFS service) relative to applications (0 = equal).
	DFSPrio int

	// HeartbeatEvery paces the cluster manager and the NICFS->kernel
	// worker failure detector.
	HeartbeatEvery time.Duration

	// InodesPerVol sizes each node's inode table; InoRangePerClient is the
	// private inode number range handed to each LibFS at attach.
	InodesPerVol      int
	InoRangePerClient int
}

// DefaultConfig returns the paper's configuration at simulation-friendly
// log sizes.
func DefaultConfig() Config {
	return Config{
		Spec:              node.DefaultSpec(),
		Nodes:             3,
		Replicas:          2,
		MaxClients:        8,
		VolSize:           1 << 30,
		LogSize:           64 << 20,
		ChunkSize:         4 << 20,
		Parallel:          true,
		Compress:          false,
		RepBatchChunks:    16,
		NotifyChunks:      1,
		PubMode:           PubDMAIntrBatch,
		LeaseTTL:          time.Second,
		HeartbeatEvery:    time.Second,
		InodesPerVol:      65536,
		InoRangePerClient: 4096,
	}
}
