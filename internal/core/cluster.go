package core

import (
	"fmt"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/node"
	"linefs/internal/rdma"
	"linefs/internal/sim"
	"linefs/internal/stats"
)

// Cluster is a running LineFS deployment: machines, public volumes, NICFS
// instances, kernel workers and the cluster manager.
type Cluster struct {
	Env    *sim.Env
	Cfg    Config
	Fabric *rdma.Fabric

	Machines []*node.Machine
	Vols     []*fs.Vol
	NICs     []*NICFS
	KWs      []*KWorker
	Mgr      *cluster.Manager

	// Robust aggregates the cluster's failure-path counters: fault-plane
	// injections (when a fault plane is installed on the fabric), retry and
	// timeout reactions, and integrity-gate rejections.
	Robust stats.Robustness

	clients []*Attachment // by slot
	nAttach int
	started bool

	// codecJobs is the freelist of offloaded LZW jobs shared by every
	// compression stage and mirror, so codec state follows the jobs in
	// flight rather than the number of clients.
	codecJobs []*codecJob
}

// NewCluster builds and formats a LineFS cluster. Call Start before
// attaching clients.
func NewCluster(env *sim.Env, cfg Config) (*Cluster, error) {
	if cfg.Replicas >= cfg.Nodes {
		return nil, fmt.Errorf("core: %d replicas need more than %d nodes", cfg.Replicas, cfg.Nodes)
	}
	need := cfg.VolSize + int64(cfg.MaxClients)*cfg.LogSize
	if need > cfg.Spec.PMSize {
		return nil, fmt.Errorf("core: PM too small: need %d, have %d", need, cfg.Spec.PMSize)
	}
	cl := &Cluster{
		Env:     env,
		Cfg:     cfg,
		Fabric:  node.NewFabric(env, cfg.Spec),
		clients: make([]*Attachment, cfg.MaxClients),
	}
	for i := 0; i < cfg.Nodes; i++ {
		m := node.NewMachine(env, cl.Fabric, fmt.Sprintf("node%d", i), cfg.Spec)
		v, err := fs.Format(env, m.PM, 0, cfg.VolSize, cfg.InodesPerVol)
		if err != nil {
			return nil, err
		}
		cl.Machines = append(cl.Machines, m)
		cl.Vols = append(cl.Vols, v)
		// Machine-local RPC timeouts (NICFS <-> kernel worker) count too.
		m.Local.Robust = &cl.Robust
		// Expose the whole PM over the network for direct last-hop log
		// writes, and over the machine-local fabric for NICFS access.
		m.Port.RegisterRegion("pm", &rdma.PMRegion{PM: m.PM, Base: 0, Len: cfg.Spec.PMSize, Extra: []*hw.Link{m.PCIe}, Persist: true})
		m.HostPort.RegisterRegion("pm", &rdma.PMRegion{PM: m.PM, Base: 0, Len: cfg.Spec.PMSize, Persist: true})
	}
	cl.Mgr = cluster.NewManager(env, cfg.HeartbeatEvery)
	// Timed-out and late-discarded RPCs on the cluster fabric count into the
	// cluster's robustness summary even without a fault plane.
	cl.Fabric.Robust = &cl.Robust
	return cl, nil
}

// InstallFaultPlane attaches a deterministic fault plane to the cluster
// fabric, feeding its injection counters into cl.Robust, and returns it for
// rule installation. It is idempotent until the first Attach and panics
// after it: each client's replication retransmit loop starts at attach,
// and only when a fault plane is already installed.
func (cl *Cluster) InstallFaultPlane() *rdma.FaultPlane {
	if cl.nAttach > 0 {
		panic("core: InstallFaultPlane after a client attached")
	}
	if cl.Fabric.Faults == nil {
		cl.Fabric.Faults = rdma.NewFaultPlane(cl.Env, &cl.Robust)
	}
	return cl.Fabric.Faults
}

// Start launches NICFS, kernel workers and the cluster manager on every
// node.
func (cl *Cluster) Start() {
	if cl.started {
		return
	}
	cl.started = true
	for i := range cl.Machines {
		kw := newKWorker(cl, i)
		cl.KWs = append(cl.KWs, kw)
	}
	for i := range cl.Machines {
		n := newNICFS(cl, i)
		cl.NICs = append(cl.NICs, n)
	}
	for _, kw := range cl.KWs {
		kw.Start()
	}
	for _, n := range cl.NICs {
		n.Start()
		cl.Mgr.Join(n)
	}
	cl.Mgr.DelegateRoot("/", cl.NICs[0].Name())
	cl.Mgr.Start()
}

// chain returns the machine indices of a slot's replication chain, primary
// first.
func (cl *Cluster) chain(primary int) []int {
	out := make([]int, 0, cl.Cfg.Replicas+1)
	for i := 0; i <= cl.Cfg.Replicas; i++ {
		out = append(out, (primary+i)%cl.Cfg.Nodes)
	}
	return out
}

// logBase returns the PM offset of a slot's log area (identical on every
// machine in the chain).
func (cl *Cluster) logBase(slot int) int64 {
	return cl.Cfg.VolSize + int64(slot)*cl.Cfg.LogSize
}

// Attach creates a LibFS client process handle on the given machine.
// It must be called from a simulation process.
func (cl *Cluster) Attach(p *sim.Proc, machine int) (*Attachment, error) {
	if !cl.started {
		return nil, fmt.Errorf("core: cluster not started")
	}
	if cl.nAttach >= cl.Cfg.MaxClients {
		return nil, fmt.Errorf("core: client slots exhausted (%d)", cl.Cfg.MaxClients)
	}
	slot := cl.nAttach
	cl.nAttach++
	l, err := newAttachment(p, cl, machine, slot)
	if err != nil {
		return nil, err
	}
	cl.clients[slot] = l
	return l, nil
}

// RunFor advances the whole simulation (convenience for tests/benchmarks).
func (cl *Cluster) RunFor(d time.Duration) { cl.Env.RunFor(d) }

// Node helpers used across files.

func (cl *Cluster) machine(i int) *node.Machine { return cl.Machines[i] }

// hostStoreAmp is the memory-system amplification of host CPU stores into
// PM (cacheline RMW, write-combining misses, cache pollution).
const hostStoreAmp = 4

// hostCtx builds an fs.Ctx for a host-core actor on machine i.
func (cl *Cluster) hostCtx(p *sim.Proc, i int, tag string) *fs.Ctx {
	m := cl.Machines[i]
	return &fs.Ctx{P: p, PM: m.PM, CPU: m.HostCPU, Prio: cl.Cfg.DFSPrio, Tag: tag, MemAmp: hostStoreAmp}
}

// nicCtx builds an fs.Ctx for a SmartNIC actor on machine i: metadata
// reads hit the NIC DRAM cache, writes cross PCIe to host PM.
func (cl *Cluster) nicCtx(p *sim.Proc, i int, tag string) *fs.Ctx {
	m := cl.Machines[i]
	return &fs.Ctx{
		P:          p,
		PM:         m.PM,
		ExtraWrite: []*hw.Link{m.PCIe},
		CPU:        m.NICCPU,
		Prio:       0,
		Tag:        tag,
	}
}
