package core

import (
	"fmt"

	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// linefsBackend connects a dfs.Client to its node's NICFS: leases, open
// checks and fsync ride the low-latency connection class; chunk-ready
// notifications ride the bulk class. Reclaim and revoke notifications from
// NICFS arrive on a host-side service process and are relayed to the
// client.
type linefsBackend struct {
	cl      *Cluster
	machine int
	slot    int
	id      string

	lowConn  *rdma.Conn
	bulkConn *rdma.Conn
	svcQ     *sim.Queue[*rdma.Msg]
	svcProc  *sim.Proc

	client *dfs.Client
	dead   bool
}

// Attachment is one attached LineFS client: the generic client library plus
// its node binding.
type Attachment struct {
	*dfs.Client
	backend *linefsBackend
	machine int
	slot    int
}

// Machine returns the machine index the client runs on.
func (a *Attachment) Machine() int { return a.machine }

// Slot returns the client's global slot.
func (a *Attachment) Slot() int { return a.slot }

// Detach closes the client (host process exit).
func (a *Attachment) Detach() { a.backend.close() }

// newAttachment attaches a client process on machine to NICFS slot.
func newAttachment(p *sim.Proc, cl *Cluster, machine, slot int) (*Attachment, error) {
	m := cl.Machines[machine]
	b := &linefsBackend{
		cl:      cl,
		machine: machine,
		slot:    slot,
		id:      fmt.Sprintf("%s/c%d", m.Name, slot),
	}
	b.lowConn = rdma.Dial(m.HostPort, m.NICPort, svcLow, true)
	b.bulkConn = rdma.Dial(m.HostPort, m.NICPort, svcBulk, false)

	v, err := b.lowConn.Call(p, "attach", &attachReq{Client: b.id, Slot: slot}, 64)
	if err != nil {
		return nil, err
	}
	resp := v.(*attachResp)

	client := dfs.NewClient(cl.Env, b, dfs.Config{
		ID:  b.id,
		Log: cl.NICs[machine].clients[slot].log,
		Vol: cl.Vols[machine],
		HostCtx: func(hp *sim.Proc) *fs.Ctx {
			return cl.hostCtx(hp, machine, "dfs")
		},
		Syscall: func(hp *sim.Proc) {
			m.HostCPU.Compute(hp, cl.Cfg.Spec.SyscallCost, cl.Cfg.DFSPrio, "dfs")
		},
		InoBase:      resp.InoBase,
		InoMax:       resp.InoCount,
		ChunkSize:    cl.Cfg.ChunkSize,
		NotifyChunks: cl.Cfg.NotifyChunks,
		LeaseTTL:     cl.Cfg.LeaseTTL,
	})
	b.client = client

	b.svcQ = sim.NewQueue[*rdma.Msg](cl.Env, 0)
	m.HostPort.Register(clientService(slot), b.svcQ)
	b.svcProc = cl.Env.Go(b.id+"/svc", b.runService)

	return &Attachment{Client: client, backend: b, machine: machine, slot: slot}, nil
}

// runService relays NICFS notifications to the client library.
func (b *linefsBackend) runService(p *sim.Proc) {
	for {
		msg, ok := b.svcQ.Get(p)
		if !ok {
			return
		}
		switch msg.Op {
		case "reclaim":
			rm := msg.Arg.(*reclaimMsg)
			b.client.OnReclaim(p, rm.UpTo)
		case "revoke":
			rv := msg.Arg.(*revokeMsg)
			b.client.OnRevoke(rv.Ino)
		}
	}
}

func (b *linefsBackend) close() {
	if b.dead {
		return
	}
	b.dead = true
	b.cl.Machines[b.machine].HostPort.Unregister(clientService(b.slot))
	b.svcQ.Close()
	if b.svcProc != nil {
		b.svcProc.Kill()
	}
}

// AcquireLease implements dfs.Backend.
func (b *linefsBackend) AcquireLease(p *sim.Proc, ino fs.Ino, mode lease.Mode) (bool, error) {
	v, err := b.lowConn.Call(p, "lease-acquire",
		&leaseReq{Client: b.id, Ino: ino, Mode: mode}, 24)
	if err != nil {
		return false, err
	}
	return v.(*leaseResp).OK, nil
}

// OpenCheck implements dfs.Backend.
func (b *linefsBackend) OpenCheck(p *sim.Proc, pth string) error {
	_, err := b.lowConn.Call(p, "open", &openReq{Client: b.id, Path: pth}, 64)
	return err
}

// ChunkReady implements dfs.Backend. The marks slice is reused by the
// client library, so it is copied into the queued message.
func (b *linefsBackend) ChunkReady(p *sim.Proc, head uint64, marks []uint64) {
	msg := &chunkReady{Slot: b.slot, Head: head}
	if len(marks) > 0 {
		msg.Marks = append([]uint64(nil), marks...)
	}
	_ = b.bulkConn.Send(p, "chunk-ready", msg, 24+8*len(marks))
}

// Fsync implements dfs.Backend.
func (b *linefsBackend) Fsync(p *sim.Proc, head uint64) error {
	_, err := b.lowConn.Call(p, "fsync", &fsyncReq{Slot: b.slot, Head: head}, 24)
	return err
}
