package main

import (
	"linefs/internal/core"
	"linefs/internal/fs"
	"linefs/internal/stats"
)

// stageNames are the pipeline stages whose mean simulated service time the
// primary NICFS records.
var stageNames = []string{"fetch", "validate", "publish", "transfer", "ack"}

// layerSnapshot is every per-layer counter read from the cluster after the
// drain, from outside: the NICFS counters, the cluster's robustness
// summary, fabric and link byte counters, CPU busy time, and live volume
// blocks.
type layerSnapshot struct {
	stageNs      [5]int64 // primary's mean service time per stage
	chunks       int64
	repMsgs      int64
	ackMsgs      int64
	staleAcks    int64
	repBytes     int64
	repWireBytes int64
	retries      int64
	robustOther  int64 // every other robustness counter, summed
	fabricBytes  int64
	pmLinkBytes  int64
	pcieBytes    int64
	hostBusyNs   int64
	nicBusyNs    int64
	liveBytes    int64
	calls        int64
	userBytes    int64
	opP50, opP99 [numOps]int64
	opSamples    [numOps]int64
}

func layerCounters(cl *core.Cluster, clients []*clientRun) *layerSnapshot {
	l := &layerSnapshot{}
	for i, name := range stageNames {
		if ta := cl.NICs[0].StageTimes[name]; ta != nil {
			l.stageNs[i] = int64(ta.Mean())
		}
	}
	for _, n := range cl.NICs {
		l.chunks += n.RepChunksSent
		l.repMsgs += n.RepMsgs
		l.ackMsgs += n.AckMsgs
		l.staleAcks += n.StaleAcks
		l.repBytes += n.RepBytes
		l.repWireBytes += n.RepWireBytes
	}
	r := cl.Robust
	l.retries = r.RPCRetries + r.RepResends
	l.robustOther = r.FramesDropped + r.FramesDuplicated + r.FramesCorrupted + r.FramesDelayed +
		r.OneSidedFaults + r.PartitionsHealed + r.RPCTimeouts + r.DupDelivered + r.CRCRejected +
		r.RepliesDiscarded + r.StaleAcks
	l.fabricBytes = cl.Fabric.Total.Total()
	for i, m := range cl.Machines {
		l.pmLinkBytes += m.PM.Link().Bytes.Total()
		l.pcieBytes += m.PCIe.Bytes.Total() + m.Fetch.Bytes.Total()
		l.hostBusyNs += int64(m.HostCPU.Util.TotalBusy())
		l.nicBusyNs += int64(m.NICCPU.Util.TotalBusy())
		v := cl.Vols[i]
		l.liveBytes += int64(v.NBlocks()-v.FreeCount()) * fs.BlockSize
	}
	for _, c := range clients {
		l.calls += int64(c.calls)
		l.userBytes += c.ackedBytes
	}
	for k := opKind(0); k < numOps; k++ {
		var all stats.Latency
		for _, c := range clients {
			for _, d := range c.lat[k] {
				all.Add(d)
			}
		}
		l.opSamples[k] = int64(all.N())
		l.opP50[k] = int64(all.Percentile(50))
		l.opP99[k] = int64(all.Percentile(99))
	}
	return l
}

// counters flattens the snapshot into the simulated-clock fingerprint.
func (l *layerSnapshot) counters() []int64 {
	out := append([]int64(nil), l.stageNs[:]...)
	out = append(out, l.chunks, l.repMsgs, l.ackMsgs, l.staleAcks, l.repBytes, l.repWireBytes,
		l.retries, l.robustOther, l.fabricBytes, l.pmLinkBytes, l.pcieBytes, l.hostBusyNs,
		l.nicBusyNs, l.liveBytes)
	out = append(out, l.opP50[:]...)
	return append(out, l.opP99[:]...)
}

// metrics returns the per-layer metrics a traced repetition can compute by
// itself; the parent adds the ones that need peak RSS or the untraced
// wall time.
func (l *layerSnapshot) metrics(s *simRecord, res *repResult) map[string]float64 {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	m := map[string]float64{
		"hw.pm_link_mb":              float64(l.pmLinkBytes) / 1e6,
		"hw.pcie_mb":                 float64(l.pcieBytes) / 1e6,
		"hw.host_cpu_busy_ms":        float64(l.hostBusyNs) / 1e6,
		"hw.nic_cpu_busy_ms":         float64(l.nicBusyNs) / 1e6,
		"fs.live_mb":                 float64(l.liveBytes) / 1e6,
		"core.chunks":                float64(l.chunks),
		"core.wire_msgs_per_chunk":   ratio(float64(l.repMsgs+l.ackMsgs), float64(l.chunks)),
		"core.retries":               float64(l.retries),
		"core.stale_acks":            float64(l.staleAcks),
		"rdma.fabric_mb_per_user_mb": ratio(float64(l.fabricBytes), float64(l.userBytes)),
		"compress.ratio":             ratio(float64(l.repBytes), float64(l.repWireBytes)),
		"dfs.fsync_samples":          float64(l.opSamples[opFsync]),
		"process.verify_s":           res.VerifyS,
	}
	for i, name := range stageNames {
		m["core.stage."+name+"_us"] = us(l.stageNs[i])
	}
	for _, k := range []opKind{opCreate, opWrite, opRead, opUnlink} {
		m["dfs."+k.String()+"_p50_us"] = us(l.opP50[k])
		m["dfs."+k.String()+"_p99_us"] = us(l.opP99[k])
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
