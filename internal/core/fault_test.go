package core

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// assertReplicasHold checks that every node's published volume carries
// exactly want at path — same size (no double apply) and same bytes.
func assertReplicasHold(t *testing.T, cl *Cluster, path string, want []byte) {
	t.Helper()
	for mi := 0; mi < cl.Cfg.Nodes; mi++ {
		ctx := fs.NoCostCtx(cl.Machines[mi].PM)
		ino, err := cl.Vols[mi].Resolve(ctx, path)
		if err != nil {
			t.Fatalf("node %d: %v", mi, err)
		}
		in, err := cl.Vols[mi].Stat(ctx, ino)
		if err != nil {
			t.Fatalf("node %d stat: %v", mi, err)
		}
		if in.Size != uint64(len(want)) {
			t.Fatalf("node %d size = %d, want %d (duplicate apply?)", mi, in.Size, len(want))
		}
		got := make([]byte, len(want))
		n, err := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
		if err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("node %d content mismatch (n=%d err=%v)", mi, n, err)
		}
	}
}

// TestRetransmitDupDeliveryIdempotent blackholes the ack direction of the
// chain: data frames reach the first mirror, its cumulative acks die, and
// the primary's retransmit layer resends chunks the mirror already applied.
// The watermark dedup must absorb every duplicate — the fsync completes
// after heal and no replica applies a byte twice.
func TestRetransmitDupDeliveryIdempotent(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	cfg.RepRetryEvery = 10 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	payload := bytes.Repeat([]byte{0x5A}, 512<<10)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/dup")
		fp.SetRule("node1", "node0", rdma.FaultRule{Drop: 1})
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(300 * time.Millisecond)
			fp.ClearRules()
		})
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across ack blackhole: %v", err)
		}
		p.Sleep(2 * time.Second)
	})
	if cl.Robust.FramesDropped == 0 {
		t.Error("ack blackhole dropped no frames; rule never engaged")
	}
	if cl.Robust.RepResends == 0 {
		t.Error("primary never retransmitted across the silent-ack window")
	}
	if cl.Robust.DupDelivered == 0 {
		t.Error("mirror saw no duplicate deliveries; retransmits never reached it")
	}
	assertReplicasHold(t, cl, "/dup", payload)
}

// TestCorruptedFrameRejectedEndToEnd corrupts every data frame on the
// primary->mirror link: the mirror must reject each one without applying
// or acking it, the retransmit layer keeps the chunks pending, and once the
// link heals a clean resend completes the fsync and converges every
// replica. A raw frame is caught by the CRC gate; a compressed one fails
// its decode or raw-length check before the CRC gate sees it.
func TestCorruptedFrameRejectedEndToEnd(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		compress bool
	}{
		{name: "raw"},
		{name: "compressed", compress: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.ChunkSize = 128 << 10
			cfg.RepRetryEvery = 10 * time.Millisecond
			cfg.Compress = tc.compress
			env, cl := newTestCluster(t, cfg)
			fp := cl.InstallFaultPlane()
			payload := bytes.Repeat([]byte{0xC2}, 384<<10)
			const healAt = 300 * time.Millisecond
			var fsyncDone sim.Time
			run(t, env, 120*time.Second, func(p *sim.Proc) {
				l, _ := cl.Attach(p, 0)
				fd, _ := l.Create(p, "/crc")
				fp.SetRule("node0", "node1", rdma.FaultRule{Corrupt: 1})
				env.Go("heal", func(hp *sim.Proc) {
					hp.Sleep(healAt)
					fp.ClearRules()
				})
				if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
					t.Fatal(err)
				}
				if err := l.Fsync(p, fd); err != nil {
					t.Fatalf("fsync across corrupting link: %v", err)
				}
				fsyncDone = p.Now()
				p.Sleep(2 * time.Second)
			})
			if cl.Robust.FramesCorrupted == 0 && cl.Robust.OneSidedFaults == 0 {
				t.Error("corruption rule never engaged")
			}
			if fsyncDone < sim.Time(healAt) {
				t.Errorf("fsync completed at %v, before the link healed at %v: a corrupted frame was acked", fsyncDone, healAt)
			}
			if tc.compress {
				if n0 := cl.NICs[0]; n0.RepWireBytes >= n0.RepBytes {
					t.Errorf("compression never engaged: %d wire bytes for %d raw", n0.RepWireBytes, n0.RepBytes)
				}
			} else if cl.Robust.CRCRejected == 0 {
				t.Error("mirror accepted corrupted frames; CRC gate never fired")
			}
			assertReplicasHold(t, cl, "/crc", payload)
		})
	}
}

// TestPartitionStallsFsyncUntilHeal cuts the primary off its first mirror
// mid-replication: with the probe path unaffected (the manager still sees
// the node alive), the fsync must stall rather than falsely complete, and
// resume to full-chain durability once the partition heals.
func TestPartitionStallsFsyncUntilHeal(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	cfg.RepRetryEvery = 10 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	payload := bytes.Repeat([]byte{0x9D}, 256<<10)
	const healAt = 400 * time.Millisecond
	var fsyncDone sim.Time
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/part")
		fp.Partition("node0", "node1")
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(healAt)
			fp.HealAll()
		})
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across partition: %v", err)
		}
		fsyncDone = p.Now()
		p.Sleep(2 * time.Second)
	})
	if fsyncDone < sim.Time(healAt) {
		t.Fatalf("fsync completed at %v, before the partition healed at %v", fsyncDone, healAt)
	}
	if !cl.Mgr.Alive("node1") {
		t.Error("partition must not mark the NIC dead; probes bypass the fabric")
	}
	if cl.Robust.PartitionsHealed == 0 {
		t.Error("heal never counted")
	}
	assertReplicasHold(t, cl, "/part", payload)
}
