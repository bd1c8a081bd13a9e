// Package fs implements the persistent-memory file system layout shared by
// LineFS and the Assise baseline: a superblock, block allocator, inode
// table, per-file extent chains, directories, and the client-private
// operational log format with CRC-protected entries, plus the coalescing
// analysis the publishing pipeline runs.
//
// All structures live in simulated PM as real bytes; every manipulation
// reads and writes the device through a Ctx that charges the acting
// processor and interconnect in virtual time. The same code therefore runs
// whether the actor is a host core, a wimpy SmartNIC core across PCIe, or
// cost-free test setup.
package fs

import (
	"time"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

// Ctx identifies who is touching PM and over which interconnect, so costs
// land on the right timeline. A zero Extra/CPU Ctx is a host-core actor; a
// NICFS actor carries the PCIe link in Extra and the SmartNIC CPU.
type Ctx struct {
	P  *sim.Proc
	PM *hw.PM
	// ExtraRead/ExtraWrite are links crossed on each read/write access
	// (e.g. PCIe from SmartNIC to host PM). They differ for NICFS, which
	// caches inodes and indexes in SmartNIC DRAM — reads are local, writes
	// write through across PCIe.
	ExtraRead  []*hw.Link
	ExtraWrite []*hw.Link
	// CPU, when set, is charged for Compute work.
	CPU  *hw.CPU
	Prio int
	Tag  string
	// MemAmp amplifies write traffic on the PM's memory system (CPU-store
	// actors; 0/1 = none). See hw.PM.WriteAmp.
	MemAmp int
	// NoCost disables all time charging (setup and test inspection).
	NoCost bool
}

// NoCostCtx returns a cost-free context for pm (setup and verification).
func NoCostCtx(pm *hw.PM) *Ctx { return &Ctx{PM: pm, NoCost: true} }

// Read copies PM bytes at off into dst, charging access cost.
func (c *Ctx) Read(off int64, dst []byte) {
	if c.NoCost || c.P == nil {
		c.PM.ReadNoCost(off, dst)
		return
	}
	for _, l := range c.ExtraRead {
		l.Transfer(c.P, len(dst), c.Prio)
	}
	c.PM.Read(c.P, off, dst)
}

// Write stores src at off and persists it (metadata and log writes on the
// persistence-critical path flush eagerly).
func (c *Ctx) Write(off int64, src []byte) {
	if c.NoCost || c.P == nil {
		c.PM.WritePersistNoCost(off, src)
		return
	}
	// PCIe writes are posted and tiny (metadata write-back from the NIC
	// DRAM cache): account their bytes without serializing them behind
	// bulk chunk fetches.
	for _, l := range c.ExtraWrite {
		l.Bytes.Add(int64(len(src)))
	}
	c.PM.WriteAmp(c.P, off, src, c.MemAmp)
	c.PM.Persist(c.P, off, int64(len(src)))
}

// Compute charges reference-core work to the acting CPU.
func (c *Ctx) Compute(work time.Duration) {
	if c.NoCost || c.P == nil || c.CPU == nil || work <= 0 {
		return
	}
	c.CPU.Compute(c.P, work, c.Prio, c.Tag)
}

// Sleep advances the actor's time (fixed-latency steps not tied to a
// device).
func (c *Ctx) Sleep(d time.Duration) {
	if c.NoCost || c.P == nil || d <= 0 {
		return
	}
	c.P.Sleep(d)
}
