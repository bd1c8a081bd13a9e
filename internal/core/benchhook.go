package core

import (
	"bytes"
	"fmt"

	"linefs/internal/compress"
	"linefs/internal/fs"
)

// ReplHotLoop builds warmed state for the pooled replication hot path and
// returns a closure that runs one steady-state iteration over it: growBuf
// (payload staging into a pooled chunk buffer), appendTouched (namespace
// history records into the pooled touched slice), compressChunk (the
// chunk-owned compression buffer), and decodeBatchChunk (mirror-side batch
// frame decode into a pooled receive buffer). The two codec calls go
// through the host offload exactly as the pipeline runs them — started on
// a worker, then joined — so the hand-off is measured too. The repbench
// drives the closure under a MemStats window to assert that the
// //linefs:hotpath annotations hold at runtime: zero allocations per op
// once every buffer is warm.
func ReplHotLoop() (func(), error) {
	// A chunk's worth of wire-encoded write entries — the byte stream the
	// pipeline fetches and compresses and the mirror decodes.
	rec := bytes.Repeat([]byte("linefs replication hot path "), 32)
	var raw []byte
	for seq := uint64(1); len(raw) < 64<<10; seq++ {
		e := fs.Entry{Seq: seq, Type: fs.OpWrite, Ino: 3, Off: uint64(len(raw)), Data: rec}
		raw = e.AppendWire(raw)
	}
	entries, err := fs.DecodeAll(raw)
	if err != nil {
		return nil, fmt.Errorf("repl hot loop: corpus decode: %w", err)
	}
	enc := compress.NewEncoder()
	payload := enc.CompressInto(nil, raw)
	if len(payload) >= len(raw) {
		return nil, fmt.Errorf("repl hot loop: corpus did not compress (%d >= %d)", len(payload), len(raw))
	}
	bc := &batchChunk{
		From:       0,
		To:         uint64(len(raw)),
		FirstSeq:   1,
		Payload:    payload,
		Compressed: true,
		RawLen:     len(raw),
	}
	// One pooled incarnation of each buffer, reused every iteration — the
	// steady state runCompletion's recycling produces.
	stage := make([]byte, 0, len(raw))
	var hist []touched
	var cbuf []byte
	dst := make([]byte, len(raw))
	cj, dj := &codecJob{}, &codecJob{}
	return func() {
		stage = growBuf(stage, len(raw))
		//lint:allow borrowcheck the closure also captures raw, the borrow's backing buffer, so entries can never outlive it
		hist = appendTouched(hist[:0], entries)
		cj.startCompress(cbuf, raw)
		dj.startDecode(dst[:len(raw):len(raw)], bc)
		cj.Join()
		cbuf = cj.dst
		dj.Join()
		if dj.err != nil {
			panic(dj.err)
		}
	}, nil
}
