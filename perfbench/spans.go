package main

import (
	"encoding/json"
	"os"
	"time"

	"linefs/internal/sim"
)

// spanLog keeps a traced repetition's spans in memory and writes them at
// exit as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
// Client calls are on the simulated clock (pid 1, one thread per client);
// the set-up, run, drain and verify phases are on the host clock (pid 2).
// A nil *spanLog records nothing.
type spanLog struct {
	origin time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	pidSim  = 1
	pidHost = 2
)

func newSpanLog() *spanLog {
	meta := func(pid int, name string) traceEvent {
		return traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
	}
	return &spanLog{origin: time.Now(), events: []traceEvent{
		meta(pidSim, "simulated clock: client calls"),
		meta(pidHost, "host clock: benchmark phases"),
	}}
}

// call records one client call: its name, client id, per-client sequence
// number, simulated start and end, and the phase that made it.
func (s *spanLog) call(name string, client, seq int, start, end sim.Time, phase string) {
	if s == nil {
		return
	}
	s.events = append(s.events, traceEvent{
		Name: name, Cat: phase, Ph: "X", Pid: pidSim, Tid: client,
		Ts: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
		Args: map[string]any{"seq": seq, "phase": phase},
	})
}

// phase records one host-clock phase of the repetition.
func (s *spanLog) phase(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.events = append(s.events, traceEvent{
		Name: name, Cat: "phase", Ph: "X", Pid: pidHost,
		Ts: float64(start.Sub(s.origin).Nanoseconds()) / 1e3, Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

func (s *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": s.events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
