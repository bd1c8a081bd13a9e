package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParallelStdoutByteIdentical locks in the harness determinism promise:
// running the same experiments with -j 4 produces byte-for-byte the same
// stdout as -j 1. Two experiments make the schedules actually interleave.
func TestParallelStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments twice")
	}
	runCLI := func(j string) string {
		var out bytes.Buffer
		if code := run([]string{"-exp", "fig5,fig8a", "-j", j, "-seed", "7"}, &out, io.Discard); code != 0 {
			t.Fatalf("-j %s exited %d", j, code)
		}
		return out.String()
	}
	serial := runCLI("1")
	parallel := runCLI("4")
	if serial != parallel {
		t.Fatalf("-j 4 stdout differs from -j 1:\n--- j=1 ---\n%s--- j=4 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "== fig5:") || !strings.Contains(serial, "== fig8a:") {
		t.Fatalf("unexpected output:\n%s", serial)
	}
}

// TestSelfCheckCLI runs the -selfcheck mode end to end on one experiment
// and checks it reports a digest match.
func TestSelfCheckCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment twice")
	}
	var out bytes.Buffer
	if code := run([]string{"-selfcheck", "-exp", "fig5"}, &out, io.Discard); code != 0 {
		t.Fatalf("selfcheck exited %d:\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "selfcheck fig5") || !strings.Contains(got, "ok: digest") {
		t.Fatalf("unexpected selfcheck output:\n%s", got)
	}
}

// TestListAndUsage covers the cheap CLI paths.
func TestListAndUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, io.Discard); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if !strings.Contains(out.String(), "fig9") {
		t.Fatalf("-list output missing experiments:\n%s", out.String())
	}
	if code := run([]string{"-exp", "nosuch"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
}

// TestProfileFlags checks -cpuprofile and -memprofile write non-empty
// pprof files, and that an unwritable path fails the run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if code := run([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("-list with profiles exited %d", code)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written (err %v)", f, err)
		}
	}
	bad := filepath.Join(dir, "missing", "cpu.out")
	if code := run([]string{"-list", "-cpuprofile", bad}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("unwritable -cpuprofile exited %d, want 1", code)
	}
	if code := run([]string{"-list", "-memprofile", bad}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("unwritable -memprofile exited %d, want 1", code)
	}
}
