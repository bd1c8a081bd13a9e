package check

import (
	"testing"

	"linefs/internal/assise"
)

// Every test builds fresh targets (one Env per case) and package state is
// written only during init, so the suites can run in parallel.

func TestGenericSuiteOnLineFS(t *testing.T) {
	t.Parallel()
	mk := func() (*Target, error) { return NewLineFSTarget(1, true) }
	for _, c := range append(Generic(), genericExtra...) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := RunCase(mk, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrashSuiteOnLineFS(t *testing.T) {
	t.Parallel()
	mk := func() (*Target, error) { return NewLineFSTarget(1, true) }
	for _, c := range CrashCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := RunCase(mk, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSuitesOnLineFSNonParallel runs both suites on the sequential data
// path (linefs-check -system linefs-np).
func TestSuitesOnLineFSNonParallel(t *testing.T) {
	t.Parallel()
	mk := func() (*Target, error) { return NewLineFSTarget(1, false) }
	for _, c := range append(append(Generic(), genericExtra...), CrashCases()...) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := RunCase(mk, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGenericSuiteOnAssise(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline cross-check; LineFS generic suite covers the cases in -short")
	}
	t.Parallel()
	mk := func() (*Target, error) { return NewAssiseTarget(1, assise.Pessimistic) }
	for _, c := range append(Generic(), genericExtra...) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := RunCase(mk, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGenericSuiteOnHyperloop(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline cross-check; LineFS generic suite covers the cases in -short")
	}
	t.Parallel()
	mk := func() (*Target, error) { return NewAssiseTarget(1, assise.Hyperloop) }
	for _, c := range Generic() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := RunCase(mk, c); err != nil {
				t.Fatal(err)
			}
		})
	}
}
