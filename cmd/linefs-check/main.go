// Command linefs-check runs the correctness suite the paper validates with
// (§5.1: xfstests generic cases and CrashMonkey crash-consistency tests)
// against the simulated systems.
//
//	linefs-check                 # LineFS, all cases
//	linefs-check -system assise  # the baseline
//	linefs-check -run crash      # only cases whose name contains "crash"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"linefs/internal/assise"
	"linefs/internal/check"
)

func main() {
	var (
		system = flag.String("system", "linefs", "linefs | linefs-np | assise | assise-bg | assise-hl")
		filter = flag.String("run", "", "substring filter on case names")
		seed   = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	mk := func() (*check.Target, error) {
		switch *system {
		case "linefs":
			return check.NewLineFSTarget(*seed, true)
		case "linefs-np":
			return check.NewLineFSTarget(*seed, false)
		case "assise":
			return check.NewAssiseTarget(*seed, assise.Pessimistic)
		case "assise-bg":
			return check.NewAssiseTarget(*seed, assise.BgRepl)
		case "assise-hl":
			return check.NewAssiseTarget(*seed, assise.Hyperloop)
		default:
			return nil, fmt.Errorf("unknown system %q", *system)
		}
	}

	cases := check.AllCases()
	passed, failed := 0, 0
	for _, c := range cases {
		if *filter != "" && !strings.Contains(c.Name, *filter) {
			continue
		}
		err := check.RunCase(mk, c)
		if err != nil {
			fmt.Printf("FAIL  %-24s %v\n", c.Name, err)
			failed++
		} else {
			fmt.Printf("ok    %-24s\n", c.Name)
			passed++
		}
	}
	fmt.Printf("\n%d passed, %d failed (%s)\n", passed, failed, *system)
	if failed > 0 {
		os.Exit(1)
	}
}
