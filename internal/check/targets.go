package check

import (
	"fmt"

	"linefs/internal/assise"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/sim"
)

// NewLineFSTarget builds a fresh LineFS cluster target; parallel selects
// the pipelined NICFS data path (false runs the stages sequentially, the
// paper's LineFS-NP ablation).
//
// Sizes are deliberately small: the check cases are correctness tests that
// write at most ~16 MB, and every case builds (and tears down) a fresh
// three-machine cluster.
func NewLineFSTarget(seed int64, parallel bool) (*Target, error) {
	cfg := core.DefaultConfig()
	cfg.Parallel = parallel
	cfg.Spec.PMSize = 256 << 20
	cfg.VolSize = 128 << 20
	cfg.LogSize = 24 << 20
	cfg.ChunkSize = 1 << 20
	cfg.MaxClients = 4
	cfg.InodesPerVol = 16384
	env := sim.NewEnv(seed)
	cl, err := core.NewCluster(env, cfg)
	if err != nil {
		return nil, err
	}
	cl.Start()
	return &Target{
		Env: env,
		Attach: func(p *sim.Proc) (*dfs.Client, error) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				return nil, err
			}
			return a.Client, nil
		},
		CrashPrimaryPM: func() { cl.Machines[0].PM.Crash() },
		ReopenLog: func() (*fs.LogArea, *fs.Ctx, error) {
			ctx := fs.NoCostCtx(cl.Machines[0].PM)
			la, err := fs.OpenLogArea(ctx, cfg.VolSize, cfg.LogSize)
			return la, ctx, err
		},
	}, nil
}

// NewAssiseTarget builds a fresh Assise cluster target.
func NewAssiseTarget(seed int64, mode assise.Mode) (*Target, error) {
	cfg := assise.DefaultConfig()
	cfg.Spec.PMSize = 256 << 20
	cfg.VolSize = 128 << 20
	cfg.LogSize = 24 << 20
	cfg.ChunkSize = 1 << 20
	cfg.MaxClients = 4
	cfg.InodesPerVol = 16384
	cfg.Mode = mode
	env := sim.NewEnv(seed)
	cl, err := assise.NewCluster(env, cfg)
	if err != nil {
		return nil, err
	}
	cl.Start()
	return &Target{
		Env: env,
		Attach: func(p *sim.Proc) (*dfs.Client, error) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				return nil, err
			}
			return a.Client, nil
		},
		CrashPrimaryPM: func() { cl.Machines[0].PM.Crash() },
		ReopenLog: func() (*fs.LogArea, *fs.Ctx, error) {
			ctx := fs.NoCostCtx(cl.Machines[0].PM)
			la, err := fs.OpenLogArea(ctx, cfg.VolSize, cfg.LogSize)
			return la, ctx, err
		},
	}, nil
}

// RunCase executes one case against a fresh target built by mk. It returns
// nil on pass.
func RunCase(mk func() (*Target, error), c Case) error {
	tgt, err := mk()
	if err != nil {
		return err
	}
	defer tgt.Env.Shutdown()
	var caseErr error
	pr := tgt.Env.Go("check/"+c.Name, func(p *sim.Proc) {
		caseErr = c.Run(p, tgt)
	})
	// Run straight to the case's completion event (20 minutes virtual cap)
	// instead of stepping the clock in 50 ms polls.
	tgt.Env.Go("check/wait", func(p *sim.Proc) {
		p.WaitTimeout(pr.Done, 20*60*1000*1000*1000)
		tgt.Env.Stop()
	})
	tgt.Env.Run()
	if !pr.Done.Triggered() {
		return fmt.Errorf("case %s: did not complete in simulated time", c.Name)
	}
	return caseErr
}
