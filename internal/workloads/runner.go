package workloads

import (
	"hccsim/internal/cuda"
	"hccsim/internal/obs"
	"hccsim/internal/sim"
)

// Result is one completed application run.
type Result struct {
	Spec    Spec
	Mode    Mode
	Runtime *cuda.Runtime
	End     sim.Time
}

// Execute runs the application on a fresh simulated system and returns the
// runtime (with its trace) for analysis. cfg is usually
// cuda.DefaultConfig(cc); pass a modified config for sweeps.
func Execute(spec Spec, mode Mode, cfg cuda.Config) Result {
	return ExecuteObserved(spec, mode, cfg, nil)
}

// ExecuteObserved is Execute with an observability layer attached for the
// whole run: the observer is bound to the fresh engine before the host
// process spawns, every substrate opens spans on it, and the end-of-run
// counters are published into its metrics registry. A nil observer records
// nothing (plain Execute).
func ExecuteObserved(spec Spec, mode Mode, cfg cuda.Config, o *obs.Observer) Result {
	eng := sim.NewEngine()
	rt := cuda.New(eng, cfg)
	if o != nil {
		o.Bind(eng)
		rt.SetObserver(o)
	}
	eng.Spawn("host:"+spec.Name, func(p *sim.Proc) {
		spec.Run(rt.Bind(p), mode)
	})
	end := eng.Run()
	if o != nil {
		rt.PublishMetrics()
	}
	return Result{Spec: spec, Mode: mode, Runtime: rt, End: end}
}

// Pair runs the same application CC-off and CC-on with default configs —
// the basic comparison unit of Figs. 5-10.
func Pair(spec Spec, mode Mode) (base, cc Result) {
	return Execute(spec, mode, cuda.DefaultConfig(false)),
		Execute(spec, mode, cuda.DefaultConfig(true))
}
