// Package bench holds the profiling hooks the commands share: hccbench and
// hccsweep expose them as -cpuprofile/-memprofile/-trace flags around the
// work an invocation does. The repository's performance benchmark lives in
// hccperf (bash hccperf/run.sh).
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileConfig holds the profiling outputs a command was asked for. Empty
// paths mean "off". Both hccbench and hccsweep expose these as
// -cpuprofile/-memprofile/-trace flags.
type ProfileConfig struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// Start begins the requested CPU profile and execution trace and returns a
// stop function that finalizes them and writes the heap profile. The stop
// function must run after the measured work (defer it), and is safe to call
// when nothing was enabled.
func (c ProfileConfig) Start() (stop func() error, err error) {
	var cpuF, traceF *os.File
	if c.CPUProfile != "" {
		cpuF, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("bench: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("bench: cpu profile: %w", err)
		}
	}
	if c.Trace != "" {
		traceF, err = os.Create(c.Trace)
		if err == nil {
			err = trace.Start(traceF)
		}
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if traceF != nil {
				traceF.Close()
			}
			return nil, fmt.Errorf("bench: trace: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil {
				return err
			}
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				return fmt.Errorf("bench: mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("bench: mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
