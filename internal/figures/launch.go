package figures

import (
	"fmt"
	"strings"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
	"hccsim/internal/workloads"
)

// Fig07LaunchQueue reproduces Fig. 7: KLO, LQT and KQT per application,
// normalized to the non-CC run (apps with a single launch are excluded, as
// in the paper).
func Fig07LaunchQueue() Table {
	t := Table{
		ID:      "fig7",
		Title:   "KLO / LQT / KQT normalized to non-CC",
		Columns: []string{"app", "launches", "klo-ratio", "lqt-ratio", "kqt-ratio"},
	}
	var kloSum, lqtSum, kqtSum float64
	var kloN, lqtN, kqtN int
	for _, spec := range workloads.All() {
		if spec.Launches() <= 1 {
			continue
		}
		base, cc := runPair(spec, workloads.CopyExecute)
		mb, mc := base.Runtime.Metrics(), cc.Runtime.Metrics()
		klo := ratioOf(mc.KLO, mb.KLO)
		lqt := ratioOf(mc.LQT, mb.LQT)
		kqt := ratioOf(mc.KQT, mb.KQT)
		t.AddRow(spec.Name, spec.Launches(), klo, lqt, kqt)
		if klo > 0 {
			kloSum += klo
			kloN++
		}
		if lqt > 0 {
			lqtSum += lqt
			lqtN++
		}
		if kqt > 0 {
			kqtSum += kqt
			kqtN++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"measured averages: KLO %.2fx, LQT %.2fx, KQT %.2fx; paper (Obs. 4): 1.42x, 1.43x, 2.32x",
		kloSum/float64(kloN), lqtSum/float64(lqtN), kqtSum/float64(kqtN)))
	return t
}

// Fig08CallStack reproduces Fig. 8: the simplified cudaLaunchKernel call
// stack inside a TD versus a plain VM, with per-frame costs.
func Fig08CallStack() Table {
	t := Table{
		ID:      "fig8",
		Title:   "cudaLaunchKernel call stack (flame-graph style)",
		Columns: []string{"mode", "frame", "cost"},
	}
	for _, cc := range []bool{false, true} {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cuda.DefaultConfig(cc))
		mode := "base"
		if cc {
			mode = "cc"
		}
		for _, f := range rt.LaunchCallStack() {
			indent := strings.Repeat("  ", f.Depth)
			cost := "-"
			if f.Cost > 0 {
				cost = f.Cost.String()
			}
			t.AddRow(mode, indent+f.Name, cost)
		}
	}
	t.Notes = append(t.Notes,
		"paper: tdx_hypercall raises TD-exit latency by over 470% vs a plain exit")
	return t
}

// Fig09KET reproduces Fig. 9: kernel execution time normalized to the
// non-CC non-UVM baseline, for non-UVM and UVM variants.
func Fig09KET() Table {
	t := Table{
		ID:      "fig9",
		Title:   "KET normalized to non-CC non-UVM",
		Columns: []string{"app", "base", "cc", "uvm-base", "uvm-cc"},
	}
	var ccDeltaSum float64
	var ccN int
	var uvmBaseSum, uvmCCSum, uvmWorst float64
	uvmWorstApp := ""
	var uvmN int
	for _, spec := range workloads.All() {
		base, cc := runPair(spec, workloads.CopyExecute)
		kb := base.Runtime.Metrics().KET
		kc := cc.Runtime.Metrics().KET
		row := []interface{}{spec.Name, 1.0, ratioOf(kc, kb)}
		ccDeltaSum += ratioOf(kc, kb) - 1
		ccN++
		if spec.UVMCapable {
			ub, uc := runPair(spec, workloads.UVM)
			rb := ratioOf(ub.Runtime.Metrics().KET, kb)
			rc := ratioOf(uc.Runtime.Metrics().KET, kb)
			row = append(row, rb, rc)
			uvmBaseSum += rb
			uvmCCSum += rc
			uvmN++
			if rc > uvmWorst {
				uvmWorst, uvmWorstApp = rc, spec.Name
			}
		} else {
			row = append(row, "-", "-")
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("non-UVM KET under CC: %+.2f%% average (paper: +0.48%%)", 100*ccDeltaSum/float64(ccN)),
		fmt.Sprintf("UVM KET: base avg %.2fx (paper 5.29x), CC avg %.1fx (paper 188.87x), worst %.0fx (%s; paper 164030x on 2dconv)",
			uvmBaseSum/float64(uvmN), uvmCCSum/float64(uvmN), uvmWorst, uvmWorstApp))
	return t
}

// Fig10Apps are the four representative applications of Fig. 10.
var Fig10Apps = []string{"lud", "srad", "sc", "3dconv"}

// Fig10Timelines reproduces Fig. 10: for each representative application,
// the distribution of launch and kernel events over the run, summarized by
// span, event counts, mean durations and the resulting KLR classification.
func Fig10Timelines() Table {
	t := Table{
		ID:    "fig10",
		Title: "Launch/kernel event timelines (summary)",
		Columns: []string{"app", "mode", "span-ms", "launches", "kernels",
			"mean-klo-us", "mean-ket-us", "klr", "regime"},
	}
	for _, name := range Fig10Apps {
		spec := mustWorkload(name)
		for _, cc := range []bool{false, true} {
			res := runWorkload(spec, workloads.CopyExecute, cc)
			m := core.Decompose(res.Runtime.Tracer())
			mode := "base"
			if cc {
				mode = "cc"
			}
			regime := "compute-hidden"
			if m.LaunchBound() {
				regime = "launch-bound"
			}
			t.AddRow(name, mode, ms(time.Duration(res.End)), m.Launches, m.Kernels,
				us(trace.Mean(res.Runtime.Metrics().KLOs)), us(trace.Mean(res.Runtime.Metrics().KETs)),
				m.KLR(), regime)
		}
	}
	t.Notes = append(t.Notes,
		"paper Fig 10A/B: long or numerous kernels hide KLO+LQT; Fig 10C/D (sc, 3dconv): low KLR makes launch overhead dominate (Observation 6)")
	return t
}

// Fig11CDFs reproduces Fig. 11: cumulative distributions of KLO and KET
// pooled across the whole suite, base vs CC, reported at key percentiles.
// Like the paper, the top 5 launch samples are trimmed from the displayed
// distribution but means are computed over all samples.
func Fig11CDFs() Table {
	t := Table{
		ID:      "fig11",
		Title:   "KLO and KET CDFs (pooled over the suite)",
		Columns: []string{"metric", "mode", "p10", "p50", "p90", "p99", "mean"},
	}
	collect := func(cc bool) (klos, kets []time.Duration) {
		for _, spec := range workloads.All() {
			res := runWorkload(spec, workloads.CopyExecute, cc)
			m := res.Runtime.Metrics()
			klos = append(klos, m.KLOs...)
			kets = append(kets, m.KETs...)
		}
		return
	}
	for _, cc := range []bool{false, true} {
		mode := "base"
		if cc {
			mode = "cc"
		}
		klos, kets := collect(cc)
		for _, metric := range []struct {
			name    string
			samples []time.Duration
			trim    int
		}{{"KLO", klos, 5}, {"KET", kets, 0}} {
			xs, _ := trace.CDF(metric.samples, metric.trim)
			t.AddRow(metric.name, mode,
				us(pct(xs, 0.10)), us(pct(xs, 0.50)), us(pct(xs, 0.90)), us(pct(xs, 0.99)),
				us(trace.Mean(metric.samples)))
		}
	}
	t.Notes = append(t.Notes,
		"paper: the CC KLO distribution shifts right; KET distributions coincide for non-UVM kernels")
	return t
}

func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Fig12aLaunchSeries reproduces Fig. 12a: per-launch KLO when kernel K0 is
// launched 100 times followed by K1 100 times (the paper's PTX-nanosleep
// microbenchmark, Listing 1).
func Fig12aLaunchSeries() Table {
	t := Table{
		ID:      "fig12a",
		Title:   "KLO vs launch index (K0 x100 then K1 x100, 100ms nanosleep kernels)",
		Columns: []string{"launch", "kernel", "base-klo-us", "cc-klo-us"},
	}
	series := func(cc bool) []time.Duration {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cuda.DefaultConfig(cc))
		eng.Spawn("micro", func(p *sim.Proc) {
			c := rt.Bind(p)
			c.Malloc("warm", 1<<20) // context init outside the series
			k0 := gpu.KernelSpec{Name: "K0", Fixed: 100 * time.Millisecond, CodeBytes: 256 << 10}
			k1 := gpu.KernelSpec{Name: "K1", Fixed: 100 * time.Millisecond, CodeBytes: 256 << 10}
			for i := 0; i < 100; i++ {
				c.Launch(k0, nil)
			}
			for i := 0; i < 100; i++ {
				c.Launch(k1, nil)
			}
			c.Sync()
		})
		eng.Run()
		var out []time.Duration
		for _, e := range rt.Tracer().OfKind(trace.KindLaunch) {
			out = append(out, e.Duration())
		}
		return out
	}
	base := series(false)
	cc := series(true)
	idx := []int{0, 1, 2, 9, 49, 99, 100, 101, 109, 149, 199}
	for _, i := range idx {
		kernel := "K0"
		if i >= 100 {
			kernel = "K1"
		}
		t.AddRow(i+1, kernel, us(base[i]), us(cc[i]))
	}
	t.Notes = append(t.Notes,
		"the first launch of each new kernel pays the module upload (Observation 7); CC multiplies that cost via encrypted transfer and hypercall-mediated load ioctls")
	return t
}
