package batch

import (
	"fmt"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/core"
	"hccsim/internal/tab"
	"hccsim/internal/units"
)

// SweepTable merges per-job results into one table: a row per job in
// submission order, with the Section V model components where the job
// produces a Model and the domain throughput for CNN/LLM jobs.
func SweepTable(results []Result) tab.Table {
	t := tab.Table{
		ID:    "sweep",
		Title: "batch sweep results",
		Columns: []string{"job", "kind", "cached", "sim-ms",
			"copy-ms", "launch-ms", "kernel-ms", "other-ms", "alpha", "beta", "klr", "throughput"},
	}
	var failed int
	for _, r := range results {
		if r.Err != nil {
			failed++
			t.AddRow(r.Job.Label(), string(r.Job.Kind), "-", "ERR", "-", "-", "-", "-", "-", "-", "-", "-")
			t.Notes = append(t.Notes, fmt.Sprintf("%s failed: %v", r.Job.Label(), r.Err))
			continue
		}
		cells := []interface{}{r.Job.Label(), string(r.Job.Kind), r.Cached, msCell(r.Payload.Elapsed)}
		switch {
		case r.Payload.Model != nil:
			m := r.Payload.Model
			cells = append(cells, msCell(m.Tmem), msCell(m.LaunchTerm), msCell(m.KernelTerm),
				msCell(m.Tother), m.Alpha, m.Beta, m.KLR(), "-")
		case r.Payload.CNN != nil:
			cells = append(cells, "-", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%.0f img/s", r.Payload.CNN.Throughput))
		case r.Payload.LLM != nil:
			cells = append(cells, "-", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%.0f tok/s", r.Payload.LLM.TokensPerSec))
		case r.Payload.Serve != nil:
			s := r.Payload.Serve
			cells = append(cells, "-", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%.0f tok/s slo=%.2f", s.TokensPerSec, s.SLOAttainment))
		case r.Payload.Table != nil:
			cells = append(cells, "-", "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%d rows", len(r.Payload.Table.Rows)))
		default:
			cells = append(cells, "-", "-", "-", "-", "-", "-", "-", "-")
		}
		t.AddRow(cells...)
	}
	hit := 0
	for _, r := range results {
		if r.Cached {
			hit++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d jobs, %d cached, %d failed", len(results), hit, failed))
	return t
}

// RatioTable pairs results that differ only in protection mode and reports
// component-wise protected/base ratios — the sweep-level analogue of the
// normalized bars of Figs. 5-7: one row per protected mode, each against the
// point's unprotected sibling. Unpaired or model-less results are skipped.
func RatioTable(results []Result) tab.Table {
	t := tab.Table{
		ID:      "sweep-ratio",
		Title:   "protected/off component ratios per sweep point",
		Columns: []string{"job", "tmem", "klo", "lqt", "kqt", "ket", "alloc", "free", "total"},
	}
	type entry struct {
		label string
		model *core.Model
	}
	type group struct {
		base *core.Model
		prot []entry
	}
	groups := make(map[string]*group)
	var order []string
	for i := range results {
		r := &results[i]
		if r.Err != nil || r.Payload.Model == nil {
			continue
		}
		mode := jobMode(r.Job)
		key := r.Job.label(false)
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		if !mode.CC() {
			g.base = r.Payload.Model
			continue
		}
		label := key + "/" + mode.Name()
		replaced := false
		for e := range g.prot {
			if g.prot[e].label == label {
				g.prot[e].model = r.Payload.Model
				replaced = true
				break
			}
		}
		if !replaced {
			g.prot = append(g.prot, entry{label: label, model: r.Payload.Model})
		}
	}
	for _, key := range order {
		g := groups[key]
		if g.base == nil {
			continue
		}
		for _, e := range g.prot {
			ratio := core.Compare(*g.base, *e.model)
			t.AddRow(e.label, ratio.Tmem, ratio.KLO, ratio.LQT, ratio.KQT, ratio.KET,
				ratio.Alloc, ratio.Free, ratio.Total)
		}
	}
	return t
}

// jobMode resolves a completed job's protection mode; the empty name is
// off (a job whose mode does not resolve never completes).
func jobMode(j Job) ccmode.Mode {
	if m, err := ccmode.ByName(j.Mode); err == nil {
		return m
	}
	return ccmode.Off{}
}

// msCell renders a duration in milliseconds.
//
//hcclint:unit MS
func msCell(d time.Duration) float64 { return units.ToMS(d) }
