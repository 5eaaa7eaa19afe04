// Package core implements the paper's GPU performance model (Section V):
// end-to-end application time P decomposed into
//
//	P = (1-alpha)*T_mem  +  Sum(KLO + LQT)  +  Sum (1-beta)*(KET + KQT)  +  T_other
//	      part A              part B                part C                  part D
//
// where alpha is the fraction of data movement hidden behind other work and
// beta the fraction of kernel execution hidden behind launch activity.
//
// Decompose extracts the model from a trace by projecting event intervals
// onto the timeline with the priority B > C > A > D: each category is
// credited only for timeline it exclusively covers, so the visible parts
// plus idle reconstruct P exactly — which is also the package's central
// validation property.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// span is a half-open interval [start, end) on the simulated timeline.
type span struct {
	s, e sim.Time
}

func (x span) dur() time.Duration { return x.e.Sub(x.s) }

// normalize sorts and merges overlapping spans.
func normalize(xs []span) []span {
	var out []span
	sort.Slice(xs, func(i, j int) bool { return xs[i].s < xs[j].s })
	for _, x := range xs {
		if x.e <= x.s {
			continue
		}
		if n := len(out); n > 0 && x.s <= out[n-1].e {
			if x.e > out[n-1].e {
				out[n-1].e = x.e
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// measure returns the total length of a normalized span set.
func measure(xs []span) time.Duration {
	var d time.Duration
	for _, x := range xs {
		d += x.dur()
	}
	return d
}

// subtract returns the parts of xs not covered by the normalized set ys.
func subtract(xs, ys []span) []span {
	var out []span
	for _, x := range xs {
		cur := x
		for _, y := range ys {
			if y.e <= cur.s || y.s >= cur.e {
				continue
			}
			if y.s > cur.s {
				out = append(out, span{cur.s, y.s})
			}
			if y.e >= cur.e {
				cur.s = cur.e
				break
			}
			cur.s = y.e
		}
		if cur.e > cur.s {
			out = append(out, cur)
		}
	}
	return normalize(out)
}

// seqSpan is a launch or kernel interval with its correlation id.
type seqSpan struct {
	span
	seq int
}

func bySeq(a, b seqSpan) int { return cmp.Compare(a.seq, b.seq) }

// queueGaps returns, for each kernel in order, the wait between its launch
// returning and the kernel starting, when positive. A kernel matches the
// launch with its correlation id, found by binary search over the launches
// stably sorted by id, so among launches that share an id the last one in
// record order is the match; a kernel with no launch has no gap. launches
// is left as it was.
func queueGaps(launches, kernels []seqSpan) []span {
	sorted := slices.Clone(launches)
	slices.SortStableFunc(sorted, bySeq)
	var gaps []span
	for _, k := range kernels {
		i, _ := slices.BinarySearchFunc(sorted, seqSpan{seq: k.seq + 1}, bySeq)
		if i > 0 && sorted[i-1].seq == k.seq && k.s > sorted[i-1].e {
			gaps = append(gaps, span{sorted[i-1].e, k.s})
		}
	}
	return gaps
}

// Model is the fitted Section V decomposition of one application run.
type Model struct {
	// Raw category totals (sums of durations, before overlap accounting).
	Tmem       time.Duration // A: all H2D/D2H/D2D copy time
	LaunchTerm time.Duration // B: Sum(KLO + LQT)
	KernelTerm time.Duration // C: Sum(KET + KQT)
	Tother     time.Duration // D: alloc + free + sync

	// Component breakdown.
	KLO, LQT, KET, KQT        time.Duration
	CopyH2D, CopyD2H, CopyD2D time.Duration
	Alloc, Free, Sync         time.Duration

	// Overlap coefficients fitted from the timeline projection.
	Alpha float64 // fraction of A hidden behind B or C
	Beta  float64 // fraction of C hidden behind B

	// Visible (exclusively-credited) shares and the reconstruction.
	VisibleB, VisibleC, VisibleA, VisibleD time.Duration
	Idle                                   time.Duration
	Total                                  time.Duration // measured span P

	Launches, Kernels int
}

// Decompose fits the model to a recorded trace.
func Decompose(tr *trace.Tracer) Model {
	m := Model{}
	if tr.Len() == 0 {
		return m
	}
	met := tr.Analyze()
	m.KLO, m.LQT, m.KET, m.KQT = met.KLO, met.LQT, met.KET, met.KQT
	m.CopyH2D, m.CopyD2H, m.CopyD2D = met.CopyH2D, met.CopyD2H, met.CopyD2D
	m.Alloc, m.Free, m.Sync = met.AllocTime, met.FreeTime, met.SyncTime
	m.Launches, m.Kernels = met.Launches, met.Kernels
	m.Tmem = met.CopyH2D + met.CopyD2H + met.CopyD2D
	m.LaunchTerm = met.KLO + met.LQT
	m.KernelTerm = met.KET + met.KQT
	m.Tother = met.AllocTime + met.FreeTime + met.SyncTime

	// Build category span sets. C is split into execution (kernel events)
	// and queuing (KQT gaps): a kernel's queue wait is often caused by a
	// same-stream copy, and that time must be attributed to the copy, not
	// double-counted as hidden kernel time.
	var bSpans, cExec, aSpans, dSpans []span
	launches := make([]seqSpan, 0, met.Launches)
	kernels := make([]seqSpan, 0, met.Kernels)
	for e := range tr.All() {
		x := span{e.Start, e.End}
		switch e.Kind {
		case trace.KindLaunch:
			bSpans = append(bSpans, x)
			launches = append(launches, seqSpan{x, e.Seq})
		case trace.KindKernel:
			cExec = append(cExec, x)
			kernels = append(kernels, seqSpan{x, e.Seq})
		case trace.KindMemcpyH2D, trace.KindMemcpyD2H, trace.KindMemcpyD2D:
			aSpans = append(aSpans, x)
		case trace.KindAlloc, trace.KindFree, trace.KindSync:
			dSpans = append(dSpans, x)
		}
	}
	cGaps := queueGaps(launches, kernels)
	// LQT gaps join B — but only the parts not spent in other traced work,
	// mirroring how the analyzer defines LQT. Without this cleaning, the
	// gap spans would swallow copies and kernels and overstate B.
	sort.Slice(launches, func(i, j int) bool { return launches[i].s < launches[j].s })
	var rawGaps []span
	for i := 1; i < len(launches); i++ {
		if launches[i].s > launches[i-1].e {
			rawGaps = append(rawGaps, span{launches[i-1].e, launches[i].s})
		}
	}
	otherWork := normalize(append(append(append([]span{}, cExec...), aSpans...), dSpans...))
	bSpans = append(bSpans, subtract(normalize(rawGaps), otherWork)...)

	// Priority projection B > C_exec > A > C_gap > D.
	bSpans = normalize(bSpans)
	cExec = normalize(cExec)
	cGaps = normalize(cGaps)
	aSpans = normalize(aSpans)
	dSpans = normalize(dSpans)

	cExecVisible := subtract(cExec, bSpans)
	bc := normalize(append(append([]span{}, bSpans...), cExec...))
	aVisible := subtract(aSpans, bc)
	bca := normalize(append(append([]span{}, bc...), aSpans...))
	cGapVisible := subtract(cGaps, bca)
	bcac := normalize(append(append([]span{}, bca...), cGaps...))
	dVisible := subtract(dSpans, bcac)

	m.VisibleB = measure(bSpans)
	m.VisibleC = measure(cExecVisible) + measure(cGapVisible)
	m.VisibleA = measure(aVisible)
	m.VisibleD = measure(dVisible)

	m.Total = tr.Span()
	covered := m.VisibleB + m.VisibleC + m.VisibleA + m.VisibleD
	if m.Total > covered {
		m.Idle = m.Total - covered
	}

	if m.Tmem > 0 {
		m.Alpha = 1 - float64(m.VisibleA)/float64(m.Tmem)
		m.Alpha = clamp01(m.Alpha)
	}
	if m.KernelTerm > 0 {
		m.Beta = 1 - float64(m.VisibleC)/float64(m.KernelTerm)
		m.Beta = clamp01(m.Beta)
	}
	return m
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Predict reconstructs end-to-end time from the fitted model:
// (1-alpha)A + B + (1-beta)C + D_visible + idle. By construction this
// matches Total when the category sums equal their span measures (i.e. no
// self-overlap within a category).
func (m Model) Predict() time.Duration {
	a := time.Duration((1 - m.Alpha) * float64(m.Tmem))
	c := time.Duration((1 - m.Beta) * float64(m.KernelTerm))
	return a + m.VisibleB + c + m.VisibleD + m.Idle
}

// KLR is the Kernel-to-Launch Ratio KET/(KLO+LQT) of Observation 6: high
// KLR applications hide launch overhead behind execution; low KLR
// applications are launch-bound and feel CC's launch tax directly.
func (m Model) KLR() float64 {
	if m.LaunchTerm == 0 {
		return 0
	}
	return float64(m.KET) / float64(m.LaunchTerm)
}

// LaunchBound reports whether the application's bottom line is dominated by
// part B (KLR below 1).
func (m Model) LaunchBound() bool { return m.KLR() < 1 && m.LaunchTerm > 0 }

// Breakdown returns the Fig.-1-style share of each part in the visible
// timeline (fractions of Total).
func (m Model) Breakdown() (a, b, c, d, idle float64) {
	if m.Total == 0 {
		return 0, 0, 0, 0, 0
	}
	tot := float64(m.Total)
	return float64(m.VisibleA) / tot, float64(m.VisibleB) / tot,
		float64(m.VisibleC) / tot, float64(m.VisibleD) / tot, float64(m.Idle) / tot
}

// String renders a compact report.
func (m Model) String() string {
	var sb strings.Builder
	a, b, c, d, idle := m.Breakdown()
	fmt.Fprintf(&sb, "P=%v  A(Tmem)=%v(α=%.2f)  B(KLO+LQT)=%v  C(KET+KQT)=%v(β=%.2f)  D=%v\n",
		m.Total, m.Tmem, m.Alpha, m.LaunchTerm, m.KernelTerm, m.Beta, m.Tother)
	fmt.Fprintf(&sb, "visible: A %.1f%%  B %.1f%%  C %.1f%%  D %.1f%%  idle %.1f%%  KLR=%.2f",
		100*a, 100*b, 100*c, 100*d, 100*idle, m.KLR())
	return sb.String()
}

// Ratio compares a CC run against a base run component-wise — the
// normalized bars of Figs. 5-7 and 9.
type Ratio struct {
	Tmem, KLO, LQT, KQT, KET, Alloc, Free, Total float64
}

// Compare returns CC/base ratios (0 where the base component is zero).
func Compare(base, cc Model) Ratio {
	div := func(a, b time.Duration) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return Ratio{
		Tmem:  div(cc.Tmem, base.Tmem),
		KLO:   div(cc.KLO, base.KLO),
		LQT:   div(cc.LQT, base.LQT),
		KQT:   div(cc.KQT, base.KQT),
		KET:   div(cc.KET, base.KET),
		Alloc: div(cc.Alloc, base.Alloc),
		Free:  div(cc.Free, base.Free),
		Total: div(cc.Total, base.Total),
	}
}
