// Package core implements the paper's GPU performance model (Section V):
// end-to-end application time P decomposed into
//
//	P = (1-alpha)*T_mem  +  Sum(KLO + LQT)  +  Sum (1-beta)*(KET + KQT)  +  T_other
//	      part A              part B                part C                  part D
//
// where alpha is the fraction of data movement hidden behind other work and
// beta the fraction of kernel execution hidden behind launch activity.
//
// Decompose extracts the model from a trace in one sweep over the sorted
// edges of its intervals. Each stretch between two consecutive edges is
// credited to one part by the priority B > C_exec > A > C_wait > D, so each
// part is credited only for timeline it exclusively covers and the visible
// parts plus idle reconstruct P exactly — which is also the package's
// central validation property.
//
// B is the launch calls plus the raw launch queuing gaps between them, and
// a gap counts only while no kernel, copy or D work runs in it, mirroring
// how the analyzer defines LQT; without that cleaning the gaps would
// swallow copies and kernels and overstate B. C is split: kernel execution
// ranks above A, a kernel's queue wait below it, because that wait is
// often caused by a same-stream copy and the time belongs to the copy.
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// category is what an interval of the trace holds, for the sweep.
type category uint8

const (
	catLaunch category = iota // a launch call (B)
	catHull                   // the launches' hull, raw LQT gaps included (B)
	catKernel                 // kernel execution (C)
	catCopy                   // a copy (A)
	catWait                   // a kernel's queue wait (C)
	catOther                  // alloc, free or sync (D)
	nCategories
)

// edge is one end of an interval, packed into an integer so the sweep
// sorts plain numbers: the time since the trace's earliest start, shifted
// left by edgeBits, then the category and a closing flag. Edges that tie in
// time are ordered by category and open before close, which changes no
// sum: the stretches between tied edges have length 0, and the open counts
// after the last of them do not depend on their order.
type edge int64

const (
	edgeBits = 4 // 3 bits of category, 1 closing flag
	// MaxSpan is the longest trace Decompose accepts: 2^59 ns, about 18
	// years, the most a packed edge time can hold.
	MaxSpan = time.Duration(1) << (63 - edgeBits)
)

// Every category must fit the 3 bits an edge gives it.
const _ = 1<<(edgeBits-1) - nCategories

func (e edge) at() time.Duration { return time.Duration(e >> edgeBits) }
func (e edge) cat() category     { return category(e>>1) & (1<<(edgeBits-1) - 1) }
func (e edge) closes() bool      { return e&1 != 0 }

// addSpan appends the edges of [start, end), its times rebased on base,
// the trace's earliest start; or nothing when the span is empty.
func addSpan(edges []edge, base sim.Time, cat category, start, end sim.Time) []edge {
	if end <= start {
		return edges
	}
	c := edge(cat) << 1
	return append(edges, edge(start-base)<<edgeBits|c, edge(end-base)<<edgeBits|c|1)
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

// Decompose fits the model to a recorded trace. It panics on a trace that
// spans MaxSpan or more, whose edge times it cannot pack.
func Decompose(tr *trace.Tracer) Model {
	m := Model{}
	if tr.Len() == 0 {
		return m
	}
	// Edge times are rebased on the earliest start. hi >= lo, so the
	// unsigned difference is the span even where the signed one would
	// overflow.
	lo, hi := tr.Bounds()
	if span := uint64(hi) - uint64(lo); span >= uint64(MaxSpan) {
		panic(fmt.Sprintf("core: trace spans %d ns, at or beyond the %d ns the model can decompose", span, int64(MaxSpan)))
	}

	// Each event adds at most one interval, and so does each queue wait,
	// which is one per kernel at most, plus the hull. The waits are the
	// ones the analyzer's KQT sums; each lies in [lo, hi], from a launch's
	// end to a kernel's later start.
	edges := make([]edge, 0, 2*(2*tr.Len()+1))
	met := tr.AnalyzeWaits(func(launchEnd, kernelStart sim.Time) {
		edges = addSpan(edges, lo, catWait, launchEnd, kernelStart)
	})
	m.KLO, m.LQT, m.KET, m.KQT = met.KLO, met.LQT, met.KET, met.KQT
	m.CopyH2D, m.CopyD2H, m.CopyD2D = met.CopyH2D, met.CopyD2H, met.CopyD2D
	m.Alloc, m.Free, m.Sync = met.AllocTime, met.FreeTime, met.SyncTime
	m.Launches, m.Kernels = met.Launches, met.Kernels
	m.Tmem = met.CopyH2D + met.CopyD2H + met.CopyD2D
	m.LaunchTerm = met.KLO + met.LQT
	m.KernelTerm = met.KET + met.KQT
	m.Tother = met.AllocTime + met.FreeTime + met.SyncTime

	// The launches' hull is every launch and every raw gap between
	// consecutive launches: sorted by start, each gap runs from one
	// launch's end to the next one's start, so launches and gaps together
	// cover exactly [first start, last end].
	hullStart, hullEnd := sim.Time(math.MaxInt64), sim.Time(math.MinInt64)
	for e := range tr.All() {
		switch e.Kind {
		case trace.KindLaunch:
			edges = addSpan(edges, lo, catLaunch, e.Start, e.End)
			hullStart, hullEnd = min(hullStart, e.Start), max(hullEnd, e.End)
		case trace.KindKernel:
			edges = addSpan(edges, lo, catKernel, e.Start, e.End)
		case trace.KindMemcpyH2D, trace.KindMemcpyD2H, trace.KindMemcpyD2D:
			edges = addSpan(edges, lo, catCopy, e.Start, e.End)
		case trace.KindAlloc, trace.KindFree, trace.KindSync:
			edges = addSpan(edges, lo, catOther, e.Start, e.End)
		}
	}
	edges = addSpan(edges, lo, catHull, hullStart, hullEnd)
	slices.Sort(edges)

	// Credit each stretch between consecutive edges by the priority
	// B > C_exec > A > C_wait > D.
	var open [nCategories]int
	for i := 1; i < len(edges); i++ {
		e := edges[i-1]
		if e.closes() {
			open[e.cat()]--
		} else {
			open[e.cat()]++
		}
		d := edges[i].at() - e.at()
		switch {
		case open[catLaunch] > 0 || open[catHull] > 0 && open[catKernel]+open[catCopy]+open[catOther] == 0:
			m.VisibleB += d
		case open[catKernel] > 0:
			m.VisibleC += d
		case open[catCopy] > 0:
			m.VisibleA += d
		case open[catWait] > 0:
			m.VisibleC += d
		case open[catOther] > 0:
			m.VisibleD += d
		}
	}

	m.Total = hi.Sub(lo)
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
