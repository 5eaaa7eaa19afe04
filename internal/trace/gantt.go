package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"hccsim/internal/sim"
)

// Gantt renders the trace as a Fig-1-style ASCII timeline: one lane per
// activity category, the run scaled to `width` columns. It is the textual
// equivalent of the paper's end-to-end overview (alloc / copy / launch /
// kernel / free lanes under CC-off vs CC-on).
func (t *Tracer) Gantt(w io.Writer, width int) error {
	if width < 20 {
		width = 20
	}
	if t.Len() == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	origin, end := t.Bounds()
	span := end.Sub(origin)
	if span <= 0 {
		span = time.Nanosecond
	}

	type lane struct {
		name  string
		glyph byte
		match func(Event) bool
	}
	lanes := []lane{
		{"alloc ", 'A', func(e Event) bool { return e.Kind == KindAlloc }},
		{"copy  ", '=', func(e Event) bool {
			return e.Kind == KindMemcpyH2D || e.Kind == KindMemcpyD2H || e.Kind == KindMemcpyD2D
		}},
		{"launch", 'L', func(e Event) bool { return e.Kind == KindLaunch }},
		{"kernel", '#', func(e Event) bool { return e.Kind == KindKernel }},
		{"fault ", '!', func(e Event) bool { return e.Kind == KindFaultBatch }},
		{"sync  ", 's', func(e Event) bool { return e.Kind == KindSync }},
		{"free  ", 'F', func(e Event) bool { return e.Kind == KindFree }},
	}

	col := func(ts sim.Time) int {
		c := int(float64(ts.Sub(origin)) / float64(span) * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}

	for _, ln := range lanes {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		used := false
		for e := range t.All() {
			if !ln.match(e) {
				continue
			}
			used = true
			from, to := col(e.Start), col(e.End)
			for i := from; i <= to; i++ {
				row[i] = ln.glyph
			}
		}
		if !used {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", ln.name, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s 0%s%v\n", strings.Repeat(" ", 7),
		strings.Repeat(" ", width-len(span.String())), span)
	return err
}

// Utilization summarizes how busy each activity category kept the timeline:
// the fraction of the run covered by at least one event of the category.
type Utilization struct {
	Copy, Launch, Kernel, Fault, Mgmt float64
}

// Utilize computes category utilizations over the trace span.
func (t *Tracer) Utilize() Utilization {
	if t.Len() == 0 {
		return Utilization{}
	}
	span := t.Span()
	if span <= 0 {
		return Utilization{}
	}
	cover := func(match func(Event) bool) float64 {
		type iv struct{ s, e sim.Time }
		var ivs []iv
		for e := range t.All() {
			if match(e) {
				ivs = append(ivs, iv{e.Start, e.End})
			}
		}
		if len(ivs) == 0 {
			return 0
		}
		// Merge and measure.
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.s, b.s) })
		var total time.Duration
		cur := ivs[0]
		for _, x := range ivs[1:] {
			if x.s <= cur.e {
				if x.e > cur.e {
					cur.e = x.e
				}
				continue
			}
			total += cur.e.Sub(cur.s)
			cur = x
		}
		total += cur.e.Sub(cur.s)
		return float64(total) / float64(span)
	}
	return Utilization{
		Copy: cover(func(e Event) bool {
			return e.Kind == KindMemcpyH2D || e.Kind == KindMemcpyD2H || e.Kind == KindMemcpyD2D
		}),
		Launch: cover(func(e Event) bool { return e.Kind == KindLaunch }),
		Kernel: cover(func(e Event) bool { return e.Kind == KindKernel }),
		Fault:  cover(func(e Event) bool { return e.Kind == KindFaultBatch }),
		Mgmt: cover(func(e Event) bool {
			return e.Kind == KindAlloc || e.Kind == KindFree || e.Kind == KindSync
		}),
	}
}
