package obs

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"hccsim/internal/sim"
)

// WriteSummary writes the compact per-layer text summary: one line per
// track (span count, busy time and bytes moved of its closed spans), the
// async scopes, and every metric in first-set order. Like the Chrome
// export, the output is deterministic byte-for-byte. A nil observer writes
// the empty summary: the track header alone.
func (o *Observer) WriteSummary(w io.Writer) error {
	if o == nil {
		o = &Observer{}
	}
	type trackAgg struct {
		n     int
		busy  sim.Duration
		bytes int64
	}
	per := make([]trackAgg, len(o.tracks))
	for _, sp := range o.spans {
		a := &per[sp.track]
		a.n++
		if sp.end >= sp.start {
			a.busy += sim.Duration(sp.end - sp.start)
			a.bytes += sp.bytes
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "track\tspans\tbusy\tbytes\n")
	for i, name := range o.tracks {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%d\n", name, per[i].n, per[i].busy, per[i].bytes)
	}
	if len(o.asyncs) > 0 {
		fmt.Fprintf(tw, "\nscope\tspans\tbusy\n")
		type scopeAgg struct {
			name  string
			n     int
			total sim.Duration
		}
		idx := make(map[string]int)
		var aggs []scopeAgg
		for _, a := range o.asyncs {
			i, ok := idx[a.scope]
			if !ok {
				i = len(aggs)
				idx[a.scope] = i
				aggs = append(aggs, scopeAgg{name: a.scope})
			}
			aggs[i].n++
			if a.end >= a.start {
				aggs[i].total += sim.Duration(a.end - a.start)
			}
		}
		for _, s := range aggs {
			fmt.Fprintf(tw, "%s\t%d\t%v\n", s.name, s.n, s.total)
		}
	}
	if len(o.reg.points) > 0 {
		fmt.Fprintf(tw, "\nmetric\tkind\tvalue\tunit\n")
		for _, m := range o.reg.points {
			fmt.Fprintf(tw, "%s\tgauge\t%s\t%s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
		}
	}
	return tw.Flush()
}
