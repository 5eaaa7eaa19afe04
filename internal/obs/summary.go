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
	type agg struct {
		n     int
		busy  sim.Duration
		bytes int64
	}
	tracks := make([]agg, len(o.tracks))
	scopes := make([]agg, len(o.scopes))
	for _, sp := range o.spans {
		var a *agg
		if sp.track > 0 {
			a = &tracks[sp.track-1]
		} else {
			a = &scopes[-sp.track-1]
		}
		a.n++
		if start, end := o.log.Interval(sp.rec); end >= start {
			a.busy += end.Sub(start)
			a.bytes += sp.bytes
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "track\tspans\tbusy\tbytes\n")
	for i, name := range o.tracks {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%d\n", name, tracks[i].n, tracks[i].busy, tracks[i].bytes)
	}
	if len(o.scopes) > 0 {
		fmt.Fprintf(tw, "\nscope\tspans\tbusy\n")
		for i, name := range o.scopes {
			fmt.Fprintf(tw, "%s\t%d\t%v\n", name, scopes[i].n, scopes[i].busy)
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
