package obs

import (
	"io"
	"strconv"
	"time"

	"hccsim/internal/sim"
	"hccsim/internal/units"
)

// ChromeTrace renders the recorded spans as Chrome trace-event JSON, the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
//
// The export is deterministic byte-for-byte: timestamps are simulated
// microseconds (never wall time), tracks appear in registration order with
// explicit sort indices, sync spans appear in begin order (the engine
// clock is monotonic, so that is chronological), and async scopes follow
// in first-use order. One "X" (complete) event per span carries its
// duration and attrs, and the viewer nests the spans of one track by time
// containment; request-lifecycle phases export as "b"/"e" async
// pairs keyed by (scope, request id) so overlapping instances render as
// separate rows of one group. Nsight events with no track are not
// exported. A nil observer renders the empty export.
func (o *Observer) ChromeTrace() []byte {
	if o == nil {
		o = &Observer{}
	}
	var b []byte
	b = append(b, "{\"traceEvents\":[\n"...)
	b = append(b, `{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"hccsim"}}`...)
	for i, t := range o.tracks {
		tid := i + 1
		b = append(b, ",\n"...)
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"name":"thread_name","args":{"name":`...)
		b = strconv.AppendQuote(b, t)
		b = append(b, "}}"...)
		b = append(b, ",\n"...)
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"name":"thread_sort_index","args":{"sort_index":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, "}}"...)
	}
	// Async scopes get one virtual track each, after the real tracks.
	for i, scope := range o.scopes {
		b = append(b, ",\n"...)
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(len(o.tracks)+1+i), 10)
		b = append(b, `,"name":"thread_name","args":{"name":`...)
		b = strconv.AppendQuote(b, scope)
		b = append(b, "}}"...)
	}
	for _, sp := range o.spans {
		if sp.track < 0 {
			continue
		}
		start, end := o.interval(sp)
		b = append(b, ",\n"...)
		b = append(b, `{"ph":"X","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(sp.track), 10)
		b = append(b, `,"ts":`...)
		b = appendUS(b, start)
		b = append(b, `,"dur":`...)
		b = appendUS(b, end-start)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, sp.name)
		b = appendArgs(b, sp)
		b = append(b, "}"...)
	}
	for _, sp := range o.spans {
		if scope := int(-sp.track - 1); scope >= 0 {
			start, end := o.interval(sp)
			b = appendAsync(b, sp, o.scopes[scope], "b", start, len(o.tracks)+1+scope)
			b = appendAsync(b, sp, o.scopes[scope], "e", end, len(o.tracks)+1+scope)
		}
	}
	b = append(b, "\n],\n\"displayTimeUnit\":\"ms\",\n\"metrics\":[\n"...)
	for i, m := range o.reg.points {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, m.Name)
		b = append(b, `,"kind":"gauge","unit":`...)
		b = strconv.AppendQuote(b, m.Unit)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, m.Value, 'g', -1, 64)
		b = append(b, "}"...)
	}
	b = append(b, "\n]}\n"...)
	return b
}

// WriteChromeTrace writes the Chrome trace-event export to w.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	_, err := w.Write(o.ChromeTrace())
	return err
}

// appendUS appends a simulated time or duration (nanoseconds) as
// microseconds with fixed three-decimal precision, the unit the trace
// format expects.
func appendUS[T ~int64](b []byte, t T) []byte {
	return strconv.AppendFloat(b, units.ToUS(time.Duration(t)), 'f', 3, 64)
}

// interval returns the span's start and end, its end being its start
// while it is still open: an open span exports with zero duration.
func (o *Observer) interval(sp span) (start, end sim.Time) {
	start, end = o.log.Interval(sp.rec)
	return start, max(end, start)
}

// appendArgs appends the span's attrs as a fixed-order args object.
func appendArgs(b []byte, sp span) []byte {
	if sp.bytes == 0 && sp.n == 0 && sp.req < 0 && sp.mode == "" {
		return b
	}
	b = append(b, `,"args":{`...)
	sep := false
	if sp.bytes != 0 {
		b = append(b, `"bytes":`...)
		b = strconv.AppendInt(b, sp.bytes, 10)
		sep = true
	}
	if sp.n != 0 {
		if sep {
			b = append(b, ',')
		}
		b = append(b, `"n":`...)
		b = strconv.AppendInt(b, sp.n, 10)
		sep = true
	}
	if sp.req >= 0 {
		if sep {
			b = append(b, ',')
		}
		b = append(b, `"req":`...)
		b = strconv.AppendInt(b, sp.req, 10)
		sep = true
	}
	if sp.mode != "" {
		if sep {
			b = append(b, ',')
		}
		b = append(b, `"mode":`...)
		b = strconv.AppendQuote(b, sp.mode)
	}
	b = append(b, "}"...)
	return b
}

// appendAsync appends one async begin or end event of span a in scope.
func appendAsync(b []byte, a span, scope, ph string, at sim.Time, tid int) []byte {
	b = append(b, ",\n"...)
	b = append(b, `{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"cat":`...)
	b = strconv.AppendQuote(b, scope)
	b = append(b, `,"id":`...)
	b = strconv.AppendQuote(b, "0x"+strconv.FormatInt(a.req, 16))
	b = append(b, `,"ts":`...)
	b = appendUS(b, at)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, a.name)
	b = append(b, "}"...)
	return b
}
