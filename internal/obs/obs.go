// Package obs is the simulator's observability layer: a flat log of spans
// on named tracks stamped with simulated time, an ordered list of
// end-of-run metric values, and deterministic exporters (Chrome
// trace-event JSON for Perfetto, and a compact per-layer text summary).
//
// The layer is off by default. Every recording entry point is reached
// through a value handle (Track, Span, AsyncSpan) whose embedded *Observer
// is nil when observability is disabled, so the disabled path is a single
// nil check and allocates nothing — span state rides inside the substrate's
// existing pooled continuation frames (sim.FramePool), never on the heap.
//
// Spans are opened and closed at sim.Time boundaries, so an exported trace
// shows simulated time, not wall time: byte-identical run over run, which
// is what lets a golden trace test diff the export byte-for-byte. The log
// records no nesting: spans on one track may overlap freely, and Perfetto
// nests them by time containment.
package obs

import (
	"hccsim/internal/sim"
)

// Observer collects spans and metrics for one simulation run. Create one
// with New, attach it to an engine with Bind, and hand it to the substrate
// (cuda.Runtime.SetObserver or serve.Config.Observer) before the run
// starts. A nil *Observer is valid everywhere and records nothing.
type Observer struct {
	eng    *sim.Engine
	tracks []string
	byName map[string]int32
	spans  []span
	asyncs []asyncSpan
	reg    Registry
}

// span is one recorded interval on a track.
type span struct {
	name  string
	track int32
	start sim.Time
	end   sim.Time // -1 while open
	bytes int64    // payload size, 0 = unset
	n     int64    // generic count (tokens, batch size), 0 = unset
	req   int64    // request id, -1 = unset
	mode  string   // protection mode, "" = unset
}

// asyncSpan is one interval in an overlapping scope — per-request serving
// lifecycle phases that cannot share a single timeline. Exported as
// Chrome async ("b"/"e") events keyed by (scope, id).
type asyncSpan struct {
	scope string
	name  string
	id    int64
	start sim.Time
	end   sim.Time // -1 while open
}

// New returns an empty observer. Bind it to an engine before any span is
// opened; until then it only serves registration (Track, Metrics).
func New() *Observer {
	return &Observer{byName: make(map[string]int32)}
}

// Bind attaches the engine whose clock stamps span boundaries. The layer
// that owns the engine calls this during wiring (System.Observe, serve's
// scheduler), so callers building an Observer for a facade run never need
// to see the engine.
func (o *Observer) Bind(eng *sim.Engine) {
	if o == nil {
		return
	}
	o.eng = eng
}

// Metrics returns the observer's end-of-run metrics. Nil-safe: a nil
// observer returns a nil registry, which ignores every Set.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return &o.reg
}

// Track is a named timeline handle. The zero Track (from a nil Observer)
// is valid and records nothing, so layers hold Track values unconditionally
// and pay one nil check per operation when observability is off.
type Track struct {
	o  *Observer
	id int32
}

// Track returns the timeline with the given name, creating it on first
// use. Creation order is the export order, so wiring code registers tracks
// deterministically. Nil-safe.
func (o *Observer) Track(name string) Track {
	if o == nil {
		return Track{}
	}
	if id, ok := o.byName[name]; ok {
		return Track{o: o, id: id}
	}
	id := int32(len(o.tracks))
	o.tracks = append(o.tracks, name)
	o.byName[name] = id
	return Track{o: o, id: id}
}

// Span is a handle to one open interval. The zero Span is valid and
// records nothing.
type Span struct {
	o   *Observer
	idx int32
}

// Begin opens a span on the track at the current simulated time. Close it
// with End; attach attributes with Bytes/Count/Request/Mode.
func (t Track) Begin(name string) Span {
	if t.o == nil {
		return Span{}
	}
	o := t.o
	o.spans = append(o.spans, span{name: name, track: t.id, start: o.eng.Now(), end: -1, req: -1})
	return Span{o: o, idx: int32(len(o.spans) - 1)}
}

// Bytes attaches the payload size.
func (sp Span) Bytes(n int64) Span {
	if sp.o != nil {
		sp.o.spans[sp.idx].bytes = n
	}
	return sp
}

// Count attaches a generic count (tokens, batch size, pages).
func (sp Span) Count(n int64) Span {
	if sp.o != nil {
		sp.o.spans[sp.idx].n = n
	}
	return sp
}

// Request attaches a serving request id.
func (sp Span) Request(id int64) Span {
	if sp.o != nil {
		sp.o.spans[sp.idx].req = id
	}
	return sp
}

// Mode attaches the protection mode name.
func (sp Span) Mode(name string) Span {
	if sp.o != nil {
		sp.o.spans[sp.idx].mode = name
	}
	return sp
}

// End closes the span at the current simulated time. Ending the zero Span
// is a no-op, so continuation chains end their frame's span unconditionally.
func (sp Span) End() {
	if sp.o != nil {
		sp.o.spans[sp.idx].end = sp.o.eng.Now()
	}
}

// AsyncSpan is a handle to one open async interval.
type AsyncSpan struct {
	o   *Observer
	idx int32
}

// BeginAsync opens an interval in an overlapping scope — request lifecycle
// phases whose instances interleave (many requests queued at once). The id
// groups intervals of one logical flow. Nil-safe.
func (o *Observer) BeginAsync(scope string, id int64, name string) AsyncSpan {
	if o == nil {
		return AsyncSpan{}
	}
	idx := int32(len(o.asyncs))
	o.asyncs = append(o.asyncs, asyncSpan{
		scope: scope, name: name, id: id, start: o.eng.Now(), end: -1,
	})
	return AsyncSpan{o: o, idx: idx}
}

// End closes the async interval at the current simulated time. Nil-safe.
func (sp AsyncSpan) End() {
	if sp.o == nil {
		return
	}
	sp.o.asyncs[sp.idx].end = sp.o.eng.Now()
}

// Spans reports how many spans have been recorded (open or closed).
func (o *Observer) Spans() int {
	if o == nil {
		return 0
	}
	return len(o.spans)
}

// Open counts the spans and async spans begun but not yet ended. A drained
// run ends everything it begins, so Open is 0 after every complete run.
func (o *Observer) Open() int {
	if o == nil {
		return 0
	}
	n := 0
	for _, sp := range o.spans {
		if sp.end < 0 {
			n++
		}
	}
	for _, a := range o.asyncs {
		if a.end < 0 {
			n++
		}
	}
	return n
}
