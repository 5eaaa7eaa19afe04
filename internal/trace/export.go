package trace

import (
	"encoding/json"
	"io"
)

// jsonEvent is the export schema: stable field names, nanosecond integers,
// compatible with external plotting of Fig-10-style scatter panels.
type jsonEvent struct {
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Stream  int    `json:"stream"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Managed bool   `json:"managed,omitempty"`
	Seq     int    `json:"seq"`
}

// jsonReport is the top-level export document.
type jsonReport struct {
	SpanNS  int64       `json:"span_ns"`
	Events  []jsonEvent `json:"events"`
	Summary jsonSummary `json:"summary"`
}

type jsonSummary struct {
	Launches int   `json:"launches"`
	Kernels  int   `json:"kernels"`
	KLONs    int64 `json:"klo_ns"`
	LQTNs    int64 `json:"lqt_ns"`
	KQTNs    int64 `json:"kqt_ns"`
	KETNs    int64 `json:"ket_ns"`
	CopyH2D  int64 `json:"copy_h2d_ns"`
	CopyD2H  int64 `json:"copy_d2h_ns"`
	CopyD2D  int64 `json:"copy_d2d_ns"`
	AllocNs  int64 `json:"alloc_ns"`
	FreeNs   int64 `json:"free_ns"`
}

// WriteJSON exports the trace and its analysis as a single JSON document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	m := t.Analyze()
	rep := jsonReport{
		SpanNS: int64(t.Span()),
		Events: make([]jsonEvent, 0, t.Len()),
		Summary: jsonSummary{
			Launches: m.Launches, Kernels: m.Kernels,
			KLONs: int64(m.KLO), LQTNs: int64(m.LQT),
			KQTNs: int64(m.KQT), KETNs: int64(m.KET),
			CopyH2D: int64(m.CopyH2D), CopyD2H: int64(m.CopyD2H), CopyD2D: int64(m.CopyD2D),
			AllocNs: int64(m.AllocTime), FreeNs: int64(m.FreeTime),
		},
	}
	for e := range t.All() {
		rep.Events = append(rep.Events, jsonEvent{
			Kind: e.Kind.String(), Name: e.Name, Stream: e.Stream,
			StartNS: int64(e.Start), EndNS: int64(e.End),
			Bytes: e.Bytes, Managed: e.Managed, Seq: e.Seq,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
