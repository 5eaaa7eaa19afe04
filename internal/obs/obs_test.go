package obs

import (
	"bytes"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

func newBound(t *testing.T) (*Observer, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	o := New()
	o.Bind(eng)
	return o, eng
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	tr := o.Track("anything")
	sp := tr.Begin("op").Bytes(4096).Mode("off").Request(1).Count(2)
	sp.End()
	asp := o.BeginAsync("request", 7, "queued")
	asp.End()
	o.Metrics().Set("x", "events", 3)
	if o.Spans() != 0 || o.Open() != 0 {
		t.Fatalf("nil observer recorded something")
	}
	empty := New()
	if got, want := string(o.ChromeTrace()), string(empty.ChromeTrace()); got != want {
		t.Fatalf("nil ChromeTrace = %q, want the empty export %q", got, want)
	}
	var chrome, summary, emptySummary bytes.Buffer
	if err := o.WriteChromeTrace(&chrome); err != nil || chrome.String() != string(empty.ChromeTrace()) {
		t.Fatalf("nil WriteChromeTrace wrote %q (err %v), want the empty export", chrome.String(), err)
	}
	if err := empty.WriteSummary(&emptySummary); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteSummary(&summary); err != nil || summary.String() != emptySummary.String() {
		t.Fatalf("nil WriteSummary wrote %q (err %v), want the empty summary %q", summary.String(), err, emptySummary.String())
	}
}

func TestDisabledPathAllocatesNothing(t *testing.T) {
	var o *Observer
	tr := o.Track("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("op").Bytes(1 << 20)
		sp.End()
		o.BeginAsync("request", 1, "queued").End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %v per op, want 0", allocs)
	}
}

// TestOverlappingSpansOnOneTrack records spans on one track that overlap
// without nesting and end out of order, plus one left open: each keeps its
// own interval, Open counts what has not ended, and the summary sums the
// closed spans only.
func TestOverlappingSpansOnOneTrack(t *testing.T) {
	o, eng := newBound(t)
	tr := o.Track("layer")
	var midOpen int
	eng.Spawn("t", func(p *sim.Proc) {
		a := tr.Begin("a").Bytes(100)
		p.Sleep(10)
		b := tr.Begin("b").Bytes(20)
		p.Sleep(5)
		midOpen = o.Open()
		a.End()
		p.Sleep(10)
		b.End()
		tr.Begin("left-open").Bytes(7)
	})
	eng.Run()
	if midOpen != 2 {
		t.Errorf("Open with a and b running = %d, want 2", midOpen)
	}
	if got := o.Open(); got != 1 {
		t.Errorf("Open after the run = %d, want 1 (left-open)", got)
	}
	want := []struct{ start, end sim.Time }{{0, 15}, {10, 25}, {25, -1}}
	for i, w := range want {
		sp := o.spans[i]
		if start, end := o.log.Interval(sp.rec); start != w.start || end != w.end {
			t.Errorf("span %s = [%d,%d], want [%d,%d]", sp.name, start, end, w.start, w.end)
		}
	}
	var sum bytes.Buffer
	if err := o.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	// busy 15+15ns and bytes 100+20: the open span counts but adds neither.
	if !regexp.MustCompile(`(?m)^layer +3 +30ns +120$`).MatchString(sum.String()) {
		t.Errorf("summary does not total the closed spans:\n%s", sum.String())
	}
	out := string(o.ChromeTrace())
	for _, w := range []string{
		`"ts":0.000,"dur":0.015,"name":"a"`,
		`"ts":0.010,"dur":0.015,"name":"b"`,
		`"ts":0.025,"dur":0.000,"name":"left-open"`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("trace missing %q\n%s", w, out)
		}
	}
}

func TestTrackRegistrationIsStable(t *testing.T) {
	o, _ := newBound(t)
	a := o.Track("alpha")
	b := o.Track("beta")
	a2 := o.Track("alpha")
	if a.id != a2.id {
		t.Fatalf("re-registering a track changed its id: %d vs %d", a.id, a2.id)
	}
	if a.id == b.id {
		t.Fatalf("distinct tracks share an id")
	}
	if len(o.tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(o.tracks))
	}
}

// TestRegistryDupName: setting a name again overwrites its value, and a
// unit conflict panics (the documented contract of Set).
func TestRegistryDupName(t *testing.T) {
	var r Registry
	r.Set("layer.ops", "events", 2)
	r.Set("layer.ops", "events", 5)
	if len(r.points) != 1 || r.points[0].Value != 5 {
		t.Fatalf("overwrite kept %+v, want one point of value 5", r.points)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "layer.ops") || !strings.Contains(msg, "events") {
				t.Errorf("unit conflict panic = %q, want it to name the metric and its unit", msg)
			}
		}()
		r.Set("layer.ops", "bytes", 1)
	}()
	if len(r.points) != 1 || r.points[0].Unit != "events" {
		t.Errorf("unit conflict changed the registry: %+v", r.points)
	}
}

// TestRegistryOrderAndKinds: metrics export in first-set order, an
// overwrite keeps its place, and every metric exports as a gauge.
func TestRegistryOrderAndKinds(t *testing.T) {
	o := New()
	r := o.Metrics()
	r.Set("b.second", "events", 1)
	r.Set("a.third", "ratio", 0.5)
	r.Set("c.first", "ns", 10)
	r.Set("b.second", "events", 2)
	var got []MetricPoint
	r.Each(func(m MetricPoint) { got = append(got, m) })
	want := []MetricPoint{{"b.second", "events", 2}, {"a.third", "ratio", 0.5}, {"c.first", "ns", 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Each = %+v, want %+v", got, want)
	}
	if out := string(o.ChromeTrace()); !strings.Contains(out,
		`{"name":"b.second","kind":"gauge","unit":"events","value":2},
{"name":"a.third","kind":"gauge","unit":"ratio","value":0.5},
{"name":"c.first","kind":"gauge","unit":"ns","value":10}`) {
		t.Errorf("chrome metrics out of order or not gauges:\n%s", out)
	}
	var sum bytes.Buffer
	if err := o.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^a\.third +gauge +0\.5 +ratio$`).MatchString(sum.String()) {
		t.Errorf("summary metric line wrong:\n%s", sum.String())
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	r.Set("x", "events", 5)
	r.Set("x", "bytes", 5)
	r.Each(func(MetricPoint) { t.Error("nil registry visited a metric") })
}

func TestChromeTraceShape(t *testing.T) {
	o, eng := newBound(t)
	tr := o.Track("pcie-h2d")
	eng.Spawn("t", func(p *sim.Proc) {
		q := o.BeginAsync("request", 3, "queued")
		sp := tr.Begin("dma").Bytes(1 << 20).Mode("tdx-h100")
		p.Sleep(1500)
		sp.End()
		q.End()
	})
	eng.Run()
	o.Metrics().Set("pcie.h2d_transfers", "count", 1)
	out := string(o.ChromeTrace())
	for _, want := range []string{
		`"thread_name","args":{"name":"pcie-h2d"}`,
		`"ph":"X"`,
		`"ts":0.000,"dur":1.500,"name":"dma"`,
		`"args":{"bytes":1048576,"mode":"tdx-h100"}`,
		`"ph":"b"`, `"ph":"e"`, `"cat":"request"`, `"id":"0x3"`,
		`{"name":"pcie.h2d_transfers","kind":"gauge","unit":"count","value":1}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q\n%s", want, out)
		}
	}
}

func TestExportsDeterministic(t *testing.T) {
	render := func() (string, string) {
		eng := sim.NewEngine()
		o := New()
		o.Bind(eng)
		tr := o.Track("layer")
		eng.Spawn("t", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				sp := tr.Begin("op").Bytes(int64(i) << 12).Request(int64(i))
				p.Sleep(sim.Duration(100 * (i + 1)))
				sp.End()
				o.BeginAsync("request", int64(i), "phase").End()
			}
		})
		eng.Run()
		o.Metrics().Set("ops", "events", 4)
		var sum bytes.Buffer
		if err := o.WriteSummary(&sum); err != nil {
			t.Fatal(err)
		}
		return string(o.ChromeTrace()), sum.String()
	}
	c1, s1 := render()
	for i := 0; i < 3; i++ {
		c2, s2 := render()
		if c1 != c2 {
			t.Fatalf("chrome export differs across repeats:\n%s\nvs\n%s", c1, c2)
		}
		if s1 != s2 {
			t.Fatalf("summary differs across repeats:\n%s\nvs\n%s", s1, s2)
		}
	}
}

// TestOneRecordTwoViews opens two activities both views show and an
// obs-only span between them, then ends the activities in the other
// order: the Chrome export lists the spans as they began, the Nsight view
// lists the events as they completed, each event carries its span's
// interval, and the obs-only span is no event.
func TestOneRecordTwoViews(t *testing.T) {
	o, eng := newBound(t)
	tr := o.Track("gpu-ch1")
	eng.Spawn("t", func(p *sim.Proc) {
		first := tr.BeginEvent("k1")
		p.Sleep(10)
		mid := tr.Begin("note")
		second := tr.BeginEvent("memcpyAsync").Bytes(64)
		p.Sleep(10)
		second.EndEvent(trace.Event{Kind: trace.KindMemcpyH2D, Name: "memcpyAsync", Stream: 1, Bytes: 64})
		mid.End()
		p.Sleep(5)
		first.EndEvent(trace.Event{Kind: trace.KindKernel, Name: "k1", Stream: 1, Seq: 7})
	})
	eng.Run()
	out := string(o.ChromeTrace())
	k, n, m := strings.Index(out, `"name":"k1"}`), strings.Index(out, `"name":"note"}`), strings.Index(out, `"name":"memcpyAsync"`)
	if k < 0 || n < 0 || m < 0 || !(k < n && n < m) {
		t.Errorf("Chrome export does not list k1, note, memcpyAsync in begin order:\n%s", out)
	}
	want := []trace.Event{
		{Kind: trace.KindMemcpyH2D, Name: "memcpyAsync", Stream: 1, Start: 10, End: 20, Bytes: 64, Seq: 1},
		{Kind: trace.KindKernel, Name: "k1", Stream: 1, Start: 0, End: 25, Seq: 7},
	}
	if got := slices.Collect(o.Tracer().All()); !slices.Equal(got, want) {
		t.Errorf("Nsight view = %+v, want %+v", got, want)
	}
	if o.Spans() != 3 || o.Open() != 0 {
		t.Errorf("Spans = %d, Open = %d, want 3 and 0", o.Spans(), o.Open())
	}
}

// TestNsightOnlyRecorder holds a Nsight-only recorder to its contract: an
// activity both views show is recorded as an event on no track, an
// obs-only or async span records nothing, its metrics are dropped, and
// its exports are the empty ones.
func TestNsightOnlyRecorder(t *testing.T) {
	eng := sim.NewEngine()
	o := NewNsight(eng)
	tr := o.Track("uvm")
	eng.Spawn("t", func(p *sim.Proc) {
		ev := tr.BeginEvent("fault-batch").Count(3)
		only := tr.Begin("note").Bytes(8)
		async := o.BeginAsync("request", 1, "queued")
		p.Sleep(40)
		only.End()
		async.End()
		ev.EndEvent(trace.Event{Kind: trace.KindFaultBatch, Name: "uvm-migrate", Bytes: 4096, Managed: true})
	})
	eng.Run()
	o.Metrics().Set("x", "count", 1)
	want := []trace.Event{{Kind: trace.KindFaultBatch, Name: "uvm-migrate", End: 40, Bytes: 4096, Managed: true, Seq: 1}}
	if got := slices.Collect(o.Tracer().All()); !slices.Equal(got, want) {
		t.Errorf("Nsight view = %+v, want %+v", got, want)
	}
	if o.Spans() != 0 || o.Open() != 0 || o.Metrics() != nil {
		t.Errorf("Spans = %d, Open = %d, Metrics = %v; want 0, 0, nil", o.Spans(), o.Open(), o.Metrics())
	}
	if got, want := string(o.ChromeTrace()), string(New().ChromeTrace()); got != want {
		t.Errorf("ChromeTrace = %q, want the empty export %q", got, want)
	}
}
