package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"hccsim/internal/figures"
)

const sampleReport = "# hccsim reproduction report\n\n" +
	"Generated by `hccreport` in 2.37s (1 workers).\n\n" +
	"## fig1 — end-to-end timeline overview (ASCII Fig 1)\n\n" +
	"```\n== fig1: overview ==\nsetting  total-ms\nCC-off   17.7    \n```\n\n" +
	"## fig4b — single-core crypto throughput\n\n" +
	"```\n== fig4b ==\naes 3.36 1.2\n\nnote: spaced\n```\n\n"

func TestReportTables(t *testing.T) {
	got := reportTables(sampleReport)
	want := map[string]string{
		"fig1":  "== fig1: overview ==\nsetting  total-ms\nCC-off   17.7    \n",
		"fig4b": "== fig4b ==\naes 3.36 1.2\n\nnote: spaced\n",
	}
	if len(got) != len(want) {
		t.Fatalf("sections %v, want %v", keys(got), keys(want))
	}
	for id, body := range want {
		if got[id] != body {
			t.Errorf("%s = %q, want %q", id, got[id], body)
		}
	}
}

func TestReportTablesCoverCommittedReport(t *testing.T) {
	data, err := os.ReadFile("../REPORT.md")
	if err != nil {
		t.Skip("REPORT.md not found:", err)
	}
	got := reportTables(string(data))
	ids := figures.IDs()
	if len(got) != len(ids) {
		t.Errorf("REPORT.md sections %v, want one per figure %v", keys(got), ids)
	}
	for _, id := range ids {
		if !strings.HasPrefix(got[id], "== "+id+":") {
			t.Errorf("section %s starts %q", id, firstLine(got[id]))
		}
	}
}

// TestCampaignFailsOnWrongTable injects one altered table into the
// reference and checks that the campaign job reports it.
func TestCampaignFailsOnWrongTable(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every figure")
	}
	c, err := newCampaign("../REPORT.md", false)
	if err != nil {
		t.Skip(err)
	}
	if err := c.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.run(); err != nil {
		t.Fatalf("campaign at this commit: %v", err)
	}
	c.report["fig7"] = strings.Replace(c.report["fig7"], "1", "2", 1)
	_, err = c.run()
	if err == nil || !strings.Contains(err.Error(), "fig7") {
		t.Errorf("altered fig7: error %v, want one naming fig7", err)
	}
}

func TestServeTraceFromSeed(t *testing.T) {
	a, b, c := newServeWorkload(1), newServeWorkload(1), newServeWorkload(2)
	for _, rate := range serveRates {
		ga, gb, gc := a.gaps[rate], b.gaps[rate], c.gaps[rate]
		if len(ga) != serveRequests {
			t.Fatalf("%g qps: %d gaps", rate, len(ga))
		}
		var sum float64
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("%g qps: same seed, different gap %d", rate, i)
			}
			sum += ga[i].Seconds()
		}
		if same := ga[0] == gc[0] && ga[1] == gc[1]; same {
			t.Errorf("%g qps: seeds 1 and 2 drew the same gaps", rate)
		}
		if mean := sum / float64(len(ga)); mean < 0.5/rate || mean > 2/rate {
			t.Errorf("%g qps: mean gap %.3fs, want about %.3fs", rate, mean, 1/rate)
		}
	}
}

func TestSweepGrid(t *testing.T) {
	s := newSweep(defaultSeed, t.TempDir())
	if len(s.wide) != 2*len(s.narrow) {
		t.Fatalf("widened grid %d cells, narrow %d", len(s.wide), len(s.narrow))
	}
	labels := map[string]bool{}
	for _, j := range s.wide {
		if err := j.Validate(); err != nil {
			t.Errorf("%s: %v", j.Label(), err)
		}
		if labels[j.Label()] {
			t.Errorf("duplicate cell %s", j.Label())
		}
		labels[j.Label()] = true
	}
	for _, j := range s.narrow {
		if !labels[j.Label()] {
			t.Errorf("narrow cell %s missing from the widened grid", j.Label())
		}
	}
	again := newSweep(defaultSeed, t.TempDir())
	for i := range s.wide {
		if s.wide[i].Label() != again.wide[i].Label() {
			t.Fatalf("cell %d: %s vs %s for the same seed", i, s.wide[i].Label(), again.wide[i].Label())
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", wl, workloadNames)
	}

	e2e := endToEnd([]passStats{{latencies: seq(minJobs)}}, []float64{1})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("%d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for i := range min(len(e2e), len(spec.EndToEnd)) {
		if s := spec.EndToEnd[i]; e2e[i].Name != s.Name || e2e[i].Unit != s.Unit || s.Better != "lower" {
			t.Errorf("end-to-end %d: program %s/%s, BENCHMARK.json %+v", i, e2e[i].Name, e2e[i].Unit, s)
		}
	}

	if len(layerMetrics) != len(spec.PerLayer) {
		t.Errorf("%d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(spec.PerLayer))
	}
	for i := range min(len(layerMetrics), len(spec.PerLayer)) {
		m, s := layerMetrics[i], spec.PerLayer[i]
		if m.name != s.Name || m.unit != s.Unit || m.better != s.Better {
			t.Errorf("per-layer %d: program %s/%s/%s, BENCHMARK.json %+v", i, m.name, m.unit, m.better, s)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric checks that a traced run's metrics
// are exactly the per-layer table, without running the microbenchmarks.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	var micro []metric
	for _, b := range microBenches(t.TempDir()) {
		if b.name == "obs.memcpy_4k_traced_ns" {
			micro = append(micro, metric{Name: "obs.enabled_overhead_ratio"})
			continue
		}
		micro = append(micro, metric{Name: b.name}, metric{Name: allocsName(b.name, unitNames[b.unit])})
	}
	p := passStats{wall: 1, counters: map[string]uint64{"sim.events_fired": 1}}
	got := map[string]bool{}
	for _, m := range perLayer([]passStats{p}, []passStats{p}, map[string]int64{"sim": 1}, micro) {
		if got[m.Name] {
			t.Errorf("%s reported twice", m.Name)
		}
		got[m.Name] = true
	}
	for _, m := range layerMetrics {
		if !got[m.name] {
			t.Errorf("%s is listed but not reported", m.name)
		}
		delete(got, m.name)
	}
	for name := range got {
		t.Errorf("%s is reported but not listed", name)
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
