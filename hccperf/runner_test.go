package main

import (
	"errors"
	"strings"
	"testing"
)

// fakeWorkload replays scripted outputs and counters, one script entry per
// pass, so the checks can be driven to fail on purpose.
type fakeWorkload struct {
	outputs  []map[string]string // per pass: job name -> output
	errs     []map[string]error
	counters []map[string]uint64
	pass     int
}

func (f *fakeWorkload) setup() error   { return nil }
func (f *fakeWorkload) prepare() error { return nil }

func (f *fakeWorkload) stages() []stage {
	p := f.pass
	var jobs []job
	for _, name := range []string{"a", "b", "c"} {
		jobs = append(jobs, job{name: name, run: func() (string, error) {
			return f.outputs[p][name], f.errs[p][name]
		}})
	}
	return []stage{{clients: 2, jobs: jobs}}
}

func (f *fakeWorkload) finish() (map[string]uint64, error) {
	c := f.counters[f.pass]
	f.pass++
	return c, nil
}

func runFake(t *testing.T, f *fakeWorkload, expect map[string]string) *runner {
	t.Helper()
	r := newRunner(f, "test", expect)
	r.heap = startHeapSampler()
	defer r.heap.close()
	if _, err := r.loop(0, len(f.outputs), 0); err != nil {
		t.Fatal(err)
	}
	return r
}

func same(out map[string]string, n int) []map[string]string {
	var s []map[string]string
	for i := 0; i < n; i++ {
		s = append(s, out)
	}
	return s
}

var goodOut = map[string]string{"a": "1", "b": "2", "c": "3"}

func TestRunnerCountsNoFailures(t *testing.T) {
	f := &fakeWorkload{outputs: same(goodOut, 3), errs: make([]map[string]error, 3),
		counters: []map[string]uint64{{"batch.cache_hits": 4}, {"batch.cache_hits": 4}, {"batch.cache_hits": 4}}}
	r := runFake(t, f, nil)
	if r.attempted != 9 || r.failed != 0 {
		t.Errorf("attempted %d failed %d, want 9 and 0 (%v)", r.attempted, r.failed, r.failures)
	}
}

func TestRunnerCountsWrongOutputAgainstReference(t *testing.T) {
	// The reference says b's output is "2"; the program now prints "two".
	ref := map[string]string{"a": digest("1"), "b": digest("2"), "c": digest("3")}
	wrong := map[string]string{"a": "1", "b": "two", "c": "3"}
	f := &fakeWorkload{outputs: same(wrong, 2), errs: make([]map[string]error, 2),
		counters: make([]map[string]uint64, 2)}
	r := runFake(t, f, ref)
	if r.attempted != 6 || r.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", r.attempted, r.failed)
	}
	if len(r.failures) == 0 || !strings.Contains(r.failures[0], "b:") {
		t.Errorf("failure notes %v should name job b", r.failures)
	}
}

func TestRunnerCountsOutputDriftAcrossPasses(t *testing.T) {
	drift := map[string]string{"a": "1", "b": "2", "c": "3!"}
	f := &fakeWorkload{outputs: []map[string]string{goodOut, goodOut, drift},
		errs: make([]map[string]error, 3), counters: make([]map[string]uint64, 3)}
	r := runFake(t, f, nil)
	if r.failed != 1 {
		t.Errorf("failed %d, want 1: only c drifted, in the third pass", r.failed)
	}
}

func TestRunnerCountsErrors(t *testing.T) {
	errs := []map[string]error{nil, {"a": errors.New("boom")}}
	f := &fakeWorkload{outputs: same(goodOut, 2), errs: errs, counters: make([]map[string]uint64, 2)}
	r := runFake(t, f, nil)
	if r.failed != 1 {
		t.Errorf("failed %d, want 1", r.failed)
	}
}

func TestRunnerCountsCounterDriftAsWholePassFailed(t *testing.T) {
	f := &fakeWorkload{outputs: same(goodOut, 3), errs: make([]map[string]error, 3),
		counters: []map[string]uint64{{"serve.preemptions": 7}, {"serve.preemptions": 7}, {"serve.preemptions": 8}}}
	r := runFake(t, f, nil)
	if r.attempted != 9 || r.failed != 3 {
		t.Errorf("attempted %d failed %d, want 9 and 3: every job of the drifted pass fails", r.attempted, r.failed)
	}
	if len(r.failures) != 1 || !strings.Contains(r.failures[0], "serve.preemptions") {
		t.Errorf("failure notes %v should name the drifted counter", r.failures)
	}
}

func TestRefsRoundTrip(t *testing.T) {
	path := t.TempDir() + "/w.ref"
	refs := map[string]string{"run/off@0.8qps": "abc", "capacity/off": "def"}
	if err := writeRefs(path, refs); err != nil {
		t.Fatal(err)
	}
	got, err := readRefs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["run/off@0.8qps"] != "abc" || got["capacity/off"] != "def" {
		t.Errorf("round trip = %v", got)
	}
}
