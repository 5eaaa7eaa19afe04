package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hccsim/internal/sim"
)

// job is one call into the simulator's public API. run returns the call's
// canonical output (compared across passes and against references) or an
// error when the output fails a check of its own.
type job struct {
	name string
	run  func() (string, error)
}

// stage is a group of jobs run concurrently by closed-loop clients. begin
// runs inside the timed pass, before the first job.
type stage struct {
	clients int
	begin   func() error
	jobs    []job
}

// workload is one fixed job list and its set-up.
type workload interface {
	// setup does the one-time work a fresh process pays before it can run
	// a pass: calibration memos, lazy initialisation, cache directories.
	setup() error
	// prepare resets per-pass state; it is not timed.
	prepare() error
	// stages returns the pass's job list.
	stages() []stage
	// finish returns the pass's deterministic counters; it is not timed.
	finish() (map[string]uint64, error)
}

// passStats is what one pass measured.
type passStats struct {
	wall       float64 // s
	cpu        float64 // s, user+sys of the whole process
	allocBytes float64
	heapPeak   float64   // peak live heap, bytes
	gcCPU      float64   // s of GC CPU, runtime estimate
	totalCPU   float64   // s of all CPU, same estimate's base
	latencies  []float64 // ms, one per job
	counters   map[string]uint64
}

// span is one traced interval, recorded by the benchmark around a pass, a
// job or a microbenchmark call. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = the run itself
	RunID  string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// runner executes passes and keeps the output checks.
type runner struct {
	w      workload
	runID  string
	origin time.Time
	heap   *heapSampler

	expect    map[string]string // job name -> output digest
	baseCount map[string]uint64 // first pass's counters
	attempted int
	failed    int
	failures  []string

	passes int
	traced bool
	spans  []span
	spanMu sync.Mutex
}

// maxFailureNotes caps the failure messages kept for the report; every
// failure is still counted.
const maxFailureNotes = 20

func newRunner(w workload, runID string, expect map[string]string) *runner {
	if expect == nil {
		expect = map[string]string{}
	}
	return &runner{w: w, runID: runID, origin: time.Now(), expect: expect}
}

// span records [start, end) under parent and returns its id.
func (r *runner) span(parent int, name string, start, end time.Time) int {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, RunID: r.runID, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	return id
}

// reserveSpan allocates a span id whose interval is filled in later, so a
// pass can be the parent of the jobs it contains.
func (r *runner) reserveSpan(name string) int {
	return r.span(0, name, r.origin, r.origin)
}

func (r *runner) closeSpan(id int, start, end time.Time) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	s := &r.spans[id-1]
	s.Start, s.End = start.Sub(r.origin).Nanoseconds(), end.Sub(r.origin).Nanoseconds()
}

func (r *runner) fail(msg string) {
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, msg)
	}
}

// loop runs passes until the time is spent and at least minPasses passes
// and minJobs jobs are done.
func (r *runner) loop(seconds float64, minPasses, minJobs int) ([]passStats, error) {
	var out []passStats
	jobs := 0
	start := time.Now()
	for len(out) < minPasses || jobs < minJobs || time.Since(start).Seconds() < seconds {
		ps, err := r.pass()
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
		jobs += len(ps.latencies)
	}
	return out, nil
}

type outcome struct {
	start, end time.Time
	out        string
	err        error
}

// pass runs the workload's job list once and checks every output.
func (r *runner) pass() (passStats, error) {
	if err := r.w.prepare(); err != nil {
		return passStats{}, fmt.Errorf("preparing pass: %w", err)
	}
	runtime.GC() // start every pass from the same heap state
	sim.ResetGlobalStats()
	r.passes++
	var passSpan int
	if r.traced {
		passSpan = r.reserveSpan(fmt.Sprintf("pass-%d", r.passes))
	}
	rt0, cpu0 := readRuntime(), processCPU()
	r.heap.reset()
	t0 := time.Now()

	var names []string
	var outcomes []outcome
	for _, st := range r.w.stages() {
		if st.begin != nil {
			if err := st.begin(); err != nil {
				return passStats{}, fmt.Errorf("starting stage: %w", err)
			}
		}
		for _, j := range st.jobs {
			names = append(names, j.name)
		}
		outcomes = append(outcomes, runStage(st)...)
	}
	t1 := time.Now()
	rt1, cpu1 := readRuntime(), processCPU()

	// Outputs are checked after the timed window, in job order.
	var ps passStats
	ps.heapPeak = r.heap.peak()
	failedJobs := make([]bool, len(outcomes))
	for i, o := range outcomes {
		ps.latencies = append(ps.latencies, float64(o.end.Sub(o.start).Nanoseconds())/1e6)
		if r.traced {
			r.span(passSpan, names[i], o.start, o.end)
		}
		failedJobs[i] = !r.check(names[i], o)
	}
	if r.traced {
		r.closeSpan(passSpan, t0, t1)
	}
	ps.wall = t1.Sub(t0).Seconds()
	ps.cpu = cpu1 - cpu0
	ps.allocBytes = rt1.allocBytes - rt0.allocBytes
	ps.gcCPU = rt1.gcCPU - rt0.gcCPU
	ps.totalCPU = rt1.totalCPU - rt0.totalCPU

	counters, err := r.w.finish()
	if err != nil {
		return passStats{}, fmt.Errorf("finishing pass: %w", err)
	}
	if counters == nil {
		counters = map[string]uint64{}
	}
	gs := sim.GlobalStats()
	counters["sim.events_fired"] = gs.Fired
	counters["sim.events_scheduled"] = gs.Scheduled
	counters["sim.handoffs"] = gs.Handoffs
	counters["sim.actor_steps"] = gs.ActorSteps
	counters["sim.allocs_avoided"] = gs.AllocsAvoided
	ps.counters = counters
	if drift := r.checkCounters(counters); drift != "" {
		r.fail(drift)
		for i := range failedJobs {
			failedJobs[i] = true
		}
	}
	r.attempted += len(failedJobs)
	for _, f := range failedJobs {
		if f {
			r.failed++
		}
	}
	return ps, nil
}

// runStage runs a stage's jobs on st.clients closed-loop clients and
// returns their outcomes in job order.
func runStage(st stage) []outcome {
	res := make([]outcome, len(st.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < max(st.clients, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.jobs) {
					return
				}
				start := time.Now()
				out, err := st.jobs[i].run()
				res[i] = outcome{start: start, end: time.Now(), out: out, err: err}
			}
		}()
	}
	wg.Wait()
	return res
}

// check reports whether a job succeeded: no error, and an output equal to
// the reference, or to the first output seen under the same name.
func (r *runner) check(name string, o outcome) bool {
	if o.err != nil {
		r.fail(fmt.Sprintf("%s: %v", name, o.err))
		return false
	}
	got := digest(o.out)
	want, ok := r.expect[name]
	if !ok {
		r.expect[name] = got
		return true
	}
	if got != want {
		r.fail(fmt.Sprintf("%s: output %s differs from reference %s", name, got, want))
		return false
	}
	return true
}

// checkCounters compares a pass's counters with the first pass's; it
// returns a description of the first difference, or "".
func (r *runner) checkCounters(c map[string]uint64) string {
	if r.baseCount == nil {
		r.baseCount = c
		return ""
	}
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	for k := range r.baseCount {
		if _, ok := c[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if c[k] != r.baseCount[k] {
			return fmt.Sprintf("counter %s drifted: %d, first pass %d", k, c[k], r.baseCount[k])
		}
	}
	return ""
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// runtimeSample holds the runtime/metrics readings a pass differences.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// processCPU is the process's user+system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error()) // fails only on a bad pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler tracks the peak live heap (as of the latest GC) between
// resets, polling runtime/metrics in the background.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapPollInterval = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapPollInterval)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for {
				cur := h.max.Load()
				if v <= cur || h.max.CompareAndSwap(cur, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) reset() { h.max.Store(0) }

// peak reads the live heap once more (a GC may have ended since the last
// poll) and returns the peak since the last reset.
func (h *heapSampler) peak() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(max(h.max.Load(), s[0].Value.Uint64()))
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// Set-up is timed in fresh processes: at least minSetupProbes of them,
// and more, up to maxSetupProbes, until setupProbeBudget is spent, so a
// set-up of a few milliseconds still yields a steady median.
const (
	minSetupProbes   = 5
	maxSetupProbes   = 25
	setupProbeBudget = time.Second
)

// probeSetup times the workload's set-up in fresh processes of this binary,
// from process start to exit, so process-wide memos start empty each time.
func probeSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	begin := time.Now()
	for len(times) < minSetupProbes || (len(times) < maxSetupProbes && time.Since(begin) < setupProbeBudget) {
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
			"-out", o.out, "-refs", o.refs, "-setup-probe")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// profilePasses runs passes like loop with the CPU profiler on and returns
// the profile's samples per layer.
func (r *runner) profilePasses(seconds float64, minPasses int) ([]passStats, map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, err
	}
	r.traced = true
	ps, err := r.loop(seconds, minPasses, 0)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	layers, err := layerSamples(buf.Bytes())
	return ps, layers, err
}

// writeSpans writes the recorded spans as JSON into dir.
func (r *runner) writeSpans(dir, workload string, seed uint64) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), data, 0o644)
}

// treeDigest identifies the source being measured: a hash of every Go
// file and go.mod under root, outside hidden directories. The checkout the
// benchmark runs in need not be a git repository.
func treeDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not contribute
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil)[:8])
}
