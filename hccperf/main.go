// Command hccperf is the repository benchmark: it drives the simulator
// from outside, through its public entry points, and reports host time and
// host memory, never simulated time.
//
//	hccperf -workload campaign|serve|sweep -seed N -seconds S -trace 0|1
//
// One process runs a closed loop: each client sends its next job only
// after the previous one returns. GOMAXPROCS and the number of concurrent
// simulations both equal the machine's CPU count. A pass is the workload's
// fixed job list; passes repeat until the measuring time is spent. Every
// job's output is checked, so the run also proves the simulator still
// produces the same results.
//
// With -trace 0 the run prints the end-to-end metrics (see BENCHMARK.json).
// With -trace 1 it prints the per-layer metrics instead: counters of the
// passes, microbenchmarks of each internal layer, and the share of CPU time
// each layer takes in a separate, profiled set of passes. The last line of
// standard output is always one JSON object; a failed output check makes
// "correct" false and the exit code 1.
//
// Run it through run.sh, which builds the binary from the enclosing
// checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for spans, results and sweep caches
	refs     string // directory of recorded default-seed references
	record   bool
	probe    bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("hccperf", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for spans, result files and sweep caches")
	fs.StringVar(&o.refs, "refs", filepath.Join("hccperf", "testdata"), "directory of recorded default-seed references")
	fs.BoolVar(&o.record, "record", false, "run one pass and record its outputs as the default-seed reference")
	fs.BoolVar(&o.probe, "setup-probe", false, "only perform the workload's set-up, then exit (used to time set-up in a fresh process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "hccperf: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hccperf: -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	w, err := newWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hccperf:", err)
		return 2
	}
	if o.probe {
		if err := w.setup(); err != nil {
			fmt.Fprintln(os.Stderr, "hccperf: set-up:", err)
			return 1
		}
		return 0
	}
	res, err := measure(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hccperf:", err)
		return 1
	}
	if err := res.write(o); err != nil {
		fmt.Fprintln(os.Stderr, "hccperf:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number. Note carries what the JSON result line
// cannot: a tail's percentile and sample counts, a ratio's base.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// environment identifies what was measured and where.
type environment struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	RunID      string `json:"run_id"`
}

type result struct {
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Metrics   []metric    `json:"metrics"`
}

// write saves the full result, environment included, next to the spans.
func (r *result) write(o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Env.Workload, r.Env.Seed, b2i(r.Env.Trace))
	return os.WriteFile(filepath.Join(o.out, name), append(data, '\n'), 0o644)
}

// print writes the human-readable report, then the one-line JSON result
// that must stay last on standard output.
func (r *result) print(f *os.File) {
	e := r.Env
	fmt.Fprintf(f, "workload=%s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s run=%s\n",
		e.Workload, e.Seed, e.Trace, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.RunID)
	for _, msg := range r.Failures {
		fmt.Fprintln(f, "FAIL", msg)
	}
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(f, "%-34s %14.6g %-9s (%d failed of %d attempted jobs)\n", "fail_ratio", ratio, "ratio", r.Failed, r.Attempted)
	for _, m := range r.Metrics {
		fmt.Fprintf(f, "%-34s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(line) // plain structs and maps: cannot fail
	fmt.Fprintln(f, string(data))
}

func environmentOf(o options) environment {
	return environment{
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     treeDigest("."),
		RunID:      fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()),
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
