// Command hccsweep runs grid sweeps of the simulator through the
// internal/batch worker pool: a cross product of applications (benchmark
// workloads, CNN training cells, LLM serving cells, or serving-traffic
// cells), protection modes, and named configuration-parameter values, executed
// concurrently with content-addressed result caching. Results are
// deterministic — jobs that share a cache key run once (the first one
// listed is kept), so the output is byte-identical at any -parallel level,
// and a warm cache skips re-simulation entirely.
//
// Example — the Fig. 5 transfer crossover as a PCIe-bandwidth grid:
//
//	hccsweep -workloads 2dconv,gemm,sc -modes off,tdx-h100 \
//	    -param PCIeGBps=8,16,32,64 -parallel 8 -cache .hcccache
//
// Protection modes are a sweep axis too, either via -modes or as a cc.mode
// grid axis:
//
//	hccsweep -workloads gemm,atax -param cc.mode=off,tdx-h100,tee-io-bridge
//
// Hardware platforms are an axis as well, via the hw.platform grid axis —
// each named platform swaps in a full calibration profile:
//
//	hccsweep -workloads gemm,2dconv -modes off,tee-io-bridge \
//	    -param hw.platform=h100-tdx,b300-bridge
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hccsim/internal/batch"
	"hccsim/internal/bench"
	"hccsim/internal/ccmode"
	"hccsim/internal/workloads"
)

// paramFlag collects repeatable -param Name=v1,v2,... grid-axis specs.
// Parsing and duplicate detection live in batch.ParseAxes, called after
// flag.Parse so that "-param PCIeGBps=8 -param PCIe.EffectiveGBps=16" is
// caught as the collision it is.
type paramFlag struct {
	specs []string
}

func (p *paramFlag) String() string { return strings.Join(p.specs, " ") }

func (p *paramFlag) Set(s string) error {
	p.specs = append(p.specs, s)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; main only binds it to the process. It returns
// the exit status (0 success, 1 a bad value, failed job or failed write, 2
// a flag syntax error or nothing to run) so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hccsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var params paramFlag
	apps := fs.String("workloads", "", "benchmark applications: comma list or 'all'")
	cnns := fs.String("cnn", "", "CNN cells model:batch:precision, comma list (e.g. resnet50:64:fp32)")
	llms := fs.String("llm", "", "LLM cells backend:quant:batch, comma list (e.g. vllm:awq:8)")
	serves := fs.String("serve", "", "serving-traffic cells backend:quant:rateQPS, comma list (e.g. vllm:bf16:1.4); sweep rates with -param serve.rate=...")
	uvm := fs.Bool("uvm", false, "also sweep the UVM variant of UVM-capable workloads")
	modes := fs.String("modes", "off,tdx-h100", "comma list of protection-mode names (off, tdx-h100, tee-io-direct, tee-io-bridge, optionally +pipelined)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size (1 = serial)")
	cacheDir := fs.String("cache", "", "on-disk result cache directory (empty = in-memory only)")
	format := fs.String("format", "table", "output format: table, csv or json")
	out := fs.String("o", "-", "output file ('-' for stdout)")
	listParams := fs.Bool("list-params", false, "list sweepable config parameters and exit")
	fs.Var(&params, "param", "grid axis Name=v1,v2,... (repeatable; cross product)")
	var prof bench.ProfileConfig
	fs.StringVar(&prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&prof.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&prof.Trace, "trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *listParams {
		fmt.Fprintln(stdout, "sweepable parameters (as -param Name=v1,v2,...):")
		for _, n := range batch.OverrideNames() {
			fmt.Fprintln(stdout, "  "+n)
		}
		return 0
	}

	axes, err := batch.ParseAxes(params.specs)
	if err != nil {
		return fail(err)
	}
	jobs, err := buildJobs(*apps, *cnns, *llms, *serves, *uvm, *modes, axes)
	if err != nil {
		return fail(err)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(stderr, "hccsweep: nothing to run (use -workloads, -cnn, -llm or -serve)")
		fs.Usage()
		return 2
	}
	if jobs, err = dedupe(jobs); err != nil {
		return fail(err)
	}

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	results, cache, err := batch.Run(jobs, *parallel, *cacheDir)
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if err := stopProf(); err != nil {
		return fail(err)
	}

	var buf bytes.Buffer
	if err := emit(&buf, *format, results); err != nil {
		return fail(err)
	}
	if *out == "-" {
		_, err = stdout.Write(buf.Bytes())
	} else {
		err = os.WriteFile(*out, buf.Bytes(), 0o666)
	}
	if err != nil {
		return fail(err)
	}

	hits, _, stores := cache.Stats()
	fmt.Fprintf(stderr, "hccsweep: %d jobs in %s (%d workers): %d cached, %d simulated\n",
		len(results), elapsed, *parallel, hits, stores)
	for _, r := range results {
		if r.Err != nil {
			return 1
		}
	}
	return 0
}

// dedupe validates every job before any runs and drops each job whose key
// an earlier job already has (the first one wins). Axes can repeat a job: a
// repeated value, two spellings of one platform, or a cc.mode axis over the
// -modes list. Without this pass whether a repeat reports cached would
// depend on worker scheduling.
func dedupe(jobs []batch.Job) ([]batch.Job, error) {
	seen := make(map[string]bool, len(jobs))
	out := jobs[:0]
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		key, err := j.Key()
		if err != nil {
			return nil, err
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, j)
		}
	}
	return out, nil
}

// buildJobs expands the app/mode/parameter axes into the job grid.
func buildJobs(apps, cnns, llms, serves string, uvm bool, modes string, axes []batch.Axis) ([]batch.Job, error) {
	modeNames, err := parseModes(modes)
	if err != nil {
		return nil, err
	}
	var jobs []batch.Job
	if apps != "" {
		names := strings.Split(apps, ",")
		if apps == "all" {
			names = workloads.Names()
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			spec, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			variants := []bool{false}
			if uvm && spec.UVMCapable {
				variants = append(variants, true)
			}
			for _, m := range modeNames {
				for _, managed := range variants {
					j := batch.WorkloadJob(name, managed, false)
					j.Mode = m
					jobs = append(jobs, j)
				}
			}
		}
	}
	for _, cell := range splitCells(cnns) {
		model, b, prec, err := parseCNNCell(cell)
		if err != nil {
			return nil, err
		}
		for _, m := range modeNames {
			jobs = append(jobs, batch.CNNJob(model, b, prec, m))
		}
	}
	for _, cell := range splitCells(llms) {
		backend, b, quant, err := parseLLMCell(cell)
		if err != nil {
			return nil, err
		}
		for _, m := range modeNames {
			jobs = append(jobs, batch.LLMJob(backend, quant, b, m))
		}
	}
	for _, cell := range splitCells(serves) {
		backend, quant, rate, err := parseServeCell(cell)
		if err != nil {
			return nil, err
		}
		for _, m := range modeNames {
			j := batch.ServeJob(backend, quant, rate)
			j.Mode = m
			jobs = append(jobs, j)
		}
	}
	for _, ax := range axes {
		switch ax.Param {
		case batch.ModeAxis:
			jobs = batch.GridModes(jobs, ax.Modes)
		case batch.ServeRateAxis:
			jobs = batch.GridServeRates(jobs, ax.Values)
		case batch.PlatformAxis:
			jobs = batch.GridPlatforms(jobs, ax.Platforms)
		default:
			jobs = batch.Grid(jobs, ax.Param, ax.Values)
		}
	}
	return jobs, nil
}

// parseModes resolves the -modes list to canonical protection-mode names.
func parseModes(s string) ([]string, error) {
	var out []string
	for _, m := range strings.Split(s, ",") {
		name := strings.TrimSpace(m)
		cm, err := ccmode.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("hccsweep: unknown mode %q (want one of %s, optionally with +pipelined)",
				name, strings.Join(ccmode.Names(), ", "))
		}
		out = append(out, cm.Name())
	}
	return out, nil
}

func splitCells(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// splitCell splits an a:b:c cell of the given form into its three parts.
func splitCell(cell, form string) ([]string, error) {
	parts := strings.Split(strings.TrimSpace(cell), ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("hccsweep: want %s, got %q", form, cell)
	}
	return parts, nil
}

// parseCNNCell parses model:batch:precision.
func parseCNNCell(cell string) (string, int, string, error) {
	parts, err := splitCell(cell, "model:batch:precision")
	if err != nil {
		return "", 0, "", err
	}
	b, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", fmt.Errorf("hccsweep: batch in %q: %v", cell, err)
	}
	return parts[0], b, parts[2], nil
}

// parseServeCell parses backend:quant:rateQPS.
func parseServeCell(cell string) (string, string, float64, error) {
	parts, err := splitCell(cell, "backend:quant:rateQPS")
	if err != nil {
		return "", "", 0, err
	}
	rate, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || rate <= 0 {
		return "", "", 0, fmt.Errorf("hccsweep: rate in %q must be a positive number", cell)
	}
	return parts[0], parts[1], rate, nil
}

// parseLLMCell parses backend:quant:batch.
func parseLLMCell(cell string) (string, int, string, error) {
	parts, err := splitCell(cell, "backend:quant:batch")
	if err != nil {
		return "", 0, "", err
	}
	b, err := strconv.Atoi(parts[2])
	if err != nil {
		return "", 0, "", fmt.Errorf("hccsweep: batch in %q: %v", cell, err)
	}
	return parts[0], b, parts[1], nil
}

// emit renders the results in the requested format: the sweep table (plus
// the protected/off ratio table when off and a protected mode are both
// present) as text or CSV, or the full per-job payloads as JSON.
func emit(w io.Writer, format string, results []batch.Result) error {
	switch format {
	case "table":
		t := batch.SweepTable(results)
		if _, err := fmt.Fprintln(w, t.String()); err != nil {
			return err
		}
		if rt := batch.RatioTable(results); len(rt.Rows) > 0 {
			_, err := fmt.Fprintln(w, rt.String())
			return err
		}
		return nil
	case "csv":
		t := batch.SweepTable(results)
		return t.WriteCSV(w)
	case "json":
		type jobOut struct {
			Job    batch.Job
			Key    string
			Cached bool
			Error  string        `json:",omitempty"`
			Result batch.Payload `json:",omitempty"`
		}
		outs := make([]jobOut, len(results))
		for i, r := range results {
			outs[i] = jobOut{Job: r.Job, Key: r.Key, Cached: r.Cached, Result: r.Payload}
			if r.Err != nil {
				outs[i].Error = r.Err.Error()
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(outs)
	}
	return fmt.Errorf("hccsweep: unknown format %q (want table, csv or json)", format)
}
