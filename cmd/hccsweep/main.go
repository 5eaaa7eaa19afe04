// Command hccsweep runs grid sweeps of the simulator through the
// internal/batch worker pool: a cross product of applications (benchmark
// workloads, CNN training cells, LLM serving cells, or whole figures),
// protection modes, and named configuration-parameter values, executed
// concurrently with content-addressed result caching. Results are
// deterministic — the output is byte-identical at any -parallel level, and
// a warm cache skips re-simulation entirely.
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
// Hardware platforms are an axis as well, via -platforms or the hw.platform
// grid axis — each named platform swaps in a full calibration profile:
//
//	hccsweep -workloads gemm,2dconv -modes off,tee-io-bridge \
//	    -param hw.platform=h100-tdx,b300-bridge
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hccsim/internal/batch"
	"hccsim/internal/bench"
	"hccsim/internal/ccmode"
	"hccsim/internal/figures"
	"hccsim/internal/platform"
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
	var params paramFlag
	apps := flag.String("workloads", "", "benchmark applications: comma list or 'all'")
	figs := flag.String("figures", "", "figure ids: comma list or 'all'")
	cnns := flag.String("cnn", "", "CNN cells model:batch:precision, comma list (e.g. resnet50:64:fp32)")
	llms := flag.String("llm", "", "LLM cells backend:quant:batch, comma list (e.g. vllm:awq:8)")
	serves := flag.String("serve", "", "serving-traffic cells backend:quant:rateQPS, comma list (e.g. vllm:bf16:1.4); sweep rates with -param serve.rate=...")
	uvm := flag.Bool("uvm", false, "also sweep the UVM variant of UVM-capable workloads")
	modes := flag.String("modes", "off,tdx-h100", "comma list of protection-mode names (off, tdx-h100, tee-io-direct, tee-io-bridge, optionally +pipelined)")
	platforms := flag.String("platforms", "", "comma list of hardware-platform names (see hw.platform axis); sweeps every job across each platform")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size (1 = serial)")
	cacheDir := flag.String("cache", "", "on-disk result cache directory (empty = in-memory only)")
	format := flag.String("format", "table", "output format: table, csv or json")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	listParams := flag.Bool("list-params", false, "list sweepable config parameters and exit")
	flag.Var(&params, "param", "grid axis Name=v1,v2,... (repeatable; cross product)")
	var prof bench.ProfileConfig
	flag.StringVar(&prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&prof.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&prof.Trace, "trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *listParams {
		fmt.Println("sweepable parameters (as -param Name=v1,v2,...):")
		for _, n := range batch.OverrideNames() {
			fmt.Println("  " + n)
		}
		return
	}

	axes, err := batch.ParseAxes(params.specs)
	if err != nil {
		fatal(err)
	}
	platformNames, err := parsePlatforms(*platforms, axes)
	if err != nil {
		fatal(err)
	}
	jobs, err := buildJobs(*apps, *cnns, *llms, *serves, *uvm, *modes, platformNames, axes)
	if err != nil {
		fatal(err)
	}
	if *figs != "" {
		ids := strings.Split(*figs, ",")
		if *figs == "all" {
			ids = nil
		}
		jobs = append(jobs, figures.Jobs(ids...)...)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "hccsweep: nothing to run (use -workloads, -figures, -cnn, -llm or -serve)")
		flag.Usage()
		os.Exit(2)
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			fatal(err)
		}
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	results, cache, err := batch.Run(jobs, *parallel, *cacheDir)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if err := stopProf(); err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := emit(w, *format, results); err != nil {
		fatal(err)
	}

	hits, _, stores := cache.Stats()
	fmt.Fprintf(os.Stderr, "hccsweep: %d jobs in %s (%d workers): %d cached, %d simulated\n",
		len(results), elapsed, *parallel, hits, stores)
	for _, r := range results {
		if r.Err != nil {
			os.Exit(1)
		}
	}
}

// parsePlatforms validates the -platforms flag up front — every name must
// resolve through the platform registry before any job runs — and rejects
// combining the flag with an hw.platform axis, which would silently square
// the platform dimension.
func parsePlatforms(s string, axes []batch.Axis) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	for _, ax := range axes {
		if ax.Param == batch.PlatformAxis {
			return nil, fmt.Errorf("hccsweep: -platforms and -param %s both sweep the platform; use one", batch.PlatformAxis)
		}
	}
	var names []string
	for _, f := range strings.Split(s, ",") {
		p, err := platform.ByName(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("hccsweep: %v", err)
		}
		names = append(names, p.Name())
	}
	return names, nil
}

// buildJobs expands the app/mode/platform/parameter axes into the job grid.
func buildJobs(apps, cnns, llms, serves string, uvm bool, modes string, platforms []string, axes []batch.Axis) ([]batch.Job, error) {
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
		model, b, prec, err := parseTriple(cell, "model:batch:precision")
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
	if len(platforms) > 0 {
		jobs = batch.GridPlatforms(jobs, platforms)
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

// parseTriple parses model:batch:precision.
func parseTriple(cell, form string) (string, int, string, error) {
	parts := strings.Split(strings.TrimSpace(cell), ":")
	if len(parts) != 3 {
		return "", 0, "", fmt.Errorf("hccsweep: want %s, got %q", form, cell)
	}
	b, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", fmt.Errorf("hccsweep: batch in %q: %v", cell, err)
	}
	return parts[0], b, parts[2], nil
}

// parseServeCell parses backend:quant:rateQPS.
func parseServeCell(cell string) (string, string, float64, error) {
	parts := strings.Split(strings.TrimSpace(cell), ":")
	if len(parts) != 3 {
		return "", "", 0, fmt.Errorf("hccsweep: want backend:quant:rateQPS, got %q", cell)
	}
	rate, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || rate <= 0 {
		return "", "", 0, fmt.Errorf("hccsweep: rate in %q must be a positive number", cell)
	}
	return parts[0], parts[1], rate, nil
}

// parseLLMCell parses backend:quant:batch.
func parseLLMCell(cell string) (string, int, string, error) {
	parts := strings.Split(strings.TrimSpace(cell), ":")
	if len(parts) != 3 {
		return "", 0, "", fmt.Errorf("hccsweep: want backend:quant:batch, got %q", cell)
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
func emit(w *os.File, format string, results []batch.Result) error {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
