// Package batch is the sweep-orchestration subsystem: it turns independent
// simulator runs — benchmark workloads, paper figures, CNN training and LLM
// serving configurations — into Jobs, executes them on a bounded worker pool
// with deterministic result ordering, and memoizes results in a
// content-addressed cache (in-memory plus optional on-disk). Every job is a
// deterministic function of its spec and configuration, so a cached result
// is byte-identical to a fresh run; the package tests assert this.
//
// Layering: batch sits above the simulator layers (cuda, workloads, nn,
// core, trace) and below their consumers. The figures package registers its
// generator runner here at init and routes Generate/GenerateAll through a
// pool, cmd/hccreport regenerates the full report in parallel, and
// cmd/hccsweep exposes grid sweeps over named configuration parameters.
package batch

import (
	"fmt"
	"strings"

	"hccsim/internal/cuda"
	"hccsim/internal/nn"
	"hccsim/internal/workloads"
)

// Kind discriminates what a Job simulates.
type Kind string

// Job kinds.
const (
	KindWorkload Kind = "workload" // one benchmark application run
	KindFigure   Kind = "figure"   // one paper figure / extension table
	KindCNN      Kind = "cnn"      // one Fig. 13 CNN training cell
	KindLLM      Kind = "llm"      // one Fig. 14 LLM serving cell
	KindServe    Kind = "serve"    // one request-level serving-traffic run
)

// Override names one configuration parameter to change from the default
// config, e.g. {"PCIe.EffectiveGBps", 16}. Duration-valued parameters take
// nanoseconds. See OverrideNames for the accepted parameter paths.
type Override struct {
	Param string
	Value float64
}

func (o Override) String() string { return fmt.Sprintf("%s=%g", o.Param, o.Value) }

// Job is one independent, deterministic simulation: a spec (what to run), a
// mode, and the system configuration to run it under. The zero value is
// invalid; use the constructors or fill Kind plus the kind's spec fields.
type Job struct {
	Kind Kind

	// Workload jobs.
	Workload string `json:",omitempty"` // application name (workloads.ByName)
	UVM      bool   `json:",omitempty"` // managed-memory variant

	// Figure jobs.
	Figure string `json:",omitempty"` // figure id (figures.Generate)

	// CNN training jobs.
	Model     string `json:",omitempty"` // CNN name (nn.ModelByName)
	Precision string `json:",omitempty"` // fp32 | amp | fp16

	// LLM serving jobs.
	Backend string `json:",omitempty"` // hf | vllm
	Quant   string `json:",omitempty"` // bf16 | awq

	// Batch is the CNN or LLM batch size.
	Batch int `json:",omitempty"`

	// Serving-traffic jobs (KindServe; Backend and Quant are shared with
	// LLM jobs above).
	RateQPS  float64 `json:",omitempty"` // offered Poisson arrival rate
	Requests int     `json:",omitempty"` // offered request count (0 = serve default)
	Seed     uint64  `json:",omitempty"` // workload RNG seed (0 = serve default)

	// Mode names the protection mode (ccmode.ByName) the job runs under;
	// empty means off. Figure jobs fix their own modes internally and take
	// none.
	Mode string `json:",omitempty"`

	// Platform names the hardware profile (platform.ByName) the job runs
	// on; empty means the default h100-tdx testbed. The profile seeds the
	// base configuration before Mode and Overrides apply. Mutually
	// exclusive with an explicit Config (which already carries its params).
	Platform string `json:",omitempty"`

	// Overrides patch named parameters of the default config, in order.
	Overrides []Override `json:",omitempty"`

	// Config, when non-nil, replaces the default h100-tdx system as the base
	// configuration (Mode and Overrides still apply on top).
	Config *cuda.Config `json:",omitempty"`

	// NoCache marks a job whose result must not be memoized (e.g. fig4b
	// measures wall-clock crypto throughput on the build machine).
	NoCache bool `json:",omitempty"`
}

// WorkloadJob builds a benchmark-application job under the paper's on/off
// switch: cc selects the measured "tdx-h100" mode, else "off". Set Mode
// afterwards for any other protection mode.
func WorkloadJob(name string, uvm, cc bool, overrides ...Override) Job {
	mode := "off"
	if cc {
		mode = "tdx-h100"
	}
	return Job{Kind: KindWorkload, Workload: name, UVM: uvm, Mode: mode, Overrides: overrides}
}

// FigureJob builds a figure-regeneration job. Prefer figures.Jobs, which
// also marks machine-measuring figures NoCache.
func FigureJob(id string) Job { return Job{Kind: KindFigure, Figure: id} }

// CNNJob builds a Fig. 13 CNN-training job under the named protection mode.
func CNNJob(model string, batch int, precision, mode string, overrides ...Override) Job {
	return Job{Kind: KindCNN, Model: model, Batch: batch, Precision: precision, Mode: mode, Overrides: overrides}
}

// LLMJob builds a Fig. 14 LLM-serving job under the named protection mode.
func LLMJob(backend, quant string, batch int, mode string, overrides ...Override) Job {
	return Job{Kind: KindLLM, Backend: backend, Quant: quant, Batch: batch, Mode: mode, Overrides: overrides}
}

// ServeJob builds a request-level serving-traffic job (internal/serve): an
// open-loop run at the given offered rate. Mode defaults to off; set Job.Mode
// or expand with GridModes for the protection-mode axis, and GridServeRates
// for a latency-vs-load sweep.
func ServeJob(backend, quant string, rateQPS float64, overrides ...Override) Job {
	return Job{Kind: KindServe, Backend: backend, Quant: quant, RateQPS: rateQPS, Overrides: overrides}
}

// Label is a short human-readable identifier for sweep tables and logs.
func (j Job) Label() string { return j.label(true) }

// label builds Label, with or without the protection-mode segment; without
// it, every mode of one sweep point shares a label.
func (j Job) label(withMode bool) string {
	var b strings.Builder
	switch j.Kind {
	case KindWorkload:
		b.WriteString(j.Workload)
		if j.UVM {
			b.WriteString("/uvm")
		}
	case KindFigure:
		b.WriteString(j.Figure)
	case KindCNN:
		fmt.Fprintf(&b, "%s/b%d/%s", j.Model, j.Batch, j.Precision)
	case KindLLM:
		fmt.Fprintf(&b, "%s/%s/b%d", j.Backend, j.Quant, j.Batch)
	case KindServe:
		fmt.Fprintf(&b, "serve/%s/%s/r%g", j.Backend, j.Quant, j.RateQPS)
	default:
		fmt.Fprintf(&b, "invalid(%s)", j.Kind)
	}
	if j.Kind != KindFigure {
		if withMode {
			mode := j.Mode
			if mode == "" {
				mode = "off"
			}
			b.WriteString("/")
			b.WriteString(mode)
		}
		if j.Platform != "" {
			b.WriteString("@")
			b.WriteString(j.Platform)
		}
	}
	for _, o := range j.Overrides {
		b.WriteString("/")
		b.WriteString(o.String())
	}
	return b.String()
}

// Validate checks the job spec without running it — every referenced name
// (workload, model, precision, backend, quantization, protection mode,
// platform) must resolve and every override must apply, so a bad name
// fails before any job runs rather than mid-sweep.
func (j Job) Validate() error {
	switch j.Kind {
	case KindWorkload:
		if _, err := workloads.ByName(j.Workload); err != nil {
			return err
		}
	case KindFigure:
		if j.Figure == "" {
			return fmt.Errorf("batch: figure job without a figure id")
		}
		if len(j.Overrides) > 0 || j.Config != nil || j.Mode != "" || j.Platform != "" {
			return fmt.Errorf("batch: figure %s takes no config overrides (figures fix their own configurations)", j.Figure)
		}
	case KindCNN:
		if j.Model == "" || j.Batch <= 0 || j.Precision == "" {
			return fmt.Errorf("batch: cnn job needs model, batch and precision: %+v", j)
		}
		if _, err := nn.ModelByName(j.Model); err != nil {
			return err
		}
		if _, err := nn.PrecisionByName(j.Precision); err != nil {
			return err
		}
	case KindLLM:
		if j.Backend == "" || j.Quant == "" || j.Batch <= 0 {
			return fmt.Errorf("batch: llm job needs backend, quant and batch: %+v", j)
		}
		if _, err := nn.BackendByName(j.Backend); err != nil {
			return err
		}
		if _, err := nn.QuantByName(j.Quant); err != nil {
			return err
		}
	case KindServe:
		if j.Backend == "" || j.Quant == "" || j.RateQPS <= 0 {
			return fmt.Errorf("batch: serve job needs backend, quant and a positive rate: %+v", j)
		}
		if _, err := nn.BackendByName(j.Backend); err != nil {
			return err
		}
		if _, err := nn.QuantByName(j.Quant); err != nil {
			return err
		}
		if j.Requests < 0 {
			return fmt.Errorf("batch: serve job with negative request count: %+v", j)
		}
	default:
		return fmt.Errorf("batch: unknown job kind %q", j.Kind)
	}
	if j.Platform != "" && j.Config != nil {
		return fmt.Errorf("batch: job sets both Platform %q and an explicit Config; the config already carries its platform", j.Platform)
	}
	_, err := j.EffectiveConfig()
	return err
}

// EffectiveConfig resolves the full system configuration the job runs under:
// the base config (Config, the Platform profile, or the default h100-tdx
// system), Mode applied on top, then Overrides in order, and finally
// normalized so every spelling of the same protection mode and platform
// (alias names, the empty mode) hashes and runs identically.
func (j Job) EffectiveConfig() (cuda.Config, error) {
	cfg := cuda.DefaultConfig(false)
	if j.Config != nil {
		cfg = *j.Config
	}
	if j.Platform != "" {
		base, err := cuda.PlatformBase(j.Platform)
		if err != nil {
			return cfg, err
		}
		base.Mode = cfg.Mode
		cfg = base
	}
	if j.Mode != "" {
		cfg.Mode = j.Mode
	}
	for _, o := range j.Overrides {
		if err := ApplyOverride(&cfg, o.Param, o.Value); err != nil {
			return cfg, err
		}
	}
	return cfg.Normalize()
}

// GridModes expands every job once per protection-mode name — the cc.mode
// sweep axis of cmd/hccsweep. Setting Mode replaces the job's own mode, so
// jobs that differed only in mode (the -modes list) collapse to the same
// cache key; GridModes drops those duplicates (first occurrence wins) —
// otherwise whether a duplicate reports Cached depends on worker
// scheduling and sweep output stops being byte-identical across -parallel
// levels. Jobs whose key cannot be computed are kept for Validate to
// report.
func GridModes(jobs []Job, modes []string) []Job {
	out := make([]Job, 0, len(jobs)*len(modes))
	seen := make(map[string]bool, len(jobs)*len(modes))
	for _, j := range jobs {
		for _, m := range modes {
			nj := j
			nj.Mode = m
			if key, err := nj.Key(); err == nil {
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out = append(out, nj)
		}
	}
	return out
}

// GridPlatforms expands every job once per hardware platform — the
// hw.platform sweep axis of cmd/hccsweep. Jobs keep their Mode, so an
// illegal mode×platform pair fails Validate before any job runs. Like
// GridModes, jobs collapsing to the same cache key are dropped (first
// occurrence wins) so sweep output stays byte-identical across -parallel
// levels; unknown platform names are kept for Validate to report.
func GridPlatforms(jobs []Job, platforms []string) []Job {
	out := make([]Job, 0, len(jobs)*len(platforms))
	seen := make(map[string]bool, len(jobs)*len(platforms))
	for _, j := range jobs {
		for _, name := range platforms {
			nj := j
			nj.Platform = name
			if key, err := nj.Key(); err == nil {
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out = append(out, nj)
		}
	}
	return out
}

// GridServeRates expands every serving job once per offered rate — the
// serve.rate sweep axis of cmd/hccsweep. Non-serve jobs pass through
// unchanged (the rate axis has no meaning for them).
func GridServeRates(jobs []Job, rates []float64) []Job {
	out := make([]Job, 0, len(jobs)*len(rates))
	for _, j := range jobs {
		if j.Kind != KindServe {
			out = append(out, j)
			continue
		}
		for _, r := range rates {
			nj := j
			nj.RateQPS = r
			out = append(out, nj)
		}
	}
	return out
}

// Grid expands every job once per value of the named parameter — the
// cartesian building block of cmd/hccsweep. Applying Grid repeatedly with
// different parameters yields the full cross product.
func Grid(jobs []Job, param string, values []float64) []Job {
	out := make([]Job, 0, len(jobs)*len(values))
	for _, j := range jobs {
		for _, v := range values {
			nj := j
			nj.Overrides = append(append([]Override{}, j.Overrides...), Override{Param: param, Value: v})
			out = append(out, nj)
		}
	}
	return out
}
