// Package batch is the sweep-orchestration subsystem: it turns independent
// simulator runs — benchmark workloads, CNN training, LLM serving and
// serving-traffic configurations — into Jobs, executes them on a bounded
// worker pool with deterministic result ordering, and memoizes results in a
// content-addressed cache (in-memory plus optional on-disk). Every job is a
// deterministic function of its spec and configuration, so a cached result
// is byte-identical to a fresh run; the package tests assert this.
//
// Layering: batch sits above the simulator layers (cuda, workloads, nn,
// core, trace, serve) and below its consumers: cmd/hccsweep exposes grid
// sweeps over named configuration parameters, and the hccsim facade's
// RunJobs runs any job list.
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
	// empty means off.
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
	case KindCNN:
		fmt.Fprintf(&b, "%s/b%d/%s", j.Model, j.Batch, j.Precision)
	case KindLLM:
		fmt.Fprintf(&b, "%s/%s/b%d", j.Backend, j.Quant, j.Batch)
	case KindServe:
		fmt.Fprintf(&b, "serve/%s/%s/r%g", j.Backend, j.Quant, j.RateQPS)
	default:
		fmt.Fprintf(&b, "invalid(%s)", j.Kind)
	}
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
	_, err := j.resolve()
	return err
}

// resolved is a job with its names looked up and its configuration built:
// what Pool.runOne hashes and runs.
type resolved struct {
	job Job
	cfg cuda.Config
	// The values resolve looked up, one set per kind.
	spec  workloads.Spec
	train nn.TrainConfig
	llm   nn.LLMConfig
	// run is the runner of the job's kind.
	run func(resolved) (Payload, error)
}

// resolve is the one place a job's names are looked up and its effective
// configuration is built. Validate and Pool.runOne both call it once, so a
// bad job fails both with the same error.
func (j Job) resolve() (resolved, error) {
	r := resolved{job: j}
	switch j.Kind {
	case KindWorkload:
		spec, err := workloads.ByName(j.Workload)
		if err != nil {
			return r, err
		}
		r.spec, r.run = spec, runWorkload
	case KindCNN:
		if j.Model == "" || j.Batch <= 0 || j.Precision == "" {
			return r, fmt.Errorf("batch: cnn job needs model, batch and precision: %+v", j)
		}
		m, err := nn.ModelByName(j.Model)
		if err != nil {
			return r, err
		}
		prec, err := nn.PrecisionByName(j.Precision)
		if err != nil {
			return r, err
		}
		r.train, r.run = nn.TrainConfig{Model: m, Batch: j.Batch, Precision: prec}, runCNN
	case KindLLM, KindServe:
		// LLM and serving-traffic jobs name the same backend and quantization.
		switch {
		case j.Kind == KindLLM && (j.Backend == "" || j.Quant == "" || j.Batch <= 0):
			return r, fmt.Errorf("batch: llm job needs backend, quant and batch: %+v", j)
		case j.Kind == KindServe && (j.Backend == "" || j.Quant == "" || j.RateQPS <= 0):
			return r, fmt.Errorf("batch: serve job needs backend, quant and a positive rate: %+v", j)
		}
		backend, err := nn.BackendByName(j.Backend)
		if err != nil {
			return r, err
		}
		quant, err := nn.QuantByName(j.Quant)
		if err != nil {
			return r, err
		}
		if j.Kind == KindServe {
			if j.Requests < 0 {
				return r, fmt.Errorf("batch: serve job with negative request count: %+v", j)
			}
			r.run = runServe
			break
		}
		r.llm, r.run = nn.LLMConfig{Backend: backend, Quant: quant, Batch: j.Batch}, runLLM
	default:
		return r, fmt.Errorf("batch: unknown job kind %q", j.Kind)
	}
	if j.Platform != "" && j.Config != nil {
		return r, fmt.Errorf("batch: job sets both Platform %q and an explicit Config; the config already carries its platform", j.Platform)
	}
	cfg, err := j.EffectiveConfig()
	if err != nil {
		return r, err
	}
	r.cfg = cfg
	return r, nil
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
// jobs that differed only in mode (the -modes list) become duplicates; like
// every Grid function it keeps them, and cmd/hccsweep drops duplicate keys
// before it runs the sweep.
func GridModes(jobs []Job, modes []string) []Job {
	out := make([]Job, 0, len(jobs)*len(modes))
	for _, j := range jobs {
		for _, m := range modes {
			nj := j
			nj.Mode = m
			out = append(out, nj)
		}
	}
	return out
}

// GridPlatforms expands every job once per hardware platform — the
// hw.platform sweep axis of cmd/hccsweep. Jobs keep their Mode, so an
// illegal mode×platform pair fails Validate before any job runs. Aliases of
// one platform expand to duplicate jobs, which cmd/hccsweep drops by key.
func GridPlatforms(jobs []Job, platforms []string) []Job {
	out := make([]Job, 0, len(jobs)*len(platforms))
	for _, j := range jobs {
		for _, name := range platforms {
			nj := j
			nj.Platform = name
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
