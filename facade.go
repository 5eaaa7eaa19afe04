package hccsim

import (
	"errors"
	"fmt"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/nn"
	"hccsim/internal/obs"
	"hccsim/internal/platform"
	"hccsim/internal/sim"
	"hccsim/internal/workloads"
)

// Spec selects a simulated system for the options-based facade API: which
// hardware platform, which protection mode, and whether workloads use the
// managed-memory (UVM) variant. The zero value is the paper's Table I
// testbed with protection off.
type Spec struct {
	// Platform names the hardware profile (Platforms); "" resolves to the
	// default h100-tdx testbed.
	Platform string
	// Mode names the protection mode (Modes); "" resolves to "off".
	Mode string
	// UVM selects the managed-memory variant for workloads that support it.
	// Only Run and RunObserved consult it; the CNN training and LLM decode
	// models have no managed variant.
	UVM bool
}

// ErrUnknownValue is the sentinel every unknown-name error of this package
// matches: errors.Is(err, hccsim.ErrUnknownValue) is true for
// UnknownPrecisionError, UnknownBackendError, UnknownQuantError and the
// unknown mode and platform errors of Configure.
var ErrUnknownValue = errors.New("hccsim: unknown value")

// ErrRunConsumed is returned by System.RunE when the system has already
// simulated its one run; System.Run panics with the same message.
var ErrRunConsumed = errors.New("hccsim: System.Run called twice; a System simulates one run — build a fresh System (NewSystem) per run")

// Observer is the simulated-time observability layer: a flat log of spans
// on named tracks, an ordered list of end-of-run metrics, and deterministic
// exporters (WriteChromeTrace for Perfetto, WriteSummary for text). Attach
// one to a System with Observe, to a workload run with RunObserved, or to a
// serving run via ServeConfig.Observer. A nil *Observer is valid everywhere
// and records nothing.
type Observer = obs.Observer

// MetricPoint is one end-of-run metric of an Observer.
type MetricPoint = obs.MetricPoint

// NewObserver returns an empty unbound observer, for runs that own their
// engine internally (ServeConfig.Observer); System.Observe and RunObserved
// construct and bind one for the caller.
func NewObserver() *Observer { return obs.New() }

// Configure resolves a Spec into the full layer configuration: the
// platform's calibration under the named protection mode, validated
// against the platform's legal mode set. Errors for unknown mode and
// platform names match ErrUnknownValue.
func Configure(s Spec) (Config, error) {
	if s.Mode != "" {
		if _, err := ccmode.ByName(s.Mode); err != nil {
			return Config{}, fmt.Errorf("%w: %v", ErrUnknownValue, err)
		}
	}
	if _, err := platform.ByName(s.Platform); err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrUnknownValue, err)
	}
	return cuda.PlatformConfig(s.Platform, s.Mode)
}

// Run executes the named workload application on the system the spec
// describes and returns its fitted Section V model.
func Run(name string, s Spec) (Model, error) { return RunObserved(name, s, nil) }

// RunObserved is Run with an observability layer attached for the whole
// run: every substrate opens spans on o and publishes its end-of-run
// counters into o's metrics registry. Export the result with
// o.WriteChromeTrace or o.WriteSummary. A nil o records nothing (Run).
func RunObserved(name string, s Spec, o *Observer) (Model, error) {
	cfg, err := Configure(s)
	if err != nil {
		return Model{}, err
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		return Model{}, err
	}
	mode := workloads.CopyExecute
	if s.UVM {
		mode = workloads.UVM
	}
	res := workloads.ExecuteObserved(spec, mode, cfg, o)
	return core.Decompose(res.Runtime.Tracer()), nil
}

// Train runs one Fig. 13 CNN training configuration under the spec's
// protection mode; model names follow the paper (vgg16, resnet50,
// mobilenetv2, squeezenet, attention92, inceptionv4). The training model is
// calibrated for the Table I h100-tdx testbed, so a Spec naming any other
// platform is an error.
func Train(model string, batch int, precision string, s Spec) (TrainResult, error) {
	cfg, err := Configure(s)
	if err != nil {
		return nn.TrainResult{}, err
	}
	if cfg.Platform != "h100-tdx" {
		return nn.TrainResult{}, fmt.Errorf("hccsim: Train models the Table I h100-tdx testbed; platform %q is not supported", cfg.Platform)
	}
	m, err := nn.ModelByName(model)
	if err != nil {
		return nn.TrainResult{}, err
	}
	prec, err := nn.PrecisionByName(precision)
	if err != nil {
		return nn.TrainResult{}, &UnknownPrecisionError{Precision: precision}
	}
	return nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: batch, Precision: prec, Mode: cfg.Mode}), nil
}

// Serve runs one Fig. 14 steady-state LLM decode configuration (backend
// "hf" or "vllm"; quant "bf16" or "awq") under the spec's protection mode.
// Like Train it models the Table I h100-tdx testbed only. For request-level
// serving under load, use ServeTraffic.
func Serve(backend, quant string, batch int, s Spec) (LLMResult, error) {
	cfg, err := Configure(s)
	if err != nil {
		return nn.LLMResult{}, err
	}
	if cfg.Platform != "h100-tdx" {
		return nn.LLMResult{}, fmt.Errorf("hccsim: Serve models the Table I h100-tdx testbed; platform %q is not supported", cfg.Platform)
	}
	b, err := nn.BackendByName(backend)
	if err != nil {
		return nn.LLMResult{}, &UnknownBackendError{Backend: backend}
	}
	q, err := nn.QuantByName(quant)
	if err != nil {
		return nn.LLMResult{}, &UnknownQuantError{Quant: quant}
	}
	return nn.LLMSimulate(nn.LLMConfig{Backend: b, Quant: q, Batch: batch, Mode: cfg.Mode}), nil
}

// Observe attaches the system's observability layer, creating and binding
// it on first call (idempotent afterwards). Call it before Run; after the
// run the observer holds the full span set and the published metrics, ready
// for WriteChromeTrace/WriteSummary.
func (s *System) Observe() *Observer {
	if s.obs == nil {
		s.obs = obs.New()
		s.obs.Bind(s.eng)
		s.rt.SetObserver(s.obs)
	}
	return s.obs
}

// RunE is Run with an error return instead of the documented panic: a
// second call returns ErrRunConsumed (the System's engine, trace and device
// state are consumed by its one run).
func (s *System) RunE(app func(c *Context)) (time.Duration, error) {
	if s.ran {
		return 0, ErrRunConsumed
	}
	s.ran = true
	start := s.eng.Now()
	s.eng.Spawn("host", func(p *sim.Proc) {
		app(s.rt.Bind(p))
	})
	end := s.eng.Run()
	s.rt.PublishMetrics()
	return end.Sub(start), nil
}

// Is makes errors.Is(err, ErrUnknownValue) match.
func (e *UnknownPrecisionError) Is(target error) bool { return target == ErrUnknownValue }

// Is makes errors.Is(err, ErrUnknownValue) match.
func (e *UnknownBackendError) Is(target error) bool { return target == ErrUnknownValue }

// Is makes errors.Is(err, ErrUnknownValue) match.
func (e *UnknownQuantError) Is(target error) bool { return target == ErrUnknownValue }
