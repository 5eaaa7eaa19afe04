package batch

import (
	"fmt"
	"sync"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/nn"
	"hccsim/internal/serve"
	"hccsim/internal/tab"
	"hccsim/internal/trace"
	"hccsim/internal/workloads"
)

// Payload is the simulation output of one job. Exactly the fields relevant
// to the job's kind are set; the JSON encoding of this struct is the
// canonical cached form, so changing it requires a cacheVersion bump.
type Payload struct {
	// Elapsed is the simulated end-to-end time of the run.
	Elapsed time.Duration
	// Model and Metrics are set for workload jobs.
	Model   *core.Model    `json:",omitempty"`
	Metrics *trace.Metrics `json:",omitempty"`
	// Table is set for figure jobs.
	Table *tab.Table `json:",omitempty"`
	// CNN / LLM are set for the respective training/serving jobs.
	CNN *nn.TrainResult `json:",omitempty"`
	LLM *nn.LLMResult   `json:",omitempty"`
	// Serve is set for request-level serving-traffic jobs.
	Serve *serve.Report `json:",omitempty"`
}

// Runner executes one kind of job. The workload, CNN and LLM runners are
// built in; the figure runner is registered by the figures package at init
// (batch cannot import figures — figures routes its generation through this
// package's pool).
type Runner func(Job) (Payload, error)

var runners = struct {
	sync.RWMutex
	m map[Kind]Runner
}{m: make(map[Kind]Runner)}

// RegisterRunner installs the executor for a job kind; later registrations
// replace earlier ones.
func RegisterRunner(k Kind, r Runner) {
	runners.Lock()
	defer runners.Unlock()
	runners.m[k] = r
}

func runnerFor(k Kind) (Runner, error) {
	runners.RLock()
	defer runners.RUnlock()
	r, ok := runners.m[k]
	if !ok {
		if k == KindFigure {
			return nil, fmt.Errorf("batch: no runner for figure jobs (import hccsim/internal/figures to register it)")
		}
		return nil, fmt.Errorf("batch: no runner registered for job kind %q", k)
	}
	return r, nil
}

func init() {
	RegisterRunner(KindWorkload, runWorkload)
	RegisterRunner(KindCNN, runCNN)
	RegisterRunner(KindLLM, runLLM)
	RegisterRunner(KindServe, runServe)
}

func runWorkload(j Job) (Payload, error) {
	spec, err := workloads.ByName(j.Workload)
	if err != nil {
		return Payload{}, err
	}
	cfg, err := j.EffectiveConfig()
	if err != nil {
		return Payload{}, err
	}
	mode := workloads.CopyExecute
	if j.UVM {
		mode = workloads.UVM
	}
	res := workloads.Execute(spec, mode, cfg)
	model := core.Decompose(res.Runtime.Tracer())
	met := res.Runtime.Metrics()
	return Payload{Elapsed: time.Duration(res.End), Model: &model, Metrics: &met}, nil
}

func runCNN(j Job) (Payload, error) {
	m, err := nn.ModelByName(j.Model)
	if err != nil {
		return Payload{}, err
	}
	prec, err := nn.PrecisionByName(j.Precision)
	if err != nil {
		return Payload{}, err
	}
	cfg, err := j.EffectiveConfig()
	if err != nil {
		return Payload{}, err
	}
	r := nn.TrainSimulateWith(nn.TrainConfig{Model: m, Batch: j.Batch, Precision: prec}, cfg)
	return Payload{Elapsed: r.IterTime, CNN: &r}, nil
}

func runLLM(j Job) (Payload, error) {
	backend, err := nn.BackendByName(j.Backend)
	if err != nil {
		return Payload{}, err
	}
	quant, err := nn.QuantByName(j.Quant)
	if err != nil {
		return Payload{}, err
	}
	cfg, err := j.EffectiveConfig()
	if err != nil {
		return Payload{}, err
	}
	r := nn.LLMSimulateWith(nn.LLMConfig{Backend: backend, Quant: quant, Batch: j.Batch}, cfg)
	return Payload{Elapsed: r.StepTime, LLM: &r}, nil
}

func runServe(j Job) (Payload, error) {
	cfg, err := j.EffectiveConfig()
	if err != nil {
		return Payload{}, err
	}
	r, err := serve.Run(serve.Config{
		Backend:  j.Backend,
		Quant:    j.Quant,
		System:   &cfg,
		RateQPS:  j.RateQPS,
		Requests: j.Requests,
		Seed:     j.Seed,
	})
	if err != nil {
		return Payload{}, err
	}
	return Payload{Elapsed: r.MakespanSim, Serve: &r}, nil
}
