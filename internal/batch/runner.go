package batch

import (
	"time"

	"hccsim/internal/core"
	"hccsim/internal/nn"
	"hccsim/internal/serve"
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
	// CNN / LLM are set for the respective training/serving jobs.
	CNN *nn.TrainResult `json:",omitempty"`
	LLM *nn.LLMResult   `json:",omitempty"`
	// Serve is set for request-level serving-traffic jobs.
	Serve *serve.Report `json:",omitempty"`
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
