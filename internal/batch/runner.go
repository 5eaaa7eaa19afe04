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

// The runners simulate one resolved job: Job.resolve looked up its names
// and built its configuration, so none of them resolves anything.

func runWorkload(r resolved) (Payload, error) {
	mode := workloads.CopyExecute
	if r.job.UVM {
		mode = workloads.UVM
	}
	res := workloads.Execute(r.spec, mode, r.cfg)
	model := core.Decompose(res.Runtime.Tracer())
	met := res.Runtime.Metrics()
	return Payload{Elapsed: time.Duration(res.End), Model: &model, Metrics: &met}, nil
}

func runCNN(r resolved) (Payload, error) {
	res := nn.TrainSimulateWith(r.train, r.cfg)
	return Payload{Elapsed: res.IterTime, CNN: &res}, nil
}

func runLLM(r resolved) (Payload, error) {
	res := nn.LLMSimulateWith(r.llm, r.cfg)
	return Payload{Elapsed: res.StepTime, LLM: &res}, nil
}

func runServe(r resolved) (Payload, error) {
	j := r.job
	res, err := serve.Run(serve.Config{
		Backend:  j.Backend,
		Quant:    j.Quant,
		System:   &r.cfg,
		RateQPS:  j.RateQPS,
		Requests: j.Requests,
		Seed:     j.Seed,
	})
	if err != nil {
		return Payload{}, err
	}
	return Payload{Elapsed: res.MakespanSim, Serve: &res}, nil
}
