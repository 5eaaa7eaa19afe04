package nn

import (
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/sim"
)

// Prefill-phase modelling: the paper evaluates steady-state decode
// throughput only; time-to-first-token (TTFT) adds two CC-sensitive
// components it leaves unexamined — the compute-bound prompt pass (nearly
// CC-neutral) and, on a cold start, loading 16 GB of weights through the
// encrypted copy path (very much not neutral).

// PrefillResult reports one prefill measurement.
type PrefillResult struct {
	Backend    Backend
	Quant      Quant
	PromptLen  int
	WarmTTFT   time.Duration // prompt pass + first decode step, weights resident
	WeightLoad time.Duration // H2D time for the full weight set
	ColdTTFT   time.Duration // WeightLoad + WarmTTFT
}

// PrefillSimulate measures warm TTFT and the cold-start weight load for one
// configuration on the simulator.
func PrefillSimulate(backend Backend, quant Quant, promptLen int, cc bool) PrefillResult {
	return PrefillSimulateWith(backend, quant, promptLen, cuda.DefaultConfig(cc))
}

// PrefillSimulateWith is PrefillSimulate on an explicit system
// configuration; the protection mode is resolved from sys. It panics on an
// unresolvable sys mode, mirroring cuda.New's fatal-config contract.
func PrefillSimulateWith(backend Backend, quant Quant, promptLen int, sys cuda.Config) PrefillResult {
	mode, err := sys.ResolveMode()
	if err != nil {
		panic("nn: " + err.Error())
	}
	prof := profileOf(backend)
	weightBytes := WeightBytes(quant)
	computeScale := computeScaleOf(quant)

	eng := sim.NewEngine()
	rt := cuda.New(eng, sys)
	var warm, load time.Duration

	eng.Spawn("prefill", func(p *sim.Proc) {
		c := rt.Bind(p)
		// Cold start: the serving framework streams the checkpoint to the
		// device (pinned staging buffers, so CC demotes them to encrypted
		// paging). Loaded in 1 GiB shards as loaders do.
		host := c.MallocHost("ckpt-shard", 1<<30)
		dev := c.Malloc("weights", weightBytes)
		t0 := p.Now()
		for off := int64(0); off < weightBytes; off += 1 << 30 {
			n := int64(1 << 30)
			if weightBytes-off < n {
				n = weightBytes - off
			}
			c.Memcpy(dev, host, n)
		}
		load = time.Duration(p.Now() - t0)

		// Warm TTFT: one prefill pass over the prompt (compute-bound GEMMs
		// re-reading the weights) plus one decode step.
		specs := PrefillSpecs(backend, quant, promptLen)
		t1 := p.Now()
		p.Sleep(prof.hostPerStep)
		if mode.MMIOTraps() {
			p.Sleep(prof.hostPerStepCC)
		}
		for _, s := range specs {
			c.Launch(s, nil)
		}
		c.Sync()
		// First decode step (batch 1).
		decode := gpu.KernelSpec{
			Name: "decode.first", Blocks: 2048, ThreadsPerBlock: 256,
			FLOPs:    flopsPerToken * computeScale / float64(prof.kernelsPerStep) * (60.0 / prof.tensorTFLOPs),
			MemBytes: weightBytes / int64(prof.kernelsPerStep),
		}
		p.Sleep(prof.hostPerStep)
		for i := 0; i < prof.kernelsPerStep; i++ {
			c.Launch(decode, nil)
		}
		c.Sync()
		out := c.HostBuffer("tok", 4096)
		dOut := c.Malloc("dtok", 4096)
		c.Memcpy(out, dOut, 4)
		warm = time.Duration(p.Now() - t1)
	})
	eng.Run()

	return PrefillResult{
		Backend: backend, Quant: quant, PromptLen: promptLen,
		WarmTTFT: warm, WeightLoad: load, ColdTTFT: load + warm,
	}
}
