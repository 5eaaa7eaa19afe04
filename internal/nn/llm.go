package nn

import (
	"fmt"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/sim"
)

// Backend selects the serving framework of Fig. 14.
type Backend int

// Serving backends.
const (
	HF   Backend = iota // HuggingFace transformers, eager mode
	VLLM                // vLLM with paged attention and fused kernels
)

func (b Backend) String() string {
	if b == VLLM {
		return "vllm"
	}
	return "hf"
}

// Quant selects the weight format.
type Quant int

// Weight formats of Fig. 14.
const (
	BF16 Quant = iota
	AWQ        // 4-bit activation-aware weight quantization
)

func (q Quant) String() string {
	if q == AWQ {
		return "awq"
	}
	return "bf16"
}

// Llama-3-8B decode-phase constants.
const (
	llamaLayers     = 32
	llamaParams     = 8e9
	bf16WeightBytes = int64(16) << 30 // 2 B/param
	awqWeightBytes  = int64(5) << 30  // ~4.4 bit/param effective

	// Decode compute: 2 FLOPs per parameter per generated token.
	flopsPerToken = 2 * llamaParams
)

// backendProfile captures how a serving framework schedules a decode step.
type backendProfile struct {
	// kernelsPerStep is the launch count of one decode step.
	kernelsPerStep int
	// hostPerStep is framework CPU work per step (Python dispatch for HF
	// eager; the scheduler loop for vLLM).
	hostPerStep time.Duration
	// hostPerStepCC is the extra host work under CC (the framework's many
	// small driver interactions are hypercall-mediated).
	hostPerStepCC time.Duration
	// batchEfficiency is the fraction of batch slots doing useful work
	// (static batching pads; continuous batching does not).
	batchEfficiency float64
	// tensorTFLOPs is the achieved decode GEMM rate.
	tensorTFLOPs float64
}

func profileOf(b Backend) backendProfile {
	if b == VLLM {
		return backendProfile{
			kernelsPerStep:  96, // fused qkv/mlp + paged attention
			hostPerStep:     900 * time.Microsecond,
			hostPerStepCC:   250 * time.Microsecond,
			batchEfficiency: 1.0,
			tensorTFLOPs:    240,
		}
	}
	return backendProfile{
		kernelsPerStep:  300, // eager per-op launches
		hostPerStep:     14 * time.Millisecond,
		hostPerStepCC:   3500 * time.Microsecond,
		batchEfficiency: 0.78,
		tensorTFLOPs:    170,
	}
}

// LLMConfig is one Fig. 14 cell.
type LLMConfig struct {
	Backend Backend
	Quant   Quant
	Batch   int
	// Mode names the protection mode (ccmode.ByName); empty means off.
	Mode string
}

func (c LLMConfig) String() string {
	mode := c.Mode
	if mode == "" {
		mode = "off"
	}
	return fmt.Sprintf("%s|%s|%s|b%d", c.Quant, mode, c.Backend, c.Batch)
}

// LLMResult is the measured decode throughput.
type LLMResult struct {
	Config       LLMConfig
	StepTime     time.Duration
	TokensPerSec float64
}

// BackendByName parses a serving-backend name ("hf" or "vllm").
func BackendByName(name string) (Backend, error) {
	switch name {
	case "hf":
		return HF, nil
	case "vllm":
		return VLLM, nil
	}
	return HF, fmt.Errorf("nn: unknown LLM backend %q (want hf or vllm)", name)
}

// QuantByName parses a weight-format name ("bf16" or "awq").
func QuantByName(name string) (Quant, error) {
	switch name {
	case "bf16":
		return BF16, nil
	case "awq":
		return AWQ, nil
	}
	return BF16, fmt.Errorf("nn: unknown quantization %q (want bf16 or awq)", name)
}

// LLMSimulate runs decode steps of batched generation on the simulated
// system and returns steady-state throughput (tokens/second), the Fig. 14
// metric. Weight loading is done once before measurement, as serving
// frameworks amortize it away. It panics on an unknown cfg.Mode name,
// mirroring cuda.New's fatal-config contract.
func LLMSimulate(cfg LLMConfig) LLMResult {
	return LLMSimulateWith(cfg, sysConfig(cfg.Mode))
}

// LLMSimulateWith is LLMSimulate on an explicit system configuration — the
// entry point parameter sweeps use to vary substrate constants. The system
// config's resolved protection mode is authoritative and is written back to
// cfg.Mode. It panics on an unresolvable sys mode, mirroring
// cuda.New's fatal-config contract.
func LLMSimulateWith(cfg LLMConfig, sys cuda.Config) LLMResult {
	mode, err := sys.ResolveMode()
	if err != nil {
		panic("nn: " + err.Error())
	}
	cfg.Mode = mode.Name()
	eng := sim.NewEngine()
	rt := cuda.New(eng, sys)
	prof := profileOf(cfg.Backend)

	weightBytes := WeightBytes(cfg.Quant)

	const warmup, measured = 1, 4
	var stepTime time.Duration

	eng.Spawn("llm:"+cfg.String(), func(p *sim.Proc) {
		c := rt.Bind(p)
		// KV cache and weights live on-device; decode reads all weights
		// once per step (memory-bound) and computes batch GEMMs.
		weights := c.Malloc("weights", weightBytes)
		_ = weights
		out := c.HostBuffer("tokens", 1<<20)
		dOut := c.Malloc("dout", 1<<20)

		specs := DecodeSpecs(cfg.Backend, cfg.Quant, cfg.Batch)

		var start sim.Time
		for step := 0; step < warmup+measured; step++ {
			if step == warmup {
				start = p.Now()
			}
			p.Sleep(prof.hostPerStep)
			if mode.MMIOTraps() {
				p.Sleep(prof.hostPerStepCC)
			}
			for _, s := range specs {
				c.Launch(s, nil)
			}
			c.Sync()
			// Sampled token ids come back to the host every step.
			c.Memcpy(out, dOut, int64(cfg.Batch)*4)
		}
		stepTime = time.Duration(p.Now()-start) / measured
	})
	eng.Run()

	tokens := float64(cfg.Batch) * prof.batchEfficiency
	return LLMResult{
		Config:       cfg,
		StepTime:     stepTime,
		TokensPerSec: tokens / stepTime.Seconds(),
	}
}

// grid returns the decode kernel grid: serving kernels use split-K style
// decomposition, so even batch-1 GEMVs saturate the device (the achieved
// rate is already folded into the backend profile).
func grid(batch int) int { return 2048 }

// Batches are the Fig. 14 batch sizes.
var Batches = []int{1, 8, 16, 32, 64, 128}
