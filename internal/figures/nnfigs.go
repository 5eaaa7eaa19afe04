package figures

import (
	"fmt"

	"hccsim/internal/cuda"
	"hccsim/internal/nn"
)

// Fig13CNN reproduces Fig. 13: training throughput (img/s) and training
// time (normalized to the non-CC FP32 run at the same batch size) for the
// six CNNs across batch sizes, precisions and CC modes. FP16 is evaluated
// at the large batch only, as in the paper.
func Fig13CNN() Table {
	t := Table{
		ID:    "fig13",
		Title: "CNN training on CIFAR-100 (200 epochs)",
		Columns: []string{"model", "batch", "precision", "mode",
			"throughput-img/s", "norm-training-time"},
	}
	var drop64, drop1024, ampEffect64, fp16Cut float64
	for _, m := range nn.Models() {
		for _, batch := range []int{64, 1024} {
			ref := nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: batch, Precision: nn.FP32})
			precs := []nn.Precision{nn.FP32, nn.AMP}
			if batch == 1024 {
				precs = append(precs, nn.FP16)
			}
			for _, prec := range precs {
				for _, cc := range []bool{false, true} {
					r := nn.TrainSimulateWith(nn.TrainConfig{Model: m, Batch: batch, Precision: prec}, cuda.DefaultConfig(cc))
					mode := "base"
					if cc {
						mode = "cc"
					}
					norm := r.TrainingTime.Seconds() / ref.TrainingTime.Seconds()
					t.AddRow(m.Name, batch, prec.String(), mode, r.Throughput, norm)

					if prec == nn.FP32 && cc {
						if batch == 64 {
							drop64 += 1 - r.Throughput/ref.Throughput
						} else {
							drop1024 += 1 - r.Throughput/ref.Throughput
						}
					}
					if prec == nn.FP16 && cc && batch == 1024 {
						ccFP32 := nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: batch, Precision: nn.FP32, Mode: "tdx-h100"})
						fp16Cut += 1 - r.TrainingTime.Seconds()/ccFP32.TrainingTime.Seconds()
					}
					if prec == nn.AMP && cc && batch == 64 {
						ccFP32 := nn.TrainSimulate(nn.TrainConfig{Model: m, Batch: 64, Precision: nn.FP32, Mode: "tdx-h100"})
						ampEffect64 += 1 - r.Throughput/ccFP32.Throughput
					}
				}
			}
		}
	}
	n := float64(len(nn.Models()))
	t.Notes = append(t.Notes,
		fmt.Sprintf("batch-64 CC throughput drop: %.1f%% avg (paper 24%%, max 36%%)", 100*drop64/n),
		fmt.Sprintf("batch-1024 CC throughput drop: %.1f%% avg (paper 7.3%%)", 100*drop1024/n),
		fmt.Sprintf("AMP at batch 64 under CC costs %.1f%% throughput vs FP32 (paper 19.7%% avg, up to 50%%)", 100*ampEffect64/n),
		fmt.Sprintf("FP16 at batch 1024 cuts CC training time by %.1f%% (paper 27.7%% avg, max 46.1%%)", 100*fp16Cut/n))
	return t
}

// Fig14LLM reproduces Fig. 14: Llama-3-8B decode throughput of vLLM
// expressed as speedup over the BF16 | CC-off | HuggingFace baseline at the
// same batch size.
func Fig14LLM() Table {
	t := Table{
		ID:      "fig14",
		Title:   "vLLM throughput speedup over HF (BF16, CC-off) baseline, Llama-3-8B",
		Columns: []string{"config", "b1", "b8", "b16", "b32", "b64", "b128"},
	}
	type series struct {
		quant nn.Quant
		cc    bool
	}
	all := []series{{nn.BF16, false}, {nn.BF16, true}, {nn.AWQ, false}, {nn.AWQ, true}}
	minSpeedup := 1e18
	for _, s := range all {
		row := []interface{}{fmt.Sprintf("%s|cc-%v|vllm", s.quant, onOff(s.cc))}
		for _, b := range nn.Batches {
			baseline := nn.LLMSimulate(nn.LLMConfig{Backend: nn.HF, Quant: nn.BF16, Batch: b})
			v := nn.LLMSimulateWith(nn.LLMConfig{Backend: nn.VLLM, Quant: s.quant, Batch: b}, cuda.DefaultConfig(s.cc))
			speedup := v.TokensPerSec / baseline.TokensPerSec
			if speedup < minSpeedup {
				minSpeedup = speedup
			}
			row = append(row, speedup)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("all speedups > 1 (min %.2f): vLLM beats HF in every configuration, CC included (Observation 9)", minSpeedup),
		"AWQ wins at small batches (memory-bound decode); BF16 wins at batch 64/128 (dequantization tax)",
		"the paper's BF16 batch-8 CC-on>CC-off anomaly is run-to-run noise; a deterministic simulator cannot reproduce it")
	return t
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
