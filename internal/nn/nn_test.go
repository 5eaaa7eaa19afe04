package nn

import "testing"

func TestModelsTable(t *testing.T) {
	ms := Models()
	if len(ms) != 6 {
		t.Fatalf("%d CNN models, want the paper's 6", len(ms))
	}
	for _, m := range ms {
		if m.KernelsPerIter <= 0 || m.FwdGFLOPsPerImage <= 0 || m.EffTFLOPs <= 0 {
			t.Fatalf("%s: bad constants %+v", m.Name, m)
		}
		if m.EffTensorTFLOPs <= m.EffTFLOPs {
			t.Fatalf("%s: tensor rate not above FP32 rate", m.Name)
		}
	}
	if _, err := ModelByName("vgg16"); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelByName("alexnet"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestCNNCCSlowdownShape(t *testing.T) {
	// Observation: batch 64 suffers far more than batch 1024 under CC.
	var drop64, drop1024 float64
	for _, m := range Models() {
		b64 := TrainSimulate(TrainConfig{Model: m, Batch: 64, Precision: FP32})
		b64cc := TrainSimulate(TrainConfig{Model: m, Batch: 64, Precision: FP32, Mode: "tdx-h100"})
		b1k := TrainSimulate(TrainConfig{Model: m, Batch: 1024, Precision: FP32})
		b1kcc := TrainSimulate(TrainConfig{Model: m, Batch: 1024, Precision: FP32, Mode: "tdx-h100"})
		drop64 += 1 - b64cc.Throughput/b64.Throughput
		drop1024 += 1 - b1kcc.Throughput/b1k.Throughput
	}
	drop64 /= 6
	drop1024 /= 6
	// Paper: -24% average at batch 64, -7.3% at 1024.
	if drop64 < 0.12 || drop64 > 0.36 {
		t.Fatalf("batch-64 CC throughput drop %.1f%%, want ~24%%", 100*drop64)
	}
	if drop1024 >= drop64 {
		t.Fatalf("batch-1024 drop (%.1f%%) not below batch-64 drop (%.1f%%)",
			100*drop1024, 100*drop64)
	}
	if drop1024 > 0.2 {
		t.Fatalf("batch-1024 drop %.1f%% too large", 100*drop1024)
	}
}

func TestAMPHurtsSmallBatchHelpsLarge(t *testing.T) {
	var r64, r1024 float64
	for _, m := range Models() {
		fp64 := TrainSimulate(TrainConfig{Model: m, Batch: 64, Precision: FP32, Mode: "tdx-h100"})
		amp64 := TrainSimulate(TrainConfig{Model: m, Batch: 64, Precision: AMP, Mode: "tdx-h100"})
		fp1k := TrainSimulate(TrainConfig{Model: m, Batch: 1024, Precision: FP32, Mode: "tdx-h100"})
		amp1k := TrainSimulate(TrainConfig{Model: m, Batch: 1024, Precision: AMP, Mode: "tdx-h100"})
		r64 += amp64.Throughput / fp64.Throughput
		r1024 += amp1k.Throughput / fp1k.Throughput
	}
	r64 /= 6
	r1024 /= 6
	// Paper: AMP reduces CC throughput ~19.7% at batch 64 but wins at 1024.
	if r64 >= 1.0 {
		t.Fatalf("AMP at batch 64 not slower than FP32 (ratio %.2f)", r64)
	}
	if r1024 <= 1.0 {
		t.Fatalf("AMP at batch 1024 not faster than FP32 (ratio %.2f)", r1024)
	}
}

func TestFP16CutsTrainingTime(t *testing.T) {
	var ratio float64
	for _, m := range Models() {
		fp32 := TrainSimulate(TrainConfig{Model: m, Batch: 1024, Precision: FP32, Mode: "tdx-h100"})
		fp16 := TrainSimulate(TrainConfig{Model: m, Batch: 1024, Precision: FP16, Mode: "tdx-h100"})
		ratio += fp16.TrainingTime.Seconds() / fp32.TrainingTime.Seconds()
	}
	ratio /= 6
	// Paper: FP16 cuts training time by 27.7% on average (ratio 0.723).
	if ratio < 0.55 || ratio > 0.9 {
		t.Fatalf("FP16 training-time ratio %.2f, want ~0.72", ratio)
	}
}

func TestTrainResultProjection(t *testing.T) {
	m, _ := ModelByName("resnet50")
	r := TrainSimulate(TrainConfig{Model: m, Batch: 64, Precision: FP32})
	if r.IterTime <= 0 || r.Throughput <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	iters := (cifarImages + 63) / 64
	if want := r.IterTime * 200 * 782; r.TrainingTime != want || iters != 782 {
		t.Fatalf("training time projection %v, want %v", r.TrainingTime, want)
	}
}

func TestLLMShape(t *testing.T) {
	// vLLM beats HF at every configuration (all Fig 14 values > 1).
	for _, b := range Batches {
		for _, q := range []Quant{BF16, AWQ} {
			for _, mode := range []string{"off", "tdx-h100"} {
				hf := LLMSimulate(LLMConfig{Backend: HF, Quant: q, Batch: b, Mode: mode})
				vl := LLMSimulate(LLMConfig{Backend: VLLM, Quant: q, Batch: b, Mode: mode})
				if vl.TokensPerSec <= hf.TokensPerSec {
					t.Errorf("b=%d %s %s: vLLM (%.0f) not faster than HF (%.0f)",
						b, q, mode, vl.TokensPerSec, hf.TokensPerSec)
				}
			}
		}
	}
}

func TestLLMCCOverheadAndQuantCrossover(t *testing.T) {
	// CC-on is slower than CC-off.
	for _, b := range []int{1, 32, 128} {
		off := LLMSimulate(LLMConfig{Backend: VLLM, Quant: BF16, Batch: b})
		on := LLMSimulate(LLMConfig{Backend: VLLM, Quant: BF16, Batch: b, Mode: "tdx-h100"})
		if on.TokensPerSec >= off.TokensPerSec {
			t.Errorf("b=%d: CC-on (%.0f) not slower than CC-off (%.0f)",
				b, on.TokensPerSec, off.TokensPerSec)
		}
	}
	// AWQ wins at small batch (memory-bound), BF16 at 64/128 (dequant tax).
	awq1 := LLMSimulate(LLMConfig{Backend: VLLM, Quant: AWQ, Batch: 1})
	bf1 := LLMSimulate(LLMConfig{Backend: VLLM, Quant: BF16, Batch: 1})
	if awq1.TokensPerSec <= bf1.TokensPerSec {
		t.Errorf("batch 1: AWQ (%.0f) not faster than BF16 (%.0f)", awq1.TokensPerSec, bf1.TokensPerSec)
	}
	awq128 := LLMSimulate(LLMConfig{Backend: VLLM, Quant: AWQ, Batch: 128})
	bf128 := LLMSimulate(LLMConfig{Backend: VLLM, Quant: BF16, Batch: 128})
	if bf128.TokensPerSec <= awq128.TokensPerSec {
		t.Errorf("batch 128: BF16 (%.0f) not faster than AWQ (%.0f)", bf128.TokensPerSec, awq128.TokensPerSec)
	}
}

func TestLLMThroughputScalesWithBatch(t *testing.T) {
	prev := 0.0
	for _, b := range Batches {
		r := LLMSimulate(LLMConfig{Backend: VLLM, Quant: BF16, Batch: b})
		if r.TokensPerSec <= prev {
			t.Fatalf("throughput not increasing with batch at b=%d (%.0f <= %.0f)",
				b, r.TokensPerSec, prev)
		}
		prev = r.TokensPerSec
	}
}

func TestPrefillShape(t *testing.T) {
	base := PrefillSimulate(VLLM, BF16, 512, false)
	cc := PrefillSimulate(VLLM, BF16, 512, true)
	// Warm TTFT is nearly CC-neutral (on-device compute dominates).
	if ratio := float64(cc.WarmTTFT) / float64(base.WarmTTFT); ratio > 1.25 {
		t.Fatalf("warm TTFT ratio %.2f; prefill should be nearly CC-neutral", ratio)
	}
	// The cold-start weight load is crypto-bound.
	if ratio := float64(cc.WeightLoad) / float64(base.WeightLoad); ratio < 8 {
		t.Fatalf("weight-load ratio %.1f; should be crypto-bound (~16x)", ratio)
	}
	if cc.ColdTTFT != cc.WeightLoad+cc.WarmTTFT {
		t.Fatal("ColdTTFT arithmetic wrong")
	}
	// Longer prompts cost more warm TTFT.
	long := PrefillSimulate(VLLM, BF16, 2048, false)
	if long.WarmTTFT <= base.WarmTTFT {
		t.Fatal("longer prompt not slower")
	}
	// AWQ loads its smaller checkpoint faster.
	awq := PrefillSimulate(VLLM, AWQ, 512, true)
	if awq.WeightLoad >= cc.WeightLoad {
		t.Fatal("AWQ checkpoint load not faster than BF16")
	}
}
