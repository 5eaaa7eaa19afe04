package figures

import (
	"testing"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/nn"
	"hccsim/internal/platform"
	"hccsim/internal/sim"
	"hccsim/internal/workloads"
)

// The spelling-identity contract of the protection-mode layer: every
// accepted spelling of a mode (an alias, or the empty name for off) must
// simulate exactly like its canonical name, so that every figure and table
// is unchanged however the mode is spelled. The committed golden files
// anchor the canonical output; these tests pin the other spellings to it.

// spellingPair is an (aliased config, canonical config) pair that must
// simulate identically. The aliased config carries its spelling
// unnormalized, so the runtime itself resolves it.
type spellingPair struct {
	name               string
	aliased, canonical cuda.Config
}

func spellingPairs() []spellingPair {
	var out []spellingPair
	for _, p := range []struct{ alias, canonical string }{
		{"", "off"},
		{"tdx", "tdx-h100"},
		{"tee-io", "tee-io-bridge"},
		{"tdx-connect", "tee-io-direct"},
	} {
		aliased := cuda.DefaultConfig(false)
		aliased.Mode = p.alias
		out = append(out, spellingPair{p.alias + "/" + p.canonical, aliased, platformConfig(platform.Default, p.canonical)})
	}
	return out
}

// TestModeSpellingByteIdentity runs representative workloads (explicit-copy
// and UVM) under both spellings of each mode and requires identical end
// times and identical fitted models.
func TestModeSpellingByteIdentity(t *testing.T) {
	apps := []struct {
		name string
		mode workloads.Mode
	}{
		{"gemm", workloads.CopyExecute},
		{"atax", workloads.CopyExecute},
		{"2dconv", workloads.UVM},
	}
	for _, pair := range spellingPairs() {
		for _, app := range apps {
			spec := mustWorkload(app.name)
			aliased := workloads.Execute(spec, app.mode, pair.aliased)
			canonical := workloads.Execute(spec, app.mode, pair.canonical)
			if aliased.End != canonical.End {
				t.Errorf("%s/%s: end time drifted across spellings: aliased %v, canonical %v",
					pair.name, app.name, time.Duration(aliased.End), time.Duration(canonical.End))
			}
			am := core.Decompose(aliased.Runtime.Tracer())
			cm := core.Decompose(canonical.Runtime.Tracer())
			if am != cm {
				t.Errorf("%s/%s: fitted model drifted across spellings:\naliased   %+v\ncanonical %+v",
					pair.name, app.name, am, cm)
			}
		}
	}
}

// TestModeSpellingNN pins the CNN-training and LLM-serving paths the same
// way: an alias must reproduce the canonical name exactly, including the
// canonicalized config echoed in the result.
func TestModeSpellingNN(t *testing.T) {
	model, err := nn.ModelByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	aliasedTrain := nn.TrainSimulate(nn.TrainConfig{Model: model, Batch: 64, Precision: nn.FP32, Mode: "tdx"})
	canonicalTrain := nn.TrainSimulate(nn.TrainConfig{Model: model, Batch: 64, Precision: nn.FP32, Mode: "tdx-h100"})
	if aliasedTrain != canonicalTrain {
		t.Errorf("CNN training drifted across spellings:\naliased   %+v\ncanonical %+v", aliasedTrain, canonicalTrain)
	}
	aliasedLLM := nn.LLMSimulate(nn.LLMConfig{Backend: nn.VLLM, Quant: nn.BF16, Batch: 32, Mode: "tee-io"})
	canonicalLLM := nn.LLMSimulate(nn.LLMConfig{Backend: nn.VLLM, Quant: nn.BF16, Batch: 32, Mode: "tee-io-bridge"})
	if aliasedLLM != canonicalLLM {
		t.Errorf("LLM serving drifted across spellings:\naliased   %+v\ncanonical %+v", aliasedLLM, canonicalLLM)
	}
}

// TestModeSpellingSystem pins the facade-level transfer path: a 256 MiB
// pinned H2D copy must cost exactly the same under every spelling of a
// mode.
func TestModeSpellingSystem(t *testing.T) {
	for _, pair := range spellingPairs() {
		run := func(cfg cuda.Config) time.Duration { return ms256(t, cfg) }
		if a, c := run(pair.aliased), run(pair.canonical); a != c {
			t.Errorf("%s: 256 MiB copy drifted across spellings: aliased %v, canonical %v", pair.name, a, c)
		}
	}
}

func ms256(t *testing.T, cfg cuda.Config) time.Duration {
	t.Helper()
	eng := sim.NewEngine()
	rt := cuda.New(eng, cfg)
	var dur time.Duration
	eng.Spawn("copy", func(p *sim.Proc) {
		c := rt.Bind(p)
		h := c.MallocHost("h", 256<<20)
		d := c.Malloc("d", 256<<20)
		start := p.Now()
		c.Memcpy(d, h, 256<<20)
		dur = time.Duration(p.Now() - start)
	})
	eng.Run()
	return dur
}
