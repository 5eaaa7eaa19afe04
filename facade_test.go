package hccsim

// Tests for the options-based facade (Spec/Configure/Run/Train/Serve), its
// error contract, and the observability layer's golden Chrome-trace
// exports. The simulator is deterministic, so a trace must be byte-identical
// run over run and across versions; regenerate the goldens after an
// intentional timing or instrumentation change with:
//
//	go test . -run GoldenChromeTraces -update
import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hccsim/internal/batch"
	"hccsim/internal/cuda"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// traceModes are the protection modes pinned by golden traces: every
// canonical mode plus the pipelined decorator on the software-crypto path.
var traceModes = []string{"off", "tdx-h100", "tee-io-direct", "tee-io-bridge", "tdx-h100+pipelined"}

// TestGoldenChromeTraces byte-compares the Chrome trace of one small
// workload (gemm: one launch, two copies) per mode against a committed
// golden, after checking three repeat runs export identically.
func TestGoldenChromeTraces(t *testing.T) {
	for _, mode := range traceModes {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			render := func() []byte {
				o := NewObserver()
				if _, err := RunObserved("gemm", Spec{Mode: mode}, o); err != nil {
					t.Fatal(err)
				}
				return o.ChromeTrace()
			}
			got := render()
			for i := 0; i < 2; i++ {
				if again := render(); !bytes.Equal(got, again) {
					t.Fatalf("trace export differs across repeats (run %d)", i+2)
				}
			}
			path := filepath.Join("testdata", "trace-"+strings.ReplaceAll(mode, "+", "-")+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s trace drifted from golden %s (%d vs %d bytes); rerun with -update if intentional",
					mode, path, len(got), len(want))
			}
		})
	}
}

// TestTrainServePlatforms checks Train and Serve model the h100-tdx testbed
// only.
func TestTrainServePlatforms(t *testing.T) {
	if _, err := Train("resnet50", 64, "amp", Spec{Platform: "b300-bridge", Mode: "tee-io-bridge"}); err == nil {
		t.Error("Train accepted a non-h100-tdx platform")
	}
	if _, err := Serve("vllm", "awq", 8, Spec{Platform: "b300-bridge", Mode: "tee-io-bridge"}); err == nil {
		t.Error("Serve accepted a non-h100-tdx platform")
	}
}

// TestUnknownValueErrors checks every unknown-name error names the legal
// values and matches the ErrUnknownValue sentinel through errors.Is.
func TestUnknownValueErrors(t *testing.T) {
	_, err := Train("resnet50", 64, "int8", Spec{})
	if !errors.Is(err, ErrUnknownValue) {
		t.Fatalf("Train precision error %v does not match ErrUnknownValue", err)
	}
	if !strings.Contains(err.Error(), "fp32") || !strings.Contains(err.Error(), "amp") {
		t.Errorf("precision error does not list legal values: %v", err)
	}
	_, err = Serve("tensorrt", "bf16", 8, Spec{})
	if !errors.Is(err, ErrUnknownValue) {
		t.Fatalf("Serve backend error %v does not match ErrUnknownValue", err)
	}
	if !strings.Contains(err.Error(), "vllm") {
		t.Errorf("backend error does not list legal values: %v", err)
	}
	_, err = Serve("vllm", "int4", 8, Spec{})
	if !errors.Is(err, ErrUnknownValue) {
		t.Fatalf("Serve quant error %v does not match ErrUnknownValue", err)
	}
	if !strings.Contains(err.Error(), "bf16") || !strings.Contains(err.Error(), "awq") {
		t.Errorf("quant error does not list legal values: %v", err)
	}
	// Unknown protection modes and platforms are unknown values, including
	// the retired cc/base boolean spellings.
	for _, s := range []Spec{{Mode: "h100"}, {Mode: "cc"}, {Mode: "base"}, {Platform: "dgx"}} {
		if _, err := Configure(s); !errors.Is(err, ErrUnknownValue) {
			t.Errorf("Configure(%+v) = %v, want an ErrUnknownValue error", s, err)
		}
	}
	// An illegal mode x platform pair is not an unknown value.
	if _, err := Configure(Spec{Platform: "b300-bridge", Mode: "tdx-h100"}); err == nil || errors.Is(err, ErrUnknownValue) {
		t.Errorf("Configure(tdx-h100 on b300-bridge) = %v, want a non-sentinel error", err)
	}
	// The retired TEEIO override alias is an unknown parameter.
	cfg, err := Configure(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.ApplyOverride(&cfg, "TEEIO", 1); err == nil || !strings.Contains(err.Error(), "unknown config parameter") {
		t.Errorf("ApplyOverride(TEEIO) = %v, want an unknown-parameter error", err)
	}
	// Unrelated errors must not match the sentinel.
	if _, err := Run("nope", Spec{}); errors.Is(err, ErrUnknownValue) {
		t.Error("unknown-workload error wrongly matches ErrUnknownValue")
	}
}

// TestRunEConsumed checks the error-returning run path: one run works, the
// second reports ErrRunConsumed instead of panicking.
func TestRunEConsumed(t *testing.T) {
	sys := NewSystem(cuda.DefaultConfig(false))
	app := func(c *Context) {
		d := c.Malloc("d", 1<<20)
		c.Free(d)
	}
	d, err := sys.RunE(app)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("RunE elapsed %v, want > 0", d)
	}
	if _, err := sys.RunE(app); !errors.Is(err, ErrRunConsumed) {
		t.Fatalf("second RunE = %v, want ErrRunConsumed", err)
	}
}

// TestSystemObserve checks the session-style observability hook: Observe is
// idempotent, spans land during the run, and the end-of-run metrics are
// published into the observer's registry.
func TestSystemObserve(t *testing.T) {
	sys := NewSystem(cuda.DefaultConfig(true))
	o := sys.Observe()
	if o == nil || sys.Observe() != o {
		t.Fatal("Observe not idempotent")
	}
	sys.Run(func(c *Context) {
		h := c.HostBuffer("in", 8<<20)
		d := c.Malloc("buf", 8<<20)
		c.Memcpy(d, h, 8<<20)
		c.Free(d)
	})
	if o.Spans() == 0 {
		t.Fatal("no spans recorded through System.Observe")
	}
	var sawEvents bool
	o.Metrics().Each(func(m MetricPoint) {
		if m.Name == "sim.events_fired" && m.Value > 0 {
			sawEvents = true
		}
	})
	if !sawEvents {
		t.Error("sim.events_fired gauge missing from published metrics")
	}
	trace := o.ChromeTrace()
	if !bytes.Contains(trace, []byte(`"cuda-api"`)) || !bytes.Contains(trace, []byte(`"ph":"X"`)) {
		t.Errorf("chrome trace missing expected content:\n%s", trace)
	}
}
