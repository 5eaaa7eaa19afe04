package hccsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hccsim/internal/cuda"
)

func TestQuickstartSession(t *testing.T) {
	for _, cc := range []bool{false, true} {
		sys := NewSystem(cuda.DefaultConfig(cc))
		elapsed := sys.Run(func(c *Context) {
			h := c.HostBuffer("in", 64<<20)
			d := c.Malloc("buf", 64<<20)
			c.Memcpy(d, h, 64<<20)
			c.Launch(KernelSpec{Name: "k", FLOPs: 1e10, MemBytes: 128 << 20,
				Blocks: 2048, ThreadsPerBlock: 256}, nil)
			c.Sync()
			c.Memcpy(h, d, 64<<20)
			c.Free(d)
		})
		if elapsed <= 0 {
			t.Fatalf("cc=%v: no simulated time elapsed", cc)
		}
		m := sys.Model()
		if m.Kernels != 1 || m.Launches != 1 {
			t.Fatalf("cc=%v: model counted %d kernels, %d launches", cc, m.Kernels, m.Launches)
		}
		if m.Tmem <= 0 || m.Total <= 0 {
			t.Fatalf("cc=%v: empty model %+v", cc, m)
		}
	}
}

func TestCompareModes(t *testing.T) {
	app := func(c *Context) {
		h := c.HostBuffer("in", 32<<20)
		d := c.Malloc("buf", 32<<20)
		c.Memcpy(d, h, 32<<20)
		for i := 0; i < 10; i++ {
			c.Launch(KernelSpec{Name: "k", Fixed: 100 * time.Microsecond}, nil)
		}
		c.Sync()
		c.Free(d)
	}
	base, cc, ratio := CompareModes(cuda.DefaultConfig(false), app)
	if cc.Total <= base.Total {
		t.Fatalf("CC total (%v) not above base (%v)", cc.Total, base.Total)
	}
	if ratio.Tmem <= 1 || ratio.Total <= 1 {
		t.Fatalf("CC ratios not above 1: %+v", ratio)
	}
	if ratio.KET != 1 {
		t.Fatalf("non-UVM KET ratio %v, want exactly 1", ratio.KET)
	}
}

func TestWorkloadAccess(t *testing.T) {
	if len(Workloads()) < 25 {
		t.Fatalf("%d workloads", len(Workloads()))
	}
	if _, err := WorkloadByName("sc"); err != nil {
		t.Fatal(err)
	}
	m, err := Run("2mm", Spec{Mode: "tdx-h100"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kernels != 2 {
		t.Fatalf("2mm model has %d kernels", m.Kernels)
	}
	if _, err := Run("nope", Spec{}); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestFigureAccess(t *testing.T) {
	if len(FigureIDs()) < 15 {
		t.Fatalf("%d figures", len(FigureIDs()))
	}
	tab, err := Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("fig8 empty")
	}
	if _, err := Figure("bogus"); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

func TestNNAccess(t *testing.T) {
	r, err := Train("resnet50", 64, "fp32", Spec{Mode: "tdx-h100"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 {
		t.Fatalf("bad training result %+v", r)
	}
	if _, err := Train("resnet50", 64, "int8", Spec{Mode: "tdx-h100"}); err == nil {
		t.Fatal("expected error for unknown precision")
	}
	if _, err := Train("alexnet", 64, "fp32", Spec{Mode: "tdx-h100"}); err == nil {
		t.Fatal("expected error for unknown model")
	}
	l, err := Serve("vllm", "awq", 8, Spec{Mode: "tdx-h100"})
	if err != nil {
		t.Fatal(err)
	}
	if l.TokensPerSec <= 0 {
		t.Fatalf("bad LLM result %+v", l)
	}
	if _, err := Serve("tensorrt", "bf16", 8, Spec{Mode: "tdx-h100"}); err == nil {
		t.Fatal("expected error for unknown backend")
	} else if _, ok := err.(*UnknownBackendError); !ok {
		t.Fatalf("want *UnknownBackendError, got %T: %v", err, err)
	}
	if _, err := Serve("vllm", "int4", 8, Spec{Mode: "tdx-h100"}); err == nil {
		t.Fatal("expected error for unknown quantization")
	} else if _, ok := err.(*UnknownQuantError); !ok {
		t.Fatalf("want *UnknownQuantError, got %T: %v", err, err)
	}
}

// TestRunOnce asserts that a System enforces its single-run contract: the
// second Run call must panic with a clear message instead of silently
// reusing consumed engine state.
func TestRunOnce(t *testing.T) {
	sys := NewSystem(cuda.DefaultConfig(false))
	app := func(c *Context) {
		d := c.Malloc("d", 1<<20)
		c.Free(d)
	}
	sys.Run(app)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Run did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Run called twice") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	sys.Run(app)
}

// TestRunJobs drives a small sweep through the facade: fresh vs cached
// results must be byte-identical and keep submission order.
func TestRunJobs(t *testing.T) {
	jobs := []Job{
		{Kind: "workload", Workload: "2mm", Mode: "off"},
		{Kind: "workload", Workload: "2mm", Mode: "tdx-h100",
			Overrides: []Override{{Param: "PCIeGBps", Value: 16}}},
	}
	dir := t.TempDir()
	fresh, err := RunJobs(jobs, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunJobs(jobs, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if fresh[i].Err != nil || cached[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, fresh[i].Err, cached[i].Err)
		}
		if fresh[i].Cached || !cached[i].Cached {
			t.Fatalf("job %d cache flags: fresh=%v cached=%v", i, fresh[i].Cached, cached[i].Cached)
		}
		if !bytes.Equal(fresh[i].Bytes, cached[i].Bytes) {
			t.Fatalf("job %d cached payload differs from fresh run", i)
		}
		if fresh[i].Payload.Model == nil || fresh[i].Payload.Model.Total <= 0 {
			t.Fatalf("job %d empty model", i)
		}
	}
}
