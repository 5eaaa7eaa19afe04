package hccsim

// Cross-cutting integration tests: determinism of the full stack,
// conservation laws across layers, oversubscription behaviour, and the
// performance-model identity over the entire benchmark suite.

import (
	"bytes"
	"testing"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/sim"
	"hccsim/internal/workloads"
)

// TestDeterminism runs the same application twice and requires the JSON
// trace exports to be byte-identical — the foundational guarantee of the
// simulator.
func TestDeterminism(t *testing.T) {
	dump := func() []byte {
		spec, err := workloads.ByName("srad")
		if err != nil {
			t.Fatal(err)
		}
		res := workloads.Execute(spec, workloads.CopyExecute, cuda.DefaultConfig(true))
		var buf bytes.Buffer
		if err := res.Runtime.Tracer().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := dump()
	b := dump()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different traces")
	}
}

// TestModelIdentityAcrossSuite validates Predict() == Total for every
// application in both modes — the performance model must reconstruct the
// timeline it was fitted to.
func TestModelIdentityAcrossSuite(t *testing.T) {
	for _, spec := range workloads.All() {
		for _, cc := range []bool{false, true} {
			res := workloads.Execute(spec, workloads.CopyExecute, cuda.DefaultConfig(cc))
			m := core.Decompose(res.Runtime.Tracer())
			diff := m.Predict() - m.Total
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.02*float64(m.Total) {
				t.Errorf("%s cc=%v: predict %v vs total %v", spec.Name, cc, m.Predict(), m.Total)
			}
		}
	}
}

// TestByteConservation checks that bytes the platform encrypts equal the
// bytes the link moves H2D for a pure-copy CC application (bounce-buffer
// staging conserves data).
func TestByteConservation(t *testing.T) {
	const n = 128 << 20
	sys := NewSystem(cuda.DefaultConfig(true))
	sys.Run(func(c *Context) {
		h := c.HostBuffer("h", n)
		d := c.Malloc("d", n)
		c.Memcpy(d, h, n)
		c.Free(d)
	})
	rt := sys.Runtime()
	enc := rt.Platform().Stats().BytesEncrypted
	// Module/context traffic rides the same path; encrypted bytes must be
	// at least the payload and within a small envelope above it.
	if enc < n {
		t.Fatalf("encrypted %d < payload %d", enc, n)
	}
	if enc > n+(8<<20) {
		t.Fatalf("encrypted %d far exceeds payload %d", enc, n)
	}
}

// TestUVMOversubscription drives a managed working set larger than the
// resident limit and requires eviction traffic plus forward progress.
func TestUVMOversubscription(t *testing.T) {
	cfg := cuda.DefaultConfig(false)
	sys := NewSystem(cfg)
	sys.Runtime().Device().UVM().SetResidentLimit(64 << 20)
	sys.Run(func(c *Context) {
		a := c.MallocManaged("a", 48<<20)
		b := c.MallocManaged("b", 48<<20)
		for i := 0; i < 3; i++ {
			c.Launch(KernelSpec{Name: "ka", Fixed: time.Microsecond,
				Managed: []ManagedAccess{{Range: a.Managed(), Bytes: 48 << 20}}}, nil)
			c.Launch(KernelSpec{Name: "kb", Fixed: time.Microsecond,
				Managed: []ManagedAccess{{Range: b.Managed(), Bytes: 48 << 20}}}, nil)
		}
		c.Sync()
		c.Free(a)
		c.Free(b)
	})
	st := sys.Runtime().Device().UVM().Stats()
	if st.Evictions == 0 {
		t.Fatal("oversubscribed run produced no evictions")
	}
	if got := sys.Runtime().Device().UVM().ResidentBytes(); got > 64<<20 {
		t.Fatalf("resident bytes %d exceed the limit", got)
	}
}

// TestHypercallAccountingScalesWithLaunches pins down the CC launch tax
// mechanism: fence-read hypercalls grow with the launch count at exactly
// the configured interval.
func TestHypercallAccountingScalesWithLaunches(t *testing.T) {
	countFor := func(launches int) uint64 {
		eng := sim.NewEngine()
		rt := cuda.New(eng, cuda.DefaultConfig(true))
		eng.Spawn("host", func(p *sim.Proc) {
			c := rt.Bind(p)
			for i := 0; i < launches; i++ {
				c.Launch(KernelSpec{Name: "k", Fixed: time.Microsecond}, nil)
			}
			c.Sync()
		})
		eng.Run()
		return rt.Platform().Stats().Hypercalls
	}
	base := countFor(48)
	more := countFor(480)
	want := uint64((480 - 48) / cuda.DefaultConfig(false).Host.FenceInterval)
	if got := more - base; got != want {
		t.Fatalf("hypercall growth %d for 432 extra launches, want %d", got, want)
	}
}

// TestBounceBufferNeverLeaks checks the SWIOTLB pool returns to empty after
// every application in the suite.
func TestBounceBufferNeverLeaks(t *testing.T) {
	for _, spec := range workloads.All() {
		res := workloads.Execute(spec, workloads.CopyExecute, cuda.DefaultConfig(true))
		if used := res.Runtime.Platform().BounceInUse(); used != 0 {
			t.Errorf("%s: %d bounce bytes leaked", spec.Name, used)
		}
	}
}

// TestTEEIOEndToEndThroughFacade drives the TDX Connect projection through
// the public API.
func TestTEEIOEndToEndThroughFacade(t *testing.T) {
	app := func(c *Context) {
		h := c.MallocHost("h", 64<<20)
		d := c.Malloc("d", 64<<20)
		c.Memcpy(d, h, 64<<20)
		c.Free(d)
	}
	stock := NewSystem(cuda.DefaultConfig(true))
	stockT := stock.Run(app)

	cfg, err := Configure(Spec{Mode: "tee-io-direct"})
	if err != nil {
		t.Fatal(err)
	}
	connect := NewSystem(cfg)
	connectT := connect.Run(app)

	if connectT >= stockT/3 {
		t.Fatalf("TEE-IO (%v) not far below stock CC (%v)", connectT, stockT)
	}
	if enc := connect.Runtime().Platform().Stats().BytesEncrypted; enc != 0 {
		t.Fatalf("TEE-IO still software-encrypted %d bytes", enc)
	}
}
