package hccsim_test

import (
	"fmt"
	"time"

	"hccsim"
)

// The smallest session: one copy, one kernel, one readback, with the
// confidential-computing slowdown decomposed by the performance model.
func Example() {
	app := func(c *hccsim.Context) {
		h := c.HostBuffer("in", 64<<20)
		d := c.Malloc("buf", 64<<20)
		c.Memcpy(d, h, 64<<20)
		c.Launch(hccsim.KernelSpec{Name: "k", Fixed: 5 * time.Millisecond}, nil)
		c.Sync()
		c.Memcpy(h, d, 64<<20)
		c.Free(d)
	}
	cfg, err := hccsim.Configure(hccsim.Spec{}) // Table I testbed, protection off
	if err != nil {
		panic(err)
	}
	base, cc, ratio := hccsim.CompareModes(cfg, app)
	fmt.Printf("kernels unchanged: %v\n", base.KET == cc.KET)
	fmt.Printf("copies slower under CC: %v\n", ratio.Tmem > 2)
	fmt.Printf("end-to-end slower under CC: %v\n", ratio.Total > 1)
	// Output:
	// kernels unchanged: true
	// copies slower under CC: true
	// end-to-end slower under CC: true
}

// Running one of the paper's benchmark applications and classifying it with
// the kernel-to-launch ratio of Observation 6.
func ExampleRun() {
	m, err := hccsim.Run("sc", hccsim.Spec{Mode: "tdx-h100"}) // streamcluster, CC on
	if err != nil {
		panic(err)
	}
	fmt.Printf("launches: %d\n", m.Launches)
	fmt.Printf("launch-bound: %v\n", m.LaunchBound())
	// Output:
	// launches: 1611
	// launch-bound: true
}

// Reproducing a paper figure programmatically.
func ExampleFigure() {
	tab, err := hccsim.Figure("ext-primitives")
	if err != nil {
		panic(err)
	}
	fmt.Println(tab.ID, len(tab.Columns) > 0, len(tab.Rows) > 0)
	// Output:
	// ext-primitives true true
}

// UVM encrypted paging: the same kernel is orders of magnitude slower when
// its data arrives by on-demand page faults under CC.
func ExampleSystem_Run_uvm() {
	run := func(mode string) time.Duration {
		cfg, err := hccsim.Configure(hccsim.Spec{Mode: mode})
		if err != nil {
			panic(err)
		}
		sys := hccsim.NewSystem(cfg)
		sys.Run(func(c *hccsim.Context) {
			m := c.MallocManaged("m", 32<<20)
			c.Launch(hccsim.KernelSpec{Name: "k", Fixed: time.Millisecond,
				Managed: []hccsim.ManagedAccess{{Range: m.Managed(), Bytes: 32 << 20}}}, nil)
			c.Sync()
			c.Free(m)
		})
		return sys.Metrics().KET
	}
	fmt.Printf("encrypted paging >20x slower: %v\n", run("tdx-h100") > 20*run("off"))
	// Output:
	// encrypted paging >20x slower: true
}
