// Quickstart: run the same small GPU application in a legacy VM and in a
// trust domain, and break the slowdown down with the paper's performance
// model (P = (1-α)·Tmem + Σ(KLO+LQT) + (1-β)·Σ(KET+KQT) + Tother).
package main

import (
	"fmt"
	"time"

	"hccsim"
)

func main() {
	app := func(c *hccsim.Context) {
		const n = 256 << 20 // a 256 MiB working set
		in := c.HostBuffer("input", n)
		out := c.HostBuffer("output", n)
		d := c.Malloc("devbuf", n)

		c.Memcpy(d, in, n) // H2D

		// A little pipeline of kernels: a memory-bound pass, a
		// compute-bound pass, then a reduction.
		c.Launch(hccsim.KernelSpec{Name: "scale", Blocks: 2048, ThreadsPerBlock: 256,
			FLOPs: 6.7e7, MemBytes: 512 << 20}, nil)
		c.Launch(hccsim.KernelSpec{Name: "stencil", Blocks: 2048, ThreadsPerBlock: 256,
			FLOPs: 2e11, MemBytes: 512 << 20}, nil)
		c.Launch(hccsim.KernelSpec{Name: "reduce", Blocks: 2048, ThreadsPerBlock: 256,
			FLOPs: 6.7e7, MemBytes: 256 << 20}, nil)
		c.Sync()

		c.Memcpy(out, d, n) // D2H
		c.Free(d)
	}

	fmt.Println("quickstart: 256 MiB in/out, 3 kernels, H100-class GPU behind PCIe 5.0")
	var totals [2]time.Duration
	for i, mode := range []string{"off", "tdx-h100"} {
		cfg, err := hccsim.Configure(hccsim.Spec{Mode: mode})
		if err != nil {
			panic(err)
		}
		sys := hccsim.NewSystem(cfg)
		elapsed := sys.Run(app)
		totals[i] = elapsed
		label := "off      (legacy VM)  "
		if sys.CC() {
			label = "tdx-h100 (trust domain)"
		}
		m := sys.Model()
		fmt.Printf("\n%s  end-to-end %v\n", label, elapsed)
		fmt.Printf("  %s\n", m)
	}
	fmt.Printf("\nconfidential computing cost this application %.2fx.\n",
		float64(totals[1])/float64(totals[0]))
	fmt.Println("run `hccmodel -app <name>` for any of the 43 benchmark apps,")
	fmt.Println("or `hccreport all` to regenerate every figure of the paper.")
}
