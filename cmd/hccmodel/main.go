// Command hccmodel fits the paper's Section V performance model to an
// application under a protection mode and its unprotected baseline, and
// reports the decomposition, the protected/base component ratios, and the
// Observation 6 classification (launch-bound vs compute-hidden, by
// kernel-to-launch ratio).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/platform"
	"hccsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; main only binds it to the process. It returns
// the exit status (0 success, 1 a bad value, 2 a flag syntax error) so
// tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hccmodel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "application to model (empty = whole suite summary)")
	uvm := fs.Bool("uvm", false, "use the UVM variant")
	ccMode := fs.String("mode", "tdx-h100",
		"protection mode to compare against off: tdx-h100, tee-io-direct, tee-io-bridge (optionally +pipelined)")
	platformName := fs.String("platform", "",
		"hardware platform for both runs: "+strings.Join(platform.Names(), ", ")+" (default h100-tdx)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	prot, err := cuda.PlatformConfig(*platformName, *ccMode)
	if err != nil {
		fmt.Fprintln(stderr, "hccmodel:", err)
		return 1
	}
	// The off baseline runs on the same platform — the comparison isolates
	// the protection mode, not the hardware generation.
	off, err := cuda.PlatformConfig(*platformName, "off")
	if err != nil {
		fmt.Fprintln(stderr, "hccmodel:", err)
		return 1
	}
	if *app != "" {
		spec, err := workloads.ByName(*app)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		one(stdout, spec, *uvm, off, prot)
		return 0
	}
	suite(stdout, off, prot)
	return 0
}

func one(w io.Writer, spec workloads.Spec, uvm bool, off, prot cuda.Config) {
	mode := workloads.CopyExecute
	if uvm {
		mode = workloads.UVM
	}
	base := workloads.Execute(spec, mode, off)
	cc := workloads.Execute(spec, mode, prot)
	mb := core.Decompose(base.Runtime.Tracer())
	mc := core.Decompose(cc.Runtime.Tracer())

	fmt.Fprintf(w, "%s (%s)\n", spec.Name, mode)
	fmt.Fprintf(w, "  off:  %s\n", mb)
	fmt.Fprintf(w, "  %s: %s\n", prot.Mode, mc)
	r := core.Compare(mb, mc)
	fmt.Fprintf(w, "  %s/off ratios: Tmem %.2fx  KLO %.2fx  LQT %.2fx  KQT %.2fx  KET %.2fx  alloc %.2fx  free %.2fx  total %.2fx\n",
		prot.Mode, r.Tmem, r.KLO, r.LQT, r.KQT, r.KET, r.Alloc, r.Free, r.Total)
	fmt.Fprintf(w, "  prediction check: off %v vs %v, %s %v vs %v\n",
		mb.Predict(), mb.Total, prot.Mode, mc.Predict(), mc.Total)
}

func suite(out io.Writer, off, prot cuda.Config) {
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "APP\tKLR(off)\tKLR(%s)\tREGIME\tTOTAL/OFF\n", prot.Mode)
	for _, spec := range workloads.All() {
		base := workloads.Execute(spec, workloads.CopyExecute, off)
		cc := workloads.Execute(spec, workloads.CopyExecute, prot)
		mb := core.Decompose(base.Runtime.Tracer())
		mc := core.Decompose(cc.Runtime.Tracer())
		regime := "compute-hidden"
		if mc.LaunchBound() {
			regime = "launch-bound"
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%s\t%.2fx\n",
			spec.Name, mb.KLR(), mc.KLR(), regime, float64(mc.Total)/float64(mb.Total))
	}
	w.Flush()
}
