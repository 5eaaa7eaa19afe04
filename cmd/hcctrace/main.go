// Command hcctrace runs one benchmark application on the simulator and
// dumps its Nsight-style trace: the event list (optionally), the
// KLO/LQT/KQT/KET metrics, and the substrate statistics (hypercalls, bytes
// encrypted, fault batches).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/obs"
	"hccsim/internal/trace"
	"hccsim/internal/workloads"
)

func main() {
	app := flag.String("app", "2mm", "application to run (see -list)")
	ccMode := flag.String("mode", "off", "protection mode: off, tdx-h100, tee-io-direct, tee-io-bridge (optionally +pipelined)")
	uvm := flag.Bool("uvm", false, "use the UVM (cudaMallocManaged) variant")
	events := flag.Bool("events", false, "dump every trace event")
	jsonOut := flag.String("json", "", "write the full trace as JSON to this file ('-' for stdout)")
	traceOut := flag.String("trace", "", "write a Perfetto-loadable Chrome trace (simulated-time spans + metrics) to this file ('-' for stdout)")
	summary := flag.Bool("summary", false, "print the per-track span summary (implies span recording)")
	gantt := flag.Bool("gantt", false, "render a Fig-1-style ASCII timeline")
	list := flag.Bool("list", false, "list applications and exit")
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "APP\tSUITE\tLAUNCHES\tUVM")
		for _, s := range workloads.All() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\n", s.Name, s.Suite, s.Launches(), s.UVMCapable)
		}
		w.Flush()
		return
	}

	spec, err := workloads.ByName(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mode := workloads.CopyExecute
	if *uvm {
		if !spec.UVMCapable {
			fmt.Fprintf(os.Stderr, "hcctrace: %s has no UVM variant\n", spec.Name)
			os.Exit(1)
		}
		mode = workloads.UVM
	}
	cfg, err := cuda.NewConfig(*ccMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcctrace:", err)
		os.Exit(1)
	}
	var o *obs.Observer
	if *traceOut != "" || *summary {
		o = obs.New()
	}
	res := workloads.ExecuteObserved(spec, mode, cfg, o)
	rt := res.Runtime

	if *traceOut != "" {
		out := os.Stdout
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := o.WriteChromeTrace(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *traceOut == "-" {
			return // keep stdout pure JSON
		}
		fmt.Printf("chrome trace written to %s (load it at https://ui.perfetto.dev)\n", *traceOut)
	}

	if *summary {
		if err := o.WriteSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := rt.Tracer().WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonOut == "-" {
			return // keep stdout pure JSON
		}
		fmt.Printf("trace written to %s\n", *jsonOut)
	}

	if *events {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "KIND\tNAME\tSTREAM\tSTART\tDURATION\tBYTES\tMANAGED")
		for _, e := range rt.Tracer().Events() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\t%d\t%v\n",
				e.Kind, e.Name, e.Stream, e.Start, e.Duration(), e.Bytes, e.Managed)
		}
		w.Flush()
		fmt.Println()
	}

	if *gantt {
		if err := rt.Tracer().Gantt(os.Stdout, 100); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		u := rt.Tracer().Utilize()
		fmt.Printf("utilization: copy %.0f%%  launch %.0f%%  kernel %.0f%%  fault %.0f%%  mgmt %.0f%%\n\n",
			100*u.Copy, 100*u.Launch, 100*u.Kernel, 100*u.Fault, 100*u.Mgmt)
	}

	modeStr := "mode " + rt.Mode().Name()
	if rt.CC() {
		modeStr += " (trust domain)"
	} else {
		modeStr += " (legacy VM)"
	}
	fmt.Printf("%s [%s, %s]: end-to-end %v\n", spec.Name, mode, modeStr, res.End)
	m := rt.Metrics()
	fmt.Printf("  launches %d  kernels %d\n", m.Launches, m.Kernels)
	fmt.Printf("  KLO %v  LQT %v  KQT %v  KET %v\n", m.KLO, m.LQT, m.KQT, m.KET)
	fmt.Printf("  copies: H2D %v  D2H %v  D2D %v (managed %v)\n",
		m.CopyH2D, m.CopyD2H, m.CopyD2D, m.ManagedCopy)
	fmt.Printf("  alloc %v  free %v  sync %v\n", m.AllocTime, m.FreeTime, m.SyncTime)

	fmt.Println("\nperformance model (Section V):")
	fmt.Println("  " + strings.ReplaceAll(core.Decompose(rt.Tracer()).String(), "\n", "\n  "))

	st := rt.Platform().Stats()
	fmt.Println("\nsubstrate:")
	fmt.Printf("  hypercalls %d  MMIOs %d  DMA maps %d\n", st.Hypercalls, st.MMIOs, st.DMAMaps)
	fmt.Printf("  encrypted %s  decrypted %s  staged %s\n",
		bytesStr(st.BytesEncrypted), bytesStr(st.BytesDecrypted), bytesStr(st.BytesStaged))
	fmt.Printf("  pages: accepted %d  converted %d  scrubbed %d\n",
		st.PagesAccepted, st.PagesConverted, st.PagesScrubbed)
	us := rt.Device().UVM().Stats()
	fmt.Printf("  uvm: fault batches %d  pages migrated %d  to-gpu %s  to-host %s  evictions %d\n",
		us.FaultBatches, us.PagesMigrated, bytesStr(us.BytesToGPU), bytesStr(us.BytesToHost), us.Evictions)
	_ = trace.KindKernel
}

func bytesStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
