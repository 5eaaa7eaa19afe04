// Command hcctrace runs one benchmark application on the simulator and
// dumps its Nsight-style trace: the event list (optionally), the
// KLO/LQT/KQT/KET metrics, and the substrate statistics (hypercalls, bytes
// encrypted, fault batches).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/obs"
	"hccsim/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; main only binds it to the process. It returns
// the exit status (0 success, 1 a bad value or failed write, 2 a flag
// syntax error) so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hcctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "2mm", "application to run (see -list)")
	ccMode := fs.String("mode", "off", "protection mode: off, tdx-h100, tee-io-direct, tee-io-bridge (optionally +pipelined)")
	uvm := fs.Bool("uvm", false, "use the UVM (cudaMallocManaged) variant")
	events := fs.Bool("events", false, "dump every trace event")
	jsonOut := fs.String("json", "", "write the full trace as JSON to this file ('-' for stdout)")
	traceOut := fs.String("trace", "", "write a Perfetto-loadable Chrome trace (simulated-time spans + metrics) to this file ('-' for stdout)")
	summary := fs.Bool("summary", false, "print the per-track span summary (implies span recording)")
	gantt := fs.Bool("gantt", false, "render a Fig-1-style ASCII timeline")
	list := fs.Bool("list", false, "list applications and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "APP\tSUITE\tLAUNCHES\tUVM")
		for _, s := range workloads.All() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\n", s.Name, s.Suite, s.Launches(), s.UVMCapable)
		}
		w.Flush()
		return 0
	}

	spec, err := workloads.ByName(*app)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	mode := workloads.CopyExecute
	if *uvm {
		if !spec.UVMCapable {
			fmt.Fprintf(stderr, "hcctrace: %s has no UVM variant\n", spec.Name)
			return 1
		}
		mode = workloads.UVM
	}
	cfg, err := cuda.NewConfig(*ccMode)
	if err != nil {
		fmt.Fprintln(stderr, "hcctrace:", err)
		return 1
	}
	var o *obs.Observer
	if *traceOut != "" || *summary {
		o = obs.New()
	}
	res := workloads.ExecuteObserved(spec, mode, cfg, o)
	rt := res.Runtime

	if *traceOut != "" {
		if err := writeOut(*traceOut, o.ChromeTrace(), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *traceOut == "-" {
			return 0 // keep stdout pure JSON
		}
		fmt.Fprintf(stdout, "chrome trace written to %s (load it at https://ui.perfetto.dev)\n", *traceOut)
	}

	if *summary {
		if err := o.WriteSummary(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}

	if *jsonOut != "" {
		var buf bytes.Buffer
		if err := rt.Tracer().WriteJSON(&buf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := writeOut(*jsonOut, buf.Bytes(), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *jsonOut == "-" {
			return 0 // keep stdout pure JSON
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *jsonOut)
	}

	if *events {
		w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "KIND\tNAME\tSTREAM\tSTART\tDURATION\tBYTES\tMANAGED")
		for e := range rt.Tracer().All() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\t%d\t%v\n",
				e.Kind, e.Name, e.Stream, e.Start, e.Duration(), e.Bytes, e.Managed)
		}
		w.Flush()
		fmt.Fprintln(stdout)
	}

	if *gantt {
		if err := rt.Tracer().Gantt(stdout, 100); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		u := rt.Tracer().Utilize()
		fmt.Fprintf(stdout, "utilization: copy %.0f%%  launch %.0f%%  kernel %.0f%%  fault %.0f%%  mgmt %.0f%%\n\n",
			100*u.Copy, 100*u.Launch, 100*u.Kernel, 100*u.Fault, 100*u.Mgmt)
	}

	modeStr := "mode " + rt.Mode().Name()
	if rt.CC() {
		modeStr += " (trust domain)"
	} else {
		modeStr += " (legacy VM)"
	}
	fmt.Fprintf(stdout, "%s [%s, %s]: end-to-end %v\n", spec.Name, mode, modeStr, res.End)
	m := rt.Metrics()
	fmt.Fprintf(stdout, "  launches %d  kernels %d\n", m.Launches, m.Kernels)
	fmt.Fprintf(stdout, "  KLO %v  LQT %v  KQT %v  KET %v\n", m.KLO, m.LQT, m.KQT, m.KET)
	fmt.Fprintf(stdout, "  copies: H2D %v  D2H %v  D2D %v (managed %v)\n",
		m.CopyH2D, m.CopyD2H, m.CopyD2D, m.ManagedCopy)
	fmt.Fprintf(stdout, "  alloc %v  free %v  sync %v\n", m.AllocTime, m.FreeTime, m.SyncTime)

	fmt.Fprintln(stdout, "\nperformance model (Section V):")
	fmt.Fprintln(stdout, "  "+strings.ReplaceAll(core.Decompose(rt.Tracer()).String(), "\n", "\n  "))

	st := rt.Platform().Stats()
	fmt.Fprintln(stdout, "\nsubstrate:")
	fmt.Fprintf(stdout, "  hypercalls %d  MMIOs %d  DMA maps %d\n", st.Hypercalls, st.MMIOs, st.DMAMaps)
	fmt.Fprintf(stdout, "  encrypted %s  decrypted %s  staged %s\n",
		bytesStr(st.BytesEncrypted), bytesStr(st.BytesDecrypted), bytesStr(st.BytesStaged))
	fmt.Fprintf(stdout, "  pages: accepted %d  converted %d  scrubbed %d\n",
		st.PagesAccepted, st.PagesConverted, st.PagesScrubbed)
	us := rt.Device().UVM().Stats()
	fmt.Fprintf(stdout, "  uvm: fault batches %d  pages migrated %d  to-gpu %s  to-host %s  evictions %d\n",
		us.FaultBatches, us.PagesMigrated, bytesStr(us.BytesToGPU), bytesStr(us.BytesToHost), us.Evictions)
	return 0
}

// writeOut writes a rendered output to stdout for "-", or else whole to the
// named file, so a failed write or close is an error and never leaves a
// silently truncated file behind.
func writeOut(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o666)
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
