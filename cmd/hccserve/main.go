// Command hccserve runs the request-level LLM serving simulator across
// protection modes and offered request rates, printing a deterministic
// latency-vs-load table: TTFT/TPOT/E2E percentiles, SLO attainment,
// rejection and preemption counts, plus (unless -capacity=false) the
// maximum sustainable rate each mode holds at the SLO target.
//
//	hccserve -modes off,tdx-h100,tee-io-bridge+pipelined -rates 1.2,1.4,1.6
//
// -platform swaps the hardware calibration profile; modes must be valid on
// the chosen platform (a B300-class bridge system serves tee-io-bridge, not
// bounce-buffer TDX):
//
//	hccserve -platform b300-bridge -modes off,tee-io-bridge -rates 1.2,1.6
//
// The same experiment is scriptable as a sweep (hccsweep -serve ...) and as
// a library call (hccsim.ServeTraffic / hccsim.ServeMaxQPS).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"hccsim"
	"hccsim/internal/tab"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; main only binds it to the process. It returns
// the exit status (0 success, 1 a failed run or bad value, 2 a flag syntax
// error) so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hccserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modes := fs.String("modes", "off,tdx-h100,tee-io-bridge+pipelined",
		"comma list of protection modes: "+strings.Join(hccsim.Modes(), ", ")+" (optionally +pipelined)")
	platformName := fs.String("platform", "",
		"hardware platform: "+strings.Join(hccsim.Platforms(), ", ")+" (default h100-tdx)")
	rates := fs.String("rates", "1.2,1.4,1.6", "comma list of offered rates in requests/second")
	backend := fs.String("backend", "vllm", "serving framework: vllm or hf")
	quant := fs.String("quant", "bf16", "weight format: bf16 or awq")
	requests := fs.Int("requests", 0, "offered request count (0 = default)")
	seed := fs.Uint64("seed", 0, "workload RNG seed (0 = default)")
	capacity := fs.Bool("capacity", true, "also search each mode's max sustainable rate at the SLO target")
	format := fs.String("format", "table", "output format: table, csv or json")
	out := fs.String("o", "-", "output file ('-' for stdout)")
	traceOut := fs.String("trace", "", "write a Perfetto-loadable Chrome trace of the first mode×rate run to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Validate the platform and every mode up front — a bad name or an
	// illegal mode×platform pair should fail before the first multi-second
	// simulation, not after it.
	if _, err := hccsim.Configure(hccsim.Spec{Platform: *platformName}); err != nil {
		return fail(fmt.Errorf("hccserve: invalid -platform: %v", err))
	}
	modeNames := splitList(*modes)
	if len(modeNames) == 0 {
		return fail(fmt.Errorf("hccserve: -modes is empty (valid: %s)", strings.Join(hccsim.Modes(), ", ")))
	}
	for _, m := range modeNames {
		if _, err := hccsim.Configure(hccsim.Spec{Platform: *platformName, Mode: m}); err != nil {
			return fail(fmt.Errorf("hccserve: invalid -modes entry %q: %v (valid: %s, optionally +pipelined)",
				m, err, strings.Join(hccsim.Modes(), ", ")))
		}
	}
	rateVals, err := parseRates(*rates)
	if err != nil {
		return fail(err)
	}

	cfg := func(mode string, rate float64) hccsim.ServeConfig {
		return hccsim.ServeConfig{
			Backend:  *backend,
			Quant:    *quant,
			Mode:     mode,
			Platform: *platformName,
			RateQPS:  rate,
			Requests: *requests,
			Seed:     *seed,
		}
	}

	var reports []hccsim.ServeReport
	for i, m := range modeNames {
		for j, r := range rateVals {
			c := cfg(m, r)
			if *traceOut != "" && i == 0 && j == 0 {
				c.Observer = hccsim.NewObserver()
			}
			rep, err := hccsim.ServeTraffic(c)
			if err != nil {
				return fail(err)
			}
			if c.Observer != nil {
				if err := os.WriteFile(*traceOut, c.Observer.ChromeTrace(), 0o666); err != nil {
					return fail(err)
				}
				fmt.Fprintf(stderr, "chrome trace of %s @ %gqps written to %s (load it at https://ui.perfetto.dev)\n",
					m, r, *traceOut)
			}
			reports = append(reports, rep)
		}
	}
	var caps []hccsim.ServeCapacity
	if *capacity {
		for _, m := range modeNames {
			c, err := hccsim.ServeMaxQPS(cfg(m, rateVals[0]))
			if err != nil {
				return fail(err)
			}
			caps = append(caps, c)
		}
	}

	var buf bytes.Buffer
	if err := emit(&buf, *format, modeNames, reports, caps); err != nil {
		return fail(err)
	}
	if *out == "-" {
		_, err = stdout.Write(buf.Bytes())
	} else {
		err = os.WriteFile(*out, buf.Bytes(), 0o666)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// loadTable renders the latency-vs-load grid.
func loadTable(reports []hccsim.ServeReport) tab.Table {
	t := tab.Table{
		ID:    "serve-load",
		Title: "serving latency vs offered load",
		Columns: []string{"mode", "qps", "ttft-p50-ms", "ttft-p95-ms", "ttft-p99-ms",
			"tpot-p50-ms", "tpot-p95-ms", "tpot-p99-ms", "e2e-p50-s", "e2e-p95-s", "e2e-p99-s",
			"slo-attain", "rejected", "preempt"},
	}
	for _, r := range reports {
		t.AddRow(r.Mode, r.RateQPS,
			ms(r.TTFT.P50), ms(r.TTFT.P95), ms(r.TTFT.P99),
			ms(r.TPOT.P50), ms(r.TPOT.P95), ms(r.TPOT.P99),
			secs(r.E2E.P50), secs(r.E2E.P95), secs(r.E2E.P99),
			r.SLOAttainment, fmt.Sprintf("%d", r.Rejected), fmt.Sprintf("%d", r.Preemptions))
	}
	if len(reports) > 0 {
		r := reports[0]
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s/%s, %d offered requests, seed %d, slo: ttft<=%v tpot<=%v",
			r.Backend, r.Quant, r.Offered, r.Seed, r.SLOTTFT, r.SLOTPOT))
	}
	return t
}

// capacityTable renders the per-mode capacity search.
func capacityTable(modes []string, caps []hccsim.ServeCapacity) tab.Table {
	t := tab.Table{
		ID:      "serve-capacity",
		Title:   "max sustainable rate at the SLO target",
		Columns: []string{"mode", "max-qps", "probes", "preempt@cap", "ttft-p95-ms@cap"},
	}
	for i, c := range caps {
		t.AddRow(modes[i], c.MaxQPS, fmt.Sprintf("%d", c.Probes),
			fmt.Sprintf("%d", c.AtCapacity.Preemptions), ms(c.AtCapacity.TTFT.P95))
	}
	return t
}

func emit(w io.Writer, format string, modes []string, reports []hccsim.ServeReport, caps []hccsim.ServeCapacity) error {
	lt := loadTable(reports)
	switch format {
	case "table":
		if _, err := fmt.Fprintln(w, lt.String()); err != nil {
			return err
		}
		if len(caps) > 0 {
			ct := capacityTable(modes, caps)
			_, err := fmt.Fprintln(w, ct.String())
			return err
		}
		return nil
	case "csv":
		if err := lt.WriteCSV(w); err != nil {
			return err
		}
		if len(caps) > 0 {
			ct := capacityTable(modes, caps)
			return ct.WriteCSV(w)
		}
		return nil
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Reports    []hccsim.ServeReport
			Capacities []hccsim.ServeCapacity `json:",omitempty"`
		}{reports, caps})
	}
	return fmt.Errorf("hccserve: unknown format %q (want table, csv or json)", format)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseRates(s string) ([]float64, error) {
	fields := splitList(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("hccserve: -rates is empty")
	}
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("hccserve: rate %q must be a positive number", f)
		}
		out[i] = v
	}
	return out, nil
}

func ms(d time.Duration) float64   { return d.Seconds() * 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }
