package figures

import (
	"fmt"
	"sync"

	"hccsim/internal/serve"
	"hccsim/internal/units"
)

// ExtServing compares request-level serving behaviour across protection
// modes at two offered rates straddling the capacity knee of the default
// workload (~1.46 req/s): 1.2 req/s where every mode holds the SLO, and
// 1.6 req/s where the admitted KV working set overshoots the pool and the
// modes separate. The three columns isolate the two CC cost channels:
//
//   - tdx-h100 pays on the kernel side — +hypercall/MMIO host cost per
//     scheduler step plus software crypto on every swap — so its TTFT and
//     TPOT tails grow at both rates;
//   - tee-io-bridge+pipelined matches off on the kernel side by design and
//     differs only through bulk link traffic, so it separates from off
//     exactly when KV-pressure preemptions start swapping sequences over
//     the serialized 26 GB/s bridge instead of the 52 GB/s duplex link.
//
// The per-mode capacity search (max sustainable rate at the SLO target)
// is the expensive companion experiment: run `hccserve` for it.
func ExtServing() Table {
	modes := []string{"off", "tdx-h100", "tee-io-bridge+pipelined"}
	rates := []float64{1.2, 1.6}
	t := Table{
		ID:      "ext-serving",
		Title:   "LLM serving under load: latency, SLO attainment and KV-swap pressure per protection mode",
		Columns: append([]string{"metric"}, modes...),
	}

	reps := make(map[float64][]serve.Report, len(rates))
	for _, r := range rates {
		for _, m := range modes {
			reps[r] = append(reps[r], serveRun(m, r))
		}
	}

	addRow := func(label string, rate float64, cell func(serve.Report) interface{}) {
		row := []interface{}{fmt.Sprintf(label, rate)}
		for _, rep := range reps[rate] {
			row = append(row, cell(rep))
		}
		t.AddRow(row...)
	}

	for _, r := range rates {
		addRow("ttft p95 @ %.1f qps (ms)", r, func(rep serve.Report) interface{} {
			return ms(rep.TTFT.P95)
		})
		addRow("tpot p95 @ %.1f qps (ms)", r, func(rep serve.Report) interface{} {
			return ms(rep.TPOT.P95)
		})
		addRow("slo attainment @ %.1f qps", r, func(rep serve.Report) interface{} {
			return rep.SLOAttainment
		})
		addRow("preemptions @ %.1f qps", r, func(rep serve.Report) interface{} {
			return fmt.Sprintf("%d", rep.Preemptions)
		})
		addRow("kv swap traffic @ %.1f qps (GiB)", r, func(rep serve.Report) interface{} {
			return units.ToGiB(rep.SwapOutBytes + rep.SwapInBytes)
		})
	}
	addRow("decode throughput @ %.1f qps (tok/s)", rates[len(rates)-1],
		func(rep serve.Report) interface{} { return rep.TokensPerSec })

	first := reps[rates[0]][0]
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s/%s, %d offered requests per cell, seed %d, slo: ttft<=%v tpot<=%v",
			first.Backend, first.Quant, first.Offered, first.Seed, first.SLOTTFT, first.SLOTPOT),
		"tee-io-bridge+pipelined tracks off until preemptions swap KV over the serialized bridge",
		"capacity search (max sustainable qps at the slo target): hccserve -capacity",
	)
	return t
}

// serveMemo caches serve runs across generations: the golden test, the
// serial/parallel GenerateAll comparison and hccreport all render this
// figure in one process, and each default-workload run costs ~2 s under
// the race detector. Runs are deterministic, so caching cannot change
// output.
var serveMemo struct {
	sync.Mutex
	m map[string]serve.Report
}

// serveRun runs one default-workload serving cell through the memo. It
// panics on error: mode and rate come from static literals above, so a
// failure is a programming error, not an input error.
func serveRun(mode string, rate float64) serve.Report {
	key := fmt.Sprintf("%s|%g", mode, rate)
	serveMemo.Lock()
	defer serveMemo.Unlock()
	if rep, ok := serveMemo.m[key]; ok {
		return rep
	}
	rep, err := serve.Run(serve.Config{Backend: "vllm", Quant: "bf16", Mode: mode, RateQPS: rate})
	if err != nil {
		panic(err) // static literals: a failure is a programming error
	}
	if serveMemo.m == nil {
		serveMemo.m = make(map[string]serve.Report)
	}
	serveMemo.m[key] = rep
	return rep
}
