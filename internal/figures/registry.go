package figures

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hccsim/internal/workloads"
)

// mustWorkload resolves a workload spec by name, panicking on unknown
// names. Figure generators reference apps by static string literals, so a
// lookup failure is a programming error, not an input error.
func mustWorkload(name string) workloads.Spec {
	spec, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// Generator produces one reproduced figure.
type Generator func() Table

// registry maps figure ids to their generators, with short descriptions.
var registry = map[string]struct {
	gen  Generator
	desc string
}{
	"fig1":         {Fig01Overview, "end-to-end timeline overview (ASCII Fig 1)"},
	"fig4a":        {Fig04aBandwidth, "PCIe bandwidth vs transfer size (pageable/pinned x base/cc)"},
	"fig4b":        {func() Table { return Fig04bCrypto(true) }, "single-core crypto throughput (calibrated + local measurement)"},
	"fig5":         {Fig05CopyTime, "per-application copy time, base vs CC"},
	"fig6":         {Fig06AllocFree, "per-application memory (de)allocation time"},
	"fig7":         {Fig07LaunchQueue, "KLO/LQT/KQT normalized to non-CC"},
	"fig8":         {Fig08CallStack, "cudaLaunchKernel call stack inside a TD"},
	"fig9":         {Fig09KET, "kernel execution time, non-UVM and UVM"},
	"fig10":        {Fig10Timelines, "launch/kernel timelines of representative apps"},
	"fig11":        {Fig11CDFs, "KLO and KET CDFs"},
	"fig12a":       {Fig12aLaunchSeries, "KLO vs launch index (K0 x100 then K1 x100)"},
	"fig12b":       {Fig12bFusion, "kernel fusion sweep"},
	"fig12c":       {Fig12cOverlap, "copy/compute overlap vs stream count"},
	"fig13":        {Fig13CNN, "CNN training throughput and time"},
	"fig14":        {Fig14LLM, "LLM inference throughput speedups"},
	"observations": {Observations, "paper observations vs measured summary"},

	// Extensions: the directions the paper's discussion opens.
	"ext-teeio":         {ExtTEEIO, "TEE-IO / TDX Connect hardware-fix projection"},
	"ext-modes":         {ExtModes, "protection-mode family: off / tdx-h100 / tee-io serialized bridge / pipelined"},
	"ext-cryptoworkers": {ExtCryptoWorkers, "parallelized copy-path encryption (PipeLLM direction)"},
	"ext-graphbatch":    {ExtGraphBatch, "optimal cudaGraph batching under CC (Sec. VII-A future work)"},
	"ext-prefetch":      {ExtPrefetch, "UVM prefetch vs fault-driven encrypted paging"},
	"ext-primitives":    {ExtPrimitives, "raw CPU-TEE primitive costs (TDX vs SEV-SNP)"},
	"ext-multigpu":      {ExtMultiGPU, "inter-GPU transfers under CC (host-staged vs NVLink)"},
	"ext-cnnbatch":      {ExtCNNBatchSweep, "CC training loss vs batch size (between the paper's 64 and 1024)"},
	"ext-llmprefill":    {ExtLLMPrefill, "LLM time-to-first-token: warm vs cold start under CC"},
	"ext-startup":       {ExtStartup, "one-time deployment costs: TD boot, SPDM, context init"},
	"ext-serving":       {ExtServing, "request-level serving under load: latency/SLO/KV-swap per mode"},
	"ext-platforms":     {ExtPlatforms, "cross-platform: off vs native protection mode per hardware profile"},
}

// displayOrder lists the paper's figures first, then the summary, then the
// extension experiments.
var displayOrder = []string{
	"fig1", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12a", "fig12b", "fig12c", "fig13", "fig14", "observations",
	"ext-teeio", "ext-modes", "ext-cryptoworkers", "ext-graphbatch", "ext-prefetch",
	"ext-primitives", "ext-multigpu", "ext-cnnbatch", "ext-llmprefill", "ext-startup",
	"ext-serving", "ext-platforms",
}

// IDs returns all figure ids in display order (any id missing from the
// curated order is appended alphabetically, so new registrations never
// disappear).
func IDs() []string {
	seen := make(map[string]bool, len(registry))
	out := make([]string, 0, len(registry))
	for _, id := range displayOrder {
		if _, ok := registry[id]; ok && !seen[id] {
			out = append(out, id)
			seen[id] = true
		}
	}
	var rest []string
	for id := range registry {
		if !seen[id] {
			rest = append(rest, id)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Describe returns the one-line description of a figure id.
func Describe(id string) string { return registry[id].desc }

// Generate reproduces one figure by id inside a reuse scope, so a figure
// that repeats a run simulates it once.
func Generate(id string) (Table, error) {
	e, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("figures: unknown figure %q (known: %v)", id, IDs())
	}
	defer beginReuse()()
	return e.gen(), nil
}

// GenerateAll reproduces every figure, fanning the independent generators
// out across parallel goroutines (parallel <= 0 means GOMAXPROCS). Results
// come back in display order; the first failure in that order is returned.
//
// The whole fan-out runs inside one sub-result reuse scope: every
// default-config workload, CNN and LLM simulation is executed once and
// shared across the generators that need it (fig5/6/7/9/11 and the
// observations summary all sweep the same suite; ext-cnnbatch repeats
// fig13's cells), instead of each figure re-simulating them.
func GenerateAll(parallel int) ([]Table, error) {
	defer beginReuse()()
	ids := IDs()
	tables := make([]Table, len(ids))
	errs := make([]error, len(ids))
	fanOut(len(ids), parallel, func(i int) { tables[i], errs[i] = Generate(ids[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// fanOut calls do(i) once for every i in [0, n) on min(workers, n)
// goroutines (workers <= 0 means GOMAXPROCS). Indices are handed out in
// order as workers free up, not split up front, so one long generator
// (fig13, ext-cnnbatch) never holds a queue of short ones behind it.
func fanOut(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}
