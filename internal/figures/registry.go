package figures

import (
	"fmt"
	"sort"

	"hccsim/internal/batch"
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

// volatileIDs are figures that measure the build machine (wall-clock crypto
// throughput), so their jobs must never be served from a result cache.
var volatileIDs = map[string]bool{"fig4b": true}

// init registers the figure runner with the batch subsystem: a figure job
// executes the raw generator. (batch cannot import this package — figure
// generation itself is routed through batch's pool below.)
func init() {
	batch.RegisterRunner(batch.KindFigure, func(j batch.Job) (batch.Payload, error) {
		t, err := rawGenerate(j.Figure)
		if err != nil {
			return batch.Payload{}, err
		}
		return batch.Payload{Table: &t}, nil
	})
}

// rawGenerate runs the generator for id directly, bypassing the pool,
// inside a reuse scope, so a figure that repeats a run simulates it once.
func rawGenerate(id string) (Table, error) {
	e, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("figures: unknown figure %q (known: %v)", id, IDs())
	}
	defer beginReuse()()
	return e.gen(), nil
}

// Jobs returns batch jobs for the given figure ids (every figure when none
// are given), with machine-measuring figures marked NoCache.
func Jobs(ids ...string) []batch.Job {
	if len(ids) == 0 {
		ids = IDs()
	}
	jobs := make([]batch.Job, len(ids))
	for i, id := range ids {
		jobs[i] = batch.FigureJob(id)
		jobs[i].NoCache = volatileIDs[id]
	}
	return jobs
}

// Generate reproduces one figure by id. The run is submitted as a batch job
// (uncached — figure benchmarks rely on regeneration doing real work), so
// single-figure generation and sweep campaigns share one execution path.
func Generate(id string) (Table, error) {
	res := (&batch.Pool{Workers: 1}).Run(Jobs(id))
	if err := res[0].Err; err != nil {
		return Table{}, err
	}
	return *res[0].Payload.Table, nil
}

// GenerateAll reproduces every figure, fanning the independent generators
// out across the batch worker pool (parallel <= 0 means GOMAXPROCS).
// Results come back in display order; the first failure aborts.
//
// The whole fan-out runs inside one sub-result reuse scope: every
// default-config workload, CNN and LLM simulation is executed once and
// shared across the generators that need it (fig5/6/7/9/11 and the
// observations summary all sweep the same suite; ext-cnnbatch repeats
// fig13's cells), instead of each figure re-simulating them.
func GenerateAll(parallel int) ([]Table, error) {
	defer beginReuse()()
	results := (&batch.Pool{Workers: parallel}).Run(Jobs())
	tables := make([]Table, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		tables[i] = *r.Payload.Table
	}
	return tables, nil
}
