package figures

import (
	"sync"

	"hccsim/internal/cuda"
	"hccsim/internal/nn"
	"hccsim/internal/workloads"
)

// Sub-result reuse: most figure generators re-run the same default-config
// simulations. fig5, fig6, fig7, fig9, fig11 and the observations summary
// each sweep the whole suite in both CC modes; fig13 compares every cell
// with the FP32 runs it also tabulates, ext-cnnbatch repeats fig13's
// batch-64 and batch-1024 cells, and fig14 divides every series by the same
// HF baselines. Inside one campaign — a GenerateAll fan-out, one figure's
// generation, or one ComputeSuiteAggregates pass — those runs are
// identical, so they are executed once and shared.
//
// The engine is deterministic and figure code only reads completed results
// (Metrics and the trace are pure views over the recorded events), so reuse
// is exactly output-preserving. The memo is scoped to the campaign: it is
// installed by beginReuse and dropped when the outermost campaign ends,
// which keeps benchmark iterations honest — every GenerateAll still
// simulates each configuration once for real.

// runKey identifies one default-config workload run.
type runKey struct {
	app  string
	mode workloads.Mode
	cc   bool
}

type memoEntry struct {
	once sync.Once
	res  any
}

// runMemo deduplicates concurrent and repeated runs: GenerateAll workers
// hitting the same key share one simulation, with losers blocking on
// the winner's Once rather than re-simulating.
type runMemo struct {
	mu sync.Mutex
	m  map[any]*memoEntry
}

var (
	memoMu     sync.Mutex
	activeMemo *runMemo
	memoRefs   int
)

// beginReuse opens a sub-result reuse scope and returns its release
// function. Scopes nest (GenerateAll opens one around every figure's own,
// and the observations figure calls ComputeSuiteAggregates, which opens
// another): the memo installs on the outermost begin and uninstalls on the
// matching release.
func beginReuse() func() {
	memoMu.Lock()
	if memoRefs == 0 {
		activeMemo = &runMemo{m: make(map[any]*memoEntry)}
	}
	memoRefs++
	memoMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			memoMu.Lock()
			memoRefs--
			if memoRefs == 0 {
				activeMemo = nil
			}
			memoMu.Unlock()
		})
	}
}

// reuse returns run's result for key, running it once per key while a
// reuse scope is open and on every call otherwise. The key must identify
// everything run depends on, and keys of different runs must differ in
// type or value.
func reuse[T any](key any, run func() T) T {
	memoMu.Lock()
	memo := activeMemo
	memoMu.Unlock()
	if memo == nil {
		return run()
	}
	memo.mu.Lock()
	e, ok := memo.m[key]
	if !ok {
		e = &memoEntry{}
		memo.m[key] = e
	}
	memo.mu.Unlock()
	e.once.Do(func() { e.res = run() })
	return e.res.(T)
}

// runWorkload executes one application with the default config for the
// given CC mode, serving repeats from the active reuse scope.
func runWorkload(spec workloads.Spec, mode workloads.Mode, cc bool) workloads.Result {
	return reuse(runKey{app: spec.Name, mode: mode, cc: cc}, func() workloads.Result {
		return workloads.Execute(spec, mode, cuda.DefaultConfig(cc))
	})
}

// runPair is workloads.Pair through the reuse scope: the same application
// CC-off and CC-on with default configs.
func runPair(spec workloads.Spec, mode workloads.Mode) (base, cc workloads.Result) {
	return runWorkload(spec, mode, false), runWorkload(spec, mode, true)
}

// train is nn.TrainSimulate through the reuse scope, keyed by the whole
// cell. Callers pass canonical mode names, so one cell has one key.
func train(cfg nn.TrainConfig) nn.TrainResult {
	return reuse(cfg, func() nn.TrainResult { return nn.TrainSimulate(cfg) })
}

// llm is nn.LLMSimulate through the reuse scope, keyed like train.
func llm(cfg nn.LLMConfig) nn.LLMResult {
	return reuse(cfg, func() nn.LLMResult { return nn.LLMSimulate(cfg) })
}

// ccMode names the protection mode of the paper's on/off switch, the one
// cuda.DefaultConfig(cc) selects.
func ccMode(cc bool) string { return cuda.DefaultConfig(cc).Mode }
