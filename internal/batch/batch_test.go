package batch

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hccsim/internal/cuda"
)

func TestJobKey(t *testing.T) {
	j := WorkloadJob("2mm", false, true)
	k1, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("key not stable: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}

	// A different mode, spec or parameter value must change the key...
	variants := []Job{
		WorkloadJob("2mm", false, false),
		WorkloadJob("2mm", true, true),
		WorkloadJob("3mm", false, true),
		WorkloadJob("2mm", false, true, Override{Param: "PCIeGBps", Value: 16}),
	}
	for _, v := range variants {
		kv, err := v.Key()
		if err != nil {
			t.Fatal(err)
		}
		if kv == k1 {
			t.Fatalf("variant %s collides with %s", v.Label(), j.Label())
		}
	}

	// ...but an override that reproduces the default config hashes the
	// same: the key addresses what is simulated, not how it was spelled.
	def := cuda.DefaultConfig(true)
	same := WorkloadJob("2mm", false, true,
		Override{Param: "PCIe.EffectiveGBps", Value: def.PCIe.EffectiveGBps})
	ks, err := same.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ks != k1 {
		t.Fatalf("default-equivalent override changed the key")
	}
}

// TestEmptyModeIsOff: the empty mode and "off" name the same system, so
// they must share a cache key and a label.
func TestEmptyModeIsOff(t *testing.T) {
	empty := Job{Kind: KindWorkload, Workload: "2mm"}
	off := empty
	off.Mode = "off"
	ke, err := empty.Key()
	if err != nil {
		t.Fatal(err)
	}
	ko, err := off.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ke != ko {
		t.Errorf("empty mode and off hash differently: %s vs %s", ke, ko)
	}
	if empty.Label() != off.Label() {
		t.Errorf("empty mode labels %q, off labels %q", empty.Label(), off.Label())
	}
}

func TestOverrides(t *testing.T) {
	cfg := cuda.DefaultConfig(true)
	if err := ApplyOverride(&cfg, "PCIeGBps", 16); err != nil {
		t.Fatal(err)
	}
	if cfg.PCIe.EffectiveGBps != 16 {
		t.Fatalf("alias override not applied: %v", cfg.PCIe.EffectiveGBps)
	}
	if err := ApplyOverride(&cfg, "TDX.Hypercall", float64(9*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if cfg.TDX.Hypercall != 9*time.Microsecond {
		t.Fatalf("duration override not applied: %v", cfg.TDX.Hypercall)
	}
	if err := ApplyOverride(&cfg, "HostFenceInterval", 24); err != nil {
		t.Fatal(err)
	}
	if cfg.Host.FenceInterval != 24 {
		t.Fatalf("concatenated override not applied: %v", cfg.Host.FenceInterval)
	}
	if err := ApplyOverride(&cfg, "NVLink.Enabled", 1); err != nil {
		t.Fatal(err)
	}
	if !cfg.NVLink.Enabled {
		t.Fatal("bool override not applied")
	}
	if err := ApplyOverride(&cfg, "NoSuchParam", 1); err == nil {
		t.Fatal("expected error for unknown parameter")
	}
	if err := ApplyOverride(&cfg, "TDX.CryptoAlg", 1); err == nil {
		t.Fatal("expected error for string-typed parameter")
	}
	if names := OverrideNames(); len(names) < 30 {
		t.Fatalf("OverrideNames too short: %d", len(names))
	}
}

func TestValidate(t *testing.T) {
	bad := []Job{
		{Kind: "nope"},
		WorkloadJob("missing-app", false, false),
		{Kind: KindCNN, Model: "vgg16"}, // no batch/precision
		{Kind: KindLLM, Backend: "hf"},  // no quant/batch
		{Kind: KindFigure},              // no id
		{Kind: KindFigure, Figure: "fig8", Overrides: []Override{{Param: "PCIeGBps", Value: 1}}},
		WorkloadJob("2mm", false, false, Override{Param: "bogus", Value: 1}),
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", j)
		}
	}
	if err := WorkloadJob("2mm", false, true).Validate(); err != nil {
		t.Fatal(err)
	}
}

// sweepGrid is the canonical >= 16-job test grid: 2 workloads x
// off/tdx-h100 x 4 PCIe bandwidth points.
func sweepGrid() []Job {
	var jobs []Job
	for _, name := range []string{"2mm", "gesummv"} {
		for _, cc := range []bool{false, true} {
			jobs = append(jobs, WorkloadJob(name, false, cc))
		}
	}
	return Grid(jobs, "PCIeGBps", []float64{8, 16, 32, 64})
}

// TestDeterminismAndCache is the central contract: the same grid run fresh,
// from a warm cache, serially (-parallel 1) and concurrently (-parallel 8)
// yields byte-identical payloads and identical Model decompositions.
func TestDeterminismAndCache(t *testing.T) {
	jobs := sweepGrid()
	if len(jobs) < 16 {
		t.Fatalf("grid has %d jobs, want >= 16", len(jobs))
	}

	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	serial := (&Pool{Workers: 1, Cache: cache}).Run(jobs)

	// Fresh parallel run, separate cache.
	parallel := (&Pool{Workers: 8, Cache: MemoryCache()}).Run(jobs)

	// Warm runs: same disk dir through a brand-new Cache (disk tier), and
	// the same in-process cache (memory tier).
	disk, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmDisk := (&Pool{Workers: 8, Cache: disk}).Run(jobs)
	warmMem := (&Pool{Workers: 4, Cache: cache}).Run(jobs)

	for i := range jobs {
		label := jobs[i].Label()
		for _, r := range []Result{serial[i], parallel[i], warmDisk[i], warmMem[i]} {
			if r.Err != nil {
				t.Fatalf("%s: %v", label, r.Err)
			}
		}
		if serial[i].Cached || parallel[i].Cached {
			t.Fatalf("%s: fresh run reported cached", label)
		}
		if !warmDisk[i].Cached || !warmMem[i].Cached {
			t.Fatalf("%s: warm run missed the cache", label)
		}
		for name, r := range map[string]Result{"parallel": parallel[i], "warm-disk": warmDisk[i], "warm-mem": warmMem[i]} {
			if !bytes.Equal(serial[i].Bytes, r.Bytes) {
				t.Fatalf("%s: %s payload differs from serial fresh run", label, name)
			}
			if !reflect.DeepEqual(serial[i].Payload.Model, r.Payload.Model) {
				t.Fatalf("%s: %s model decomposition differs", label, name)
			}
		}
		if serial[i].Payload.Model == nil || serial[i].Payload.Model.Total <= 0 {
			t.Fatalf("%s: empty model", label)
		}
	}

	// The on-disk tier must hold exactly one entry per distinct key.
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(jobs) {
		t.Fatalf("disk cache holds %d entries, want %d", len(files), len(jobs))
	}
}

// TestPoolStress hammers one shared cache from a wide pool with duplicate
// jobs — the -race target of the Makefile's test run. Duplicates exercise
// the Get/Put races; results must still be deterministic per index.
func TestPoolStress(t *testing.T) {
	base := sweepGrid()
	jobs := make([]Job, 0, 3*len(base))
	for i := 0; i < 3; i++ {
		jobs = append(jobs, base...)
	}
	cache := MemoryCache()
	results := (&Pool{Workers: 16, Cache: cache}).Run(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Job.Label(), r.Err)
		}
		if !bytes.Equal(r.Bytes, results[i%len(base)].Bytes) {
			t.Fatalf("job %d: duplicate of %d produced different bytes", i, i%len(base))
		}
	}
	if cache.Len() != len(base) {
		t.Fatalf("cache holds %d entries, want %d distinct", cache.Len(), len(base))
	}
}

func TestNoCacheJobs(t *testing.T) {
	j := WorkloadJob("2mm", false, false)
	j.NoCache = true
	cache := MemoryCache()
	pool := &Pool{Workers: 1, Cache: cache}
	for i := 0; i < 2; i++ {
		r := pool.runOne(j)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Cached {
			t.Fatal("NoCache job served from cache")
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("NoCache job was stored (%d entries)", cache.Len())
	}
}

func TestCNNAndLLMJobs(t *testing.T) {
	jobs := []Job{
		CNNJob("squeezenet", 64, "fp32", "tdx-h100"),
		CNNJob("squeezenet", 64, "fp32", "off"),
		LLMJob("vllm", "awq", 8, "tdx-h100"),
		LLMJob("hf", "bf16", 8, "off"),
	}
	results := (&Pool{Workers: 2, Cache: MemoryCache()}).Run(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Label(), r.Err)
		}
	}
	if results[0].Payload.CNN == nil || results[0].Payload.CNN.Throughput <= 0 {
		t.Fatalf("cnn job payload: %+v", results[0].Payload)
	}
	if results[2].Payload.LLM == nil || results[2].Payload.LLM.TokensPerSec <= 0 {
		t.Fatalf("llm job payload: %+v", results[2].Payload)
	}
	// CC must cost throughput in both domains.
	if results[0].Payload.CNN.Throughput >= results[1].Payload.CNN.Throughput {
		t.Fatal("CC CNN training not slower than base")
	}
	if results[2].Payload.LLM.TokensPerSec <= 0 || results[3].Payload.LLM.TokensPerSec <= 0 {
		t.Fatal("LLM throughput missing")
	}

	// Unknown names surface as per-job errors, not defaults.
	bad := (&Pool{Workers: 1}).Run([]Job{LLMJob("tensorrt", "bf16", 8, "off")})
	if bad[0].Err == nil {
		t.Fatal("unknown backend did not error")
	}
}

// TestServeJobs runs serving-traffic cells through the pool: the payload
// must carry a full serve report, rate/seed must be cache-key material,
// GridServeRates must expand only serve jobs, and the rendered report must
// be byte-identical at any parallelism.
func TestServeJobs(t *testing.T) {
	small := func(rate float64, mode string) Job {
		j := ServeJob("vllm", "bf16", rate)
		j.Mode = mode
		j.Requests = 24
		j.Seed = 7
		return j
	}
	jobs := []Job{small(4, "off"), small(4, "tdx-h100")}
	serial := (&Pool{Workers: 1, Cache: MemoryCache()}).Run(jobs)
	pooled := (&Pool{Workers: 4, Cache: MemoryCache()}).Run(jobs)
	for i, r := range serial {
		if r.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Label(), r.Err)
		}
		if r.Payload.Serve == nil || r.Payload.Serve.Completed+r.Payload.Serve.Rejected != r.Payload.Serve.Offered {
			t.Fatalf("serve payload broken: %+v", r.Payload.Serve)
		}
		if pooled[i].Err != nil || pooled[i].Payload.Serve.String() != r.Payload.Serve.String() {
			t.Fatalf("%s: pooled report differs from serial", jobs[i].Label())
		}
	}
	if off, tdx := serial[0].Payload.Serve, serial[1].Payload.Serve; tdx.TTFT.P95 < off.TTFT.P95 {
		t.Fatalf("tdx-h100 ttft p95 %v beats off %v", tdx.TTFT.P95, off.TTFT.P95)
	}

	// Rate and seed are simulated state, so they must change the key.
	base := small(4, "off")
	for _, variant := range []Job{small(8, "off"), func() Job { j := small(4, "off"); j.Seed = 9; return j }()} {
		kb, err := base.Key()
		if err != nil {
			t.Fatal(err)
		}
		kv, err := variant.Key()
		if err != nil {
			t.Fatal(err)
		}
		if kb == kv {
			t.Fatalf("variant %s collides with %s", variant.Label(), base.Label())
		}
	}

	expanded := GridServeRates([]Job{small(4, "off"), WorkloadJob("gemm", false, false)}, []float64{1, 2})
	if len(expanded) != 3 {
		t.Fatalf("GridServeRates expanded to %d jobs, want 3 (2 serve cells + 1 untouched workload)", len(expanded))
	}
	if expanded[0].RateQPS != 1 || expanded[1].RateQPS != 2 || expanded[2].Kind != KindWorkload {
		t.Fatalf("GridServeRates wrong expansion: %+v", expanded)
	}
}

// TestOverrideChangesOutcome makes sure a sweep axis actually reaches the
// simulator: halving PCIe bandwidth must slow the copy-bound run down.
func TestOverrideChangesOutcome(t *testing.T) {
	fast := WorkloadJob("gemm", false, false, Override{Param: "PCIeGBps", Value: 52})
	slow := WorkloadJob("gemm", false, false, Override{Param: "PCIeGBps", Value: 4})
	results := (&Pool{Workers: 2}).Run([]Job{fast, slow})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if results[1].Payload.Elapsed <= results[0].Payload.Elapsed {
		t.Fatalf("4 GB/s run (%v) not slower than 52 GB/s run (%v)",
			results[1].Payload.Elapsed, results[0].Payload.Elapsed)
	}
}

func TestAggregateTables(t *testing.T) {
	jobs := sweepGrid()
	results := (&Pool{Workers: 4}).Run(jobs)
	sweep := SweepTable(results)
	if len(sweep.Rows) != len(jobs) {
		t.Fatalf("sweep table has %d rows, want %d", len(sweep.Rows), len(jobs))
	}
	if sweep.Cell(0, 0) != jobs[0].Label() {
		t.Fatalf("sweep row order broken: %s vs %s", sweep.Cell(0, 0), jobs[0].Label())
	}
	ratio := RatioTable(results)
	if len(ratio.Rows) != len(jobs)/2 {
		t.Fatalf("ratio table has %d rows, want %d off/tdx-h100 pairs", len(ratio.Rows), len(jobs)/2)
	}
}

func TestDiskCacheCorruption(t *testing.T) {
	dir := t.TempDir()
	j := WorkloadJob("2mm", false, false)
	key, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	// Plant a corrupt entry; the pool must fall back to a fresh run and
	// overwrite it.
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := (&Pool{Workers: 1, Cache: cache}).Run([]Job{j})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Cached {
		t.Fatal("corrupt entry served as a hit")
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, r.Bytes) {
		t.Fatal("corrupt entry not repaired on disk")
	}
}
