package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hccsim/internal/batch"
	"hccsim/internal/figures"
	"hccsim/internal/platform"
	"hccsim/internal/serve"
	"hccsim/internal/workloads"
)

// defaultSeed is the seed whose serve and sweep outputs are checked against
// recorded references; other seeds are checked for identity across passes.
const defaultSeed = 1

var workloadNames = []string{"campaign", "serve", "sweep"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "campaign":
		return newCampaign("REPORT.md", o.probe)
	case "serve":
		return newServeWorkload(o.seed), nil
	case "sweep":
		return newSweep(o.seed, o.out), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// ---- campaign: the figure set behind hccreport ----

// volatileFigure measures the machine's own crypto speed, so its table is
// neither timed (its measurement is memoized in set-up) nor checked.
const volatileFigure = "fig4b"

type campaign struct {
	report map[string]string // figure id -> table text in REPORT.md
}

func newCampaign(reportPath string, probe bool) (*campaign, error) {
	c := &campaign{}
	if probe {
		return c, nil
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, fmt.Errorf("campaign reference: %w", err)
	}
	c.report = reportTables(string(data))
	if len(c.report) == 0 {
		return nil, fmt.Errorf("campaign reference: no tables in %s", reportPath)
	}
	return c, nil
}

// reportTables extracts each "## <id> — <description>" section's fenced
// block from a report written by hccreport; the header is skipped.
func reportTables(md string) map[string]string {
	out := map[string]string{}
	var id string
	var body *strings.Builder
	sc := bufio.NewScanner(strings.NewReader(md))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case body != nil && line == "```":
			out[id] = body.String()
			id, body = "", nil
		case body != nil:
			body.WriteString(line)
			body.WriteByte('\n')
		case strings.HasPrefix(line, "## "):
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "## "), " ")
		case id != "" && line == "```":
			body = &strings.Builder{}
		}
	}
	return out
}

// setup fills the process-wide memos the first campaign would otherwise
// pay for: the local crypto measurement of fig4b and the serving runs (and
// their cost-model calibration) behind ext-serving.
func (c *campaign) setup() error {
	for _, id := range []string{volatileFigure, "ext-serving"} {
		if _, err := figures.Generate(id); err != nil {
			return err
		}
	}
	return nil
}

func (c *campaign) prepare() error                     { return nil }
func (c *campaign) finish() (map[string]uint64, error) { return nil, nil }

func (c *campaign) stages() []stage {
	return []stage{{clients: 1, jobs: []job{{name: "campaign", run: c.run}}}}
}

// run generates every figure at pool width nproc and checks each table
// against its section of REPORT.md.
func (c *campaign) run() (string, error) {
	tables, err := figures.GenerateAll(runtime.NumCPU())
	if err != nil {
		return "", err
	}
	var all strings.Builder
	var bad []string
	seen := 0
	for _, t := range tables {
		if t.ID == volatileFigure {
			continue
		}
		s := t.String()
		all.WriteString(s)
		if want, ok := c.report[t.ID]; !ok || want != s {
			bad = append(bad, t.ID)
		}
		seen++
	}
	if want := len(c.report) - 1; seen != want {
		bad = append(bad, fmt.Sprintf("(%d tables, REPORT.md has %d)", seen, want))
	}
	if len(bad) > 0 {
		return "", fmt.Errorf("tables differ from REPORT.md: %s", strings.Join(bad, ", "))
	}
	return all.String(), nil
}

// ---- serve: hccserve's default session ----

var (
	serveModes = []string{"off", "tdx-h100", "tee-io-bridge+pipelined"}
	// serveRates sit below, near and above the capacity knee (about 1.35 to
	// 1.46 qps for these modes): the lowest rate never preempts, the
	// highest swaps KV over each mode's transfer path.
	serveRates = []float64{0.8, 1.4, 2.0}
)

// serveRequests is hccserve's default offered request count.
const serveRequests = 160

type serveWorkload struct {
	seed  uint64
	gaps  map[float64][]time.Duration
	mu    sync.Mutex
	count map[string]uint64
}

// newServeWorkload draws one arrival trace per rate from the seed; every
// mode replays the same trace, so modes differ only in the system.
func newServeWorkload(seed uint64) *serveWorkload {
	w := &serveWorkload{seed: seed, gaps: map[float64][]time.Duration{}}
	for i, rate := range serveRates {
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		draws := make([]float64, serveRequests)
		var sum float64
		for k := range draws {
			draws[k] = rng.ExpFloat64()
			sum += draws[k]
		}
		// Scale the draws to mean exactly 1/rate, so every seed offers
		// the same load and only its arrival pattern varies.
		g := make([]time.Duration, serveRequests)
		for k, d := range draws {
			g[k] = time.Duration(d * float64(serveRequests) / sum / rate * float64(time.Second))
		}
		w.gaps[rate] = g
	}
	return w
}

// setup calibrates each mode's step-cost model (memoized per process).
func (w *serveWorkload) setup() error {
	for _, m := range serveModes {
		if _, err := serve.Run(serve.Config{Mode: m, RateQPS: 1, Requests: 1, Seed: w.seed}); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) prepare() error {
	w.count = map[string]uint64{}
	return nil
}

func (w *serveWorkload) finish() (map[string]uint64, error) { return w.count, nil }

func (w *serveWorkload) stages() []stage {
	var jobs []job
	// Capacity searches run first: they are the longest jobs, so the
	// clients finish the pass together.
	for _, m := range serveModes {
		jobs = append(jobs, job{name: "capacity/" + m, run: func() (string, error) {
			c, err := serve.FindCapacity(serve.Config{Mode: m, RateQPS: 1, Seed: w.seed})
			if err != nil {
				return "", err
			}
			if c.MaxQPS > 0 {
				if err := serveInvariants(c.AtCapacity); err != nil {
					return "", err
				}
			}
			return fmt.Sprintf("max_qps=%g probes=%d\n%s", c.MaxQPS, c.Probes, c.AtCapacity), nil
		}})
	}
	for _, m := range serveModes {
		for _, rate := range serveRates {
			jobs = append(jobs, job{name: fmt.Sprintf("run/%s@%gqps", m, rate), run: func() (string, error) {
				rep, err := serve.Run(serve.Config{Mode: m, Trace: w.gaps[rate], Seed: w.seed})
				if err != nil {
					return "", err
				}
				w.mu.Lock()
				w.count["serve.iterations"] += uint64(rep.Iterations)
				w.count["serve.preemptions"] += uint64(rep.Preemptions)
				w.count["serve.swap_bytes"] += uint64(rep.SwapOutBytes + rep.SwapInBytes)
				w.mu.Unlock()
				return rep.String(), serveInvariants(rep)
			}})
		}
	}
	return []stage{{clients: runtime.NumCPU(), jobs: jobs}}
}

// serveInvariants are the accounting identities every drained run keeps.
func serveInvariants(r serve.Report) error {
	if r.Offered != r.Completed+r.Rejected {
		return fmt.Errorf("offered %d != completed %d + rejected %d", r.Offered, r.Completed, r.Rejected)
	}
	if r.SwapOutBytes != r.SwapInBytes {
		return fmt.Errorf("swapped out %d bytes but in %d", r.SwapOutBytes, r.SwapInBytes)
	}
	return nil
}

// ---- sweep: an hccsweep session against an on-disk cache ----

var (
	sweepModes = []string{"off", "tdx-h100", "tee-io-bridge"}
	// sweepGBps is the PCIe-bandwidth axis the seed draws from.
	sweepGBps = []float64{4, 8, 12, 16, 24, 32, 48, 64}
)

const pcieAxis = "PCIe.EffectiveGBps"

type sweep struct {
	root   string // parent of the per-pass cache directories
	dir    string // this pass's cache directory
	narrow []batch.Job
	wide   []batch.Job

	cache *batch.Cache
	count map[string]uint64
}

// newSweep draws the grid: every app under every mode, each (app, mode)
// on a platform drawn among those that allow the mode, at one drawn PCIe
// bandwidth; the widened grid adds a second drawn bandwidth.
func newSweep(seed uint64, out string) *sweep {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	legal := map[string][]string{}
	for _, name := range platform.Names() {
		p, err := platform.ByName(name)
		if err != nil {
			continue // Names() entries always resolve
		}
		for _, m := range sweepModes {
			if p.AllowsMode(m) {
				legal[m] = append(legal[m], name)
			}
		}
	}
	gbps := rng.Perm(len(sweepGBps))
	first, second := sweepGBps[gbps[0]], sweepGBps[gbps[1]]
	s := &sweep{root: filepath.Join(out, "sweep-cache")}
	for _, spec := range workloads.All() {
		for _, m := range sweepModes {
			plats := legal[m]
			base := batch.WorkloadJob(spec.Name, false, false)
			base.Mode = m
			base.Platform = plats[rng.IntN(len(plats))]
			for _, bw := range []float64{first, second} {
				j := base
				j.Overrides = []batch.Override{{Param: pcieAxis, Value: bw}}
				if bw == first {
					s.narrow = append(s.narrow, j)
				}
				s.wide = append(s.wide, j)
			}
		}
	}
	return s
}

// setup does what hccsweep does before its first cell: it validates every
// job of the grid and creates the cache root (each pass gets a fresh
// directory in it).
func (s *sweep) setup() error {
	for _, j := range s.wide {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	return os.MkdirAll(s.root, 0o755)
}

// prepare gives the pass an empty cache directory, as a fresh sweep has.
func (s *sweep) prepare() error {
	dir, err := os.MkdirTemp(s.root, "pass-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.count = map[string]uint64{}
	return nil
}

func (s *sweep) finish() (map[string]uint64, error) {
	s.addCacheStats()
	return s.count, os.RemoveAll(s.dir)
}

func (s *sweep) addCacheStats() {
	if s.cache == nil {
		return
	}
	h, m, st := s.cache.Stats()
	s.count["batch.cache_hits"] += h
	s.count["batch.cache_misses"] += m
	s.count["batch.cache_stores"] += st
	s.cache = nil
}

// stages: a cold grid, the grid widened by one bandwidth (the old cells
// hit the disk cache), and the widened grid again (all hits). Each stage
// opens a new batch.Cache on the pass's directory, as a new process would.
func (s *sweep) stages() []stage {
	st := func(jobs []batch.Job) stage {
		var pool *batch.Pool
		begin := func() error {
			s.addCacheStats()
			c, err := batch.NewCache(s.dir)
			if err != nil {
				return err
			}
			s.cache = c
			pool = &batch.Pool{Workers: runtime.NumCPU(), Cache: c}
			return nil
		}
		js := make([]job, len(jobs))
		for i, j := range jobs {
			js[i] = job{name: j.Label(), run: func() (string, error) {
				r := pool.Run([]batch.Job{j})[0]
				return string(r.Bytes), r.Err
			}}
		}
		return stage{clients: runtime.NumCPU(), begin: begin, jobs: js}
	}
	return []stage{st(s.narrow), st(s.wide), st(s.wide)}
}

// ---- default-seed references ----

func refPath(dir, workload string) string {
	return filepath.Join(dir, workload+".ref")
}

// readRefs loads a reference written by writeRefs: "digest name" lines.
func readRefs(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		d, name, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[name] = d
	}
	return out, nil
}

func writeRefs(path string, refs map[string]string) error {
	names := make([]string, 0, len(refs))
	for n := range refs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", refs[n], n)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
