package batch

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
)

// Result is one completed (or failed) job. Results keep the submission
// order of their jobs regardless of worker interleaving: Pool.Run's
// results[i] always corresponds to jobs[i].
type Result struct {
	Job Job
	// Key is the job's content address ("" if the job failed to hash).
	Key string
	// Cached reports that Payload came from the cache, not a fresh run.
	Cached bool
	// Bytes is the canonical payload JSON — identical between a fresh run
	// and a cache hit of the same job.
	Bytes []byte
	// Payload is the decoded result (zero when Err != nil).
	Payload Payload
	// Err is the per-job failure, if any. Failures are never cached.
	Err error
}

// Pool is the bounded concurrent executor: it fans jobs out across Workers
// goroutines, each running whole simulations (a sim.Engine is confined to
// one goroutine, so jobs parallelize perfectly), and memoizes results
// through Cache.
type Pool struct {
	// Workers bounds concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// Cache memoizes results by job key; nil disables caching.
	Cache *Cache
}

// Run executes all jobs and returns their results in submission order.
// Each payload is the same at any Workers count, but when two jobs share a
// key, whether the later one reports Cached depends on which worker gets
// there first; cmd/hccsweep drops such duplicates before it calls Run.
func (p *Pool) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = p.runOne(j)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.runOne(jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes a single job through the cache.
func (p *Pool) runOne(j Job) Result {
	res := Result{Job: j}
	r, err := j.resolve()
	if err != nil {
		res.Err = err
		return res
	}
	key, err := r.Key()
	if err != nil {
		res.Err = err
		return res
	}
	res.Key = key
	if p.Cache != nil {
		if b, ok := p.Cache.Get(key); ok {
			var pl Payload
			// A corrupt entry falls through to a fresh run (and is
			// overwritten below) rather than failing the job.
			if json.Unmarshal(b, &pl) == nil {
				res.Cached = true
				res.Bytes = b
				res.Payload = pl
				return res
			}
		}
	}
	pl, err := r.run(r)
	if err != nil {
		res.Err = fmt.Errorf("batch: %s: %w", j.Label(), err)
		return res
	}
	b, err := json.Marshal(pl)
	if err != nil {
		res.Err = fmt.Errorf("batch: encoding %s result: %w", j.Label(), err)
		return res
	}
	res.Bytes = b
	res.Payload = pl
	if p.Cache != nil {
		if err := p.Cache.Put(key, b); err != nil {
			res.Err = err
		}
	}
	return res
}

// Run is the convenience entry point: execute jobs on a fresh pool with the
// given parallelism and optional on-disk cache directory ("" = no disk
// tier). It returns results in submission order plus the cache used, so
// callers can report hit statistics.
func Run(jobs []Job, workers int, cacheDir string) ([]Result, *Cache, error) {
	cache, err := NewCache(cacheDir)
	if err != nil {
		return nil, nil, err
	}
	pool := &Pool{Workers: workers, Cache: cache}
	return pool.Run(jobs), cache, nil
}
