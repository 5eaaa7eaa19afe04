package main

import (
	"fmt"
	"os"
	"sort"
)

// traceShare is the part of -seconds a traced run spends on each of its
// two pass loops (untraced, then profiled); microbenchmarks follow.
const traceShare = 0.4

// minJobs keeps enough job latencies for a tail percentile to qualify.
const minJobs = tailMinBeyond + 1

// measure runs the workload as the options ask and collects the result.
func measure(o options, w workload) (*result, error) {
	res := &result{Env: environmentOf(o)}
	var expect map[string]string
	if o.seed == defaultSeed && o.workload != "campaign" && !o.record {
		refs, err := readRefs(refPath(o.refs, o.workload))
		if err != nil {
			return nil, fmt.Errorf("default-seed reference: %w", err)
		}
		expect = refs
	}

	var setupTimes []float64
	if !o.trace && !o.record {
		var err error
		if setupTimes, err = probeSetup(o); err != nil {
			return nil, err
		}
	}
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	r := newRunner(w, res.Env.RunID, expect)
	r.heap = startHeapSampler()
	defer r.heap.close()

	switch {
	case o.record:
		if _, err := r.loop(0, 1, 0); err != nil {
			return nil, err
		}
		if err := writeRefs(refPath(o.refs, o.workload), r.expect); err != nil {
			return nil, err
		}
	case !o.trace:
		passes, err := r.loop(o.seconds, 3, minJobs)
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(passes, setupTimes)
	default:
		plain, err := r.loop(traceShare*o.seconds, 2, 0)
		if err != nil {
			return nil, err
		}
		traced, layers, err := r.profilePasses(traceShare*o.seconds, 2)
		if err != nil {
			return nil, err
		}
		micro, err := runMicros(r, o.out)
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(plain, traced, layers, micro)
		for i, m := range res.Metrics {
			if lm, ok := layerMetricByName[m.Name]; ok {
				res.Metrics[i].Note += fmt.Sprintf("; should move %s on %s", lm.moves, lm.on)
			}
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		if err := r.writeSpans(o.out, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	sort.Slice(res.Metrics, func(i, j int) bool { return res.Metrics[i].Name < res.Metrics[j].Name })
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Correct = r.failed == 0
	return res, nil
}

// endToEnd derives the user-visible metrics from untraced passes.
func endToEnd(passes []passStats, setupTimes []float64) []metric {
	var wall, cpu, alloc, heap, lat []float64
	for _, p := range passes {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.allocBytes)
		heap = append(heap, p.heapPeak)
		lat = append(lat, p.latencies...)
	}
	tailMs, tailNote := jobTail(passes)
	n := fmt.Sprintf("median of %d passes", len(passes))
	return []metric{
		{Name: "pass_s", Value: median(wall), Unit: "s", Note: n},
		{Name: "job_p50_ms", Value: median(lat), Unit: "ms", Note: fmt.Sprintf("median of %d jobs", len(lat))},
		{Name: "job_tail_ms", Value: tailMs, Unit: "ms", Note: tailNote},
		{Name: "cpu_s", Value: median(cpu), Unit: "s", Note: n + ", user+sys"},
		{Name: "alloc_mb", Value: median(alloc) / 1e6, Unit: "MB", Note: n},
		{Name: "heap_peak_mb", Value: median(heap) / 1e6, Unit: "MB", Note: n + ", live heap after GC"},
		{Name: "setup_s", Value: median(setupTimes), Unit: "s",
			Note: fmt.Sprintf("median of %d fresh processes, start to set-up done", len(setupTimes))},
	}
}

// passTailJobs is the pass size from which the tail is taken per pass: a
// pass of that many jobs puts the tail percentile at p90 or above.
const passTailJobs = 10*tailMinBeyond + 1

// jobTail selects job_tail_ms. When every pass alone has passTailJobs jobs,
// the tail is taken within each pass and the median over passes reported,
// so a handful of stalls across a long run cannot set it; otherwise it is
// taken over all jobs of the run.
func jobTail(passes []passStats) (float64, string) {
	perPass := true
	var all []float64
	for _, p := range passes {
		perPass = perPass && len(p.latencies) >= passTailJobs
		all = append(all, p.latencies...)
	}
	if !perPass {
		t, _ := tailOf(all) // loop guarantees minJobs latencies
		return t.Value, fmt.Sprintf("p%.2f of %d jobs, %d beyond it", t.Percentile, t.Samples, t.Beyond)
	}
	var vals []float64
	var t tail
	for _, p := range passes {
		t, _ = tailOf(p.latencies)
		vals = append(vals, t.Value)
	}
	return median(vals), fmt.Sprintf("median over %d passes of each pass's p%.2f (%d jobs, %d beyond it)",
		len(passes), t.Percentile, t.Samples, t.Beyond)
}

// perLayer derives the per-layer metrics of a traced run: counters and
// host time per event from the untraced passes, the CPU share of each
// layer from the profiled passes, and the microbenchmarks.
func perLayer(plain, traced []passStats, layers map[string]int64, micro []metric) []metric {
	var wall, tracedWall []float64
	var gc, total float64
	for _, p := range plain {
		wall = append(wall, p.wall)
		gc += p.gcCPU
		total += p.totalCPU
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall)
	}
	c := plain[0].counters // every pass's counters are checked equal
	ms := append([]metric(nil), micro...)
	for _, lm := range layerMetrics {
		if !lm.counter {
			continue
		}
		ms = append(ms, metric{Name: lm.name, Value: float64(c[lm.name]), Unit: lm.unit, Note: "per pass"})
	}
	hits, misses := float64(c["batch.cache_hits"]), float64(c["batch.cache_misses"])
	ms = append(ms,
		metric{Name: "batch.hit_ratio", Value: ratio(hits, hits+misses), Unit: "ratio",
			Note: fmt.Sprintf("base: %.0f lookups per pass", hits+misses)},
		metric{Name: "sim.host_ns_per_event", Value: ratio(median(wall)*1e9, float64(c["sim.events_fired"])), Unit: "ns",
			Note: "median pass wall time / events fired"},
		metric{Name: "go.gc_cpu_share", Value: ratio(gc, total), Unit: "ratio",
			Note: fmt.Sprintf("base: %.3g CPU-s over %d untraced passes", total, len(plain))},
		metric{Name: "bench.trace_overhead_ratio", Value: ratio(median(tracedWall), median(wall)), Unit: "ratio",
			Note: fmt.Sprintf("median pass_s profiled (%d passes) / untraced (%d passes)", len(traced), len(plain))},
	)
	var samples int64
	for _, n := range layers {
		samples += n
	}
	for _, l := range profiledLayers {
		ms = append(ms, metric{Name: l + ".self_share", Value: ratio(float64(layers[l]), float64(samples)), Unit: "ratio",
			Note: fmt.Sprintf("base: %d CPU-profile samples", samples)})
	}
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
