package obs

import "fmt"

// Registry is the run's ordered list of end-of-run metric values. The
// substrate publishes its per-layer counters here once an observed run
// ends (sim.Engine.Stats, tdx.Stats, uvm.Stats, pcie's counters, serve's
// run totals), and the exporters render them in first-set order, which
// keeps every export deterministic. A nil *Registry ignores everything.
type Registry struct {
	points []MetricPoint
}

// MetricPoint is one named end-of-run value.
type MetricPoint struct {
	Name  string
	Unit  string
	Value float64
}

// Set records the named metric's value. Setting a name again overwrites
// its value in place, so publishing twice is safe. It panics if the name
// was set before with a different unit, a programming error at the call
// site.
func (r *Registry) Set(name, unit string, v float64) {
	if r == nil {
		return
	}
	for i := range r.points {
		if p := &r.points[i]; p.Name == name {
			if p.Unit != unit {
				panic(fmt.Sprintf("obs: metric %q already has unit %q, not %q", name, p.Unit, unit))
			}
			p.Value = v
			return
		}
	}
	r.points = append(r.points, MetricPoint{Name: name, Unit: unit, Value: v})
}

// Each visits every metric in first-set order. Nil-safe.
func (r *Registry) Each(fn func(MetricPoint)) {
	if r == nil {
		return
	}
	for _, p := range r.points {
		fn(p)
	}
}
