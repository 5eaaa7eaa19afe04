package main

import "sort"

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for that percentile to be worth reporting.
const tailMinBeyond = 10

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample set that still has at least
// tailMinBeyond samples above it.
type tail struct {
	Value      float64 // the sample at that rank
	Percentile float64 // its rank as a percentile, 0..100
	Samples    int     // total samples
	Beyond     int     // samples ranked above it
}

// tailOf selects the tail percentile of xs. With n samples sorted
// ascending, index k has n-1-k samples beyond it, so the highest index
// with tailMinBeyond beyond is n-1-tailMinBeyond. ok is false when there
// are too few samples for any percentile to qualify.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	k := n - 1 - tailMinBeyond
	if k < 0 {
		return tail{Samples: n}, false
	}
	s := sorted(xs)
	p := 100.0
	if n > 1 {
		p = 100 * float64(k) / float64(n-1)
	}
	return tail{Value: s[k], Percentile: p, Samples: n, Beyond: n - 1 - k}, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
