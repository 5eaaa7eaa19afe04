package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so selection must sort
	}
	return xs
}

func TestTailOf(t *testing.T) {
	if _, ok := tailOf(seq(10)); ok {
		t.Error("10 samples cannot have a sample with 10 beyond it")
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 0},   // the minimum is the only rank with 10 beyond
		{21, 11, 50}, // the median of 21 has exactly 10 beyond
		{111, 101, 100 * 100.0 / 110},
		{1001, 991, 99},
	} {
		got, ok := tailOf(seq(c.n))
		if !ok || got.Value != c.value || got.Percentile != c.pct || got.Samples != c.n || got.Beyond != tailMinBeyond {
			t.Errorf("tailOf(%d samples) = %+v, %v; want value %v at p%v with %d beyond",
				c.n, got, ok, c.value, c.pct, tailMinBeyond)
		}
	}
}

func TestJobTailPerPassOrPooled(t *testing.T) {
	pass := func(n int, scale float64) passStats {
		xs := seq(n)
		for i := range xs {
			xs[i] *= scale
		}
		return passStats{latencies: xs}
	}
	// Small passes pool their jobs: 3 x 12 = 36 jobs, rank 25 of 0..35.
	got, note := jobTail([]passStats{pass(12, 1), pass(12, 1), pass(12, 1)})
	if got != 9 {
		t.Errorf("pooled tail = %v (%s), want 9", got, note)
	}
	// Large passes take each pass's tail (value n-10) and the median.
	got, note = jobTail([]passStats{pass(200, 1), pass(200, 3), pass(200, 2)})
	if got != 2*190 {
		t.Errorf("per-pass tail = %v (%s), want 380", got, note)
	}
}
