package figures

import (
	"sync/atomic"
	"testing"
)

// TestGenerateAllMatchesSerial asserts the fan-out changes only wall-clock
// time, never content: every deterministic figure renders identically
// whether generated serially or fanned out across workers. fig4b is
// excluded — it measures real crypto throughput on the build machine.
func TestGenerateAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	volatile := map[string]bool{"fig4b": true}
	var ids []string
	for _, id := range IDs() {
		if !volatile[id] {
			ids = append(ids, id)
		}
	}
	serial := make(map[string]string, len(ids))
	for _, id := range ids {
		tab, err := Generate(id)
		if err != nil {
			t.Fatal(err)
		}
		serial[id] = tab.String()
	}
	tables, err := GenerateAll(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("GenerateAll returned %d tables, want %d", len(tables), len(IDs()))
	}
	for i, tab := range tables {
		if tab.ID != IDs()[i] {
			t.Fatalf("table %d out of order: %s, want %s", i, tab.ID, IDs()[i])
		}
		want, ok := serial[tab.ID]
		if !ok {
			continue // volatile figure
		}
		if got := tab.String(); got != want {
			t.Errorf("%s differs between serial and parallel generation:\n--- parallel ---\n%s--- serial ---\n%s",
				tab.ID, got, want)
		}
	}
}

// TestFanOutRunsEachIndexOnce covers the worker counts GenerateAll can be
// given: GOMAXPROCS (<= 0), serial, and more workers than indices.
func TestFanOutRunsEachIndexOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{-1, 0, 1, 3, n + 7} {
		var calls [n]atomic.Int32
		fanOut(n, workers, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	fanOut(0, 4, func(int) { t.Error("fanOut(0, ...) called do") })
}
