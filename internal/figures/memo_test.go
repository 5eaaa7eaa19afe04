package figures

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hccsim/internal/cuda"
)

type testKey struct{ n int }

func TestReuseRunsOncePerKey(t *testing.T) {
	defer beginReuse()()
	var runs atomic.Int32
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = reuse(testKey{1}, func() int { return int(runs.Add(1)) })
		}(i)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("8 concurrent callers ran the key %d times, want 1", n)
	}
	for i, v := range got {
		if v != 1 {
			t.Fatalf("caller %d got %d, want the one run's result 1", i, v)
		}
	}
	// Another key, or the same value under another key type, runs anew.
	if v := reuse(testKey{2}, func() int { return 7 }); v != 7 {
		t.Fatalf("second key returned %d", v)
	}
	if v := reuse(1, func() string { return "int key" }); v != "int key" {
		t.Fatalf("int key returned %q", v)
	}
}

func TestReuseWithoutScopeRunsEveryCall(t *testing.T) {
	runs := 0
	for i := 0; i < 3; i++ {
		reuse(testKey{1}, func() int { runs++; return runs })
	}
	if runs != 3 {
		t.Fatalf("without a scope the key ran %d times, want 3", runs)
	}
}

func TestReuseNestedScopesShareOneMemo(t *testing.T) {
	runs := 0
	run := func() int { runs++; return runs }
	releaseOuter := beginReuse()
	releaseInner := beginReuse()
	reuse(testKey{1}, run)
	releaseInner()
	releaseInner() // a release is idempotent
	reuse(testKey{1}, run)
	if runs != 1 {
		t.Fatalf("inner and outer scope ran the key %d times, want 1", runs)
	}
	releaseOuter()
	reuse(testKey{1}, run)
	if runs != 2 {
		t.Fatalf("after the outermost release the key ran %d times in all, want 2", runs)
	}
}

// The nn figures name the paper's on/off modes as ccMode does; reuse keys
// them that way, which is exact only while these configs are the ones
// cuda.DefaultConfig selects.
func TestCCModeMatchesDefaultConfig(t *testing.T) {
	for _, cc := range []bool{false, true} {
		cfg, err := cuda.NewConfig(ccMode(cc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, cuda.DefaultConfig(cc)) {
			t.Errorf("cc=%v: NewConfig(%q) differs from DefaultConfig", cc, ccMode(cc))
		}
	}
}

// fig13, fig14 and ext-cnnbatch share CNN and LLM runs under GenerateAll;
// each one generated alone must render the same table.
func TestNNFiguresAloneMatchGenerateAll(t *testing.T) {
	ids := []string{"fig13", "fig14", "ext-cnnbatch"}
	alone := make(map[string]string, len(ids))
	for _, id := range ids {
		tab, err := Generate(id)
		if err != nil {
			t.Fatal(err)
		}
		alone[id] = tab.String()
	}
	tables, err := GenerateAll(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if want, ok := alone[tab.ID]; ok && tab.String() != want {
			t.Errorf("%s under GenerateAll:\n%s--- alone ---\n%s", tab.ID, tab.String(), want)
		}
	}
}
