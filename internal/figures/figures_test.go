package figures

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"hccsim/internal/core"
	"hccsim/internal/workloads"
)

func cellF(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not numeric: %v", tab.ID, row, col, tab.Cell(row, col), err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("v", 1.5)
	tab.Notes = append(tab.Notes, "n")
	s := tab.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "1.5", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,bb\nv,1.5\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12a", "fig12b", "fig12c", "fig13", "fig14", "observations"}
	ids := IDs()
	have := make(map[string]bool)
	for _, id := range ids {
		have[id] = true
		if Describe(id) == "" {
			t.Errorf("%s: empty description", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing figure %s", id)
		}
	}
	if _, err := Generate("fig999"); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

func TestFig04aShape(t *testing.T) {
	tab := Fig04aBandwidth()
	last := len(tab.Rows) - 1 // 1 GiB row
	pageable := cellF(t, tab, last, 1)
	pinned := cellF(t, tab, last, 2)
	ccPageable := cellF(t, tab, last, 3)
	ccPinned := cellF(t, tab, last, 4)

	// Observation 1: pinned >> pageable in base; the gap disappears in CC.
	if pinned < 3*pageable {
		t.Fatalf("pinned (%v) not much faster than pageable (%v)", pinned, pageable)
	}
	if diff := (ccPinned - ccPageable) / ccPageable; diff > 0.02 || diff < -0.02 {
		t.Fatalf("CC pinned/pageable gap persists: %v vs %v", ccPinned, ccPageable)
	}
	// CC plateau sits just under the single-core AES-GCM bound of 3.36.
	if ccPinned < 2.7 || ccPinned > 3.36 {
		t.Fatalf("CC plateau %.2f GB/s, want ~3.0 under 3.36", ccPinned)
	}
	// Small transfers are latency-dominated.
	if small := cellF(t, tab, 0, 2); small > 0.1 {
		t.Fatalf("64B pinned bandwidth %.3f GB/s not latency-bound", small)
	}
}

func TestFig04bAnchors(t *testing.T) {
	tab := Fig04bCrypto(false)
	byAlg := make(map[string][]string)
	for _, r := range tab.Rows {
		byAlg[r[0]] = r
	}
	if byAlg["aes-128-gcm"][1] != "3.36" {
		t.Fatalf("EMR AES-128-GCM = %s, want 3.36", byAlg["aes-128-gcm"][1])
	}
	if byAlg["ghash"][1] != "8.9" {
		t.Fatalf("EMR GHASH = %s, want 8.9", byAlg["ghash"][1])
	}
}

func TestFig05SuiteRatios(t *testing.T) {
	tab := Fig05CopyTime()
	if len(tab.Rows) < 25 {
		t.Fatalf("only %d apps in fig5", len(tab.Rows))
	}
	var sum, max float64
	for i := range tab.Rows {
		r := cellF(t, tab, i, 7)
		if r < 1 {
			t.Errorf("%s: CC copy ratio %.2f < 1", tab.Cell(i, 0), r)
		}
		sum += r
		if r > max {
			max = r
		}
	}
	avg := sum / float64(len(tab.Rows))
	// Paper: avg 5.80x, max 19.69x. Accept the band the simulator lands in.
	if avg < 3.5 || avg > 8.5 {
		t.Fatalf("suite copy ratio avg %.2f, want ~5.8", avg)
	}
	if max < 10 {
		t.Fatalf("suite copy ratio max %.2f, want >10 (paper 19.69)", max)
	}
}

func TestFig07SuiteAverages(t *testing.T) {
	tab := Fig07LaunchQueue()
	if len(tab.Notes) == 0 {
		t.Fatal("fig7 missing averages note")
	}
	// Averages are validated numerically through the observations table.
	obs := Observations()
	vals := make(map[string]string)
	for _, r := range obs.Rows {
		vals[r[0]] = r[2]
	}
	check := func(key string, lo, hi float64) {
		t.Helper()
		s := strings.TrimSuffix(vals[key], "x")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s: bad value %q", key, vals[key])
		}
		if v < lo || v > hi {
			t.Errorf("%s = %.2f, want in [%.2f, %.2f]", key, v, lo, hi)
		}
	}
	check("Obs 4: KLO CC/base average", 1.2, 2.2)              // paper 1.42
	check("Obs 4: LQT CC/base average", 1.1, 2.4)              // paper 1.43
	check("Obs 4: KQT CC/base average", 1.6, 3.2)              // paper 2.32
	check("Obs 3: copy time CC/base, suite average", 3.5, 8.5) // paper 5.80
	check("Sec VI-A: cudaMalloc CC/base", 3.5, 8.0)            // paper 5.67
	check("Sec VI-A: cudaMallocHost CC/base", 3.5, 8.0)        // paper 5.72
	check("Sec VI-A: cudaFree CC/base", 7.0, 14.0)             // paper 10.54
	check("Obs 5: UVM KET vs non-UVM base (no CC)", 3.0, 8.5)  // paper 5.29
	check("Obs 5: UVM KET vs non-UVM base (CC)", 100, 280)     // paper 188.87
}

func TestFig08StackShape(t *testing.T) {
	tab := Fig08CallStack()
	var baseRows, ccRows int
	sawHypercall := false
	for _, r := range tab.Rows {
		switch r[0] {
		case "base":
			baseRows++
		case "cc":
			ccRows++
			if strings.Contains(r[1], "tdx_hypercall") {
				sawHypercall = true
			}
		}
	}
	if ccRows <= baseRows {
		t.Fatalf("CC stack (%d frames) not deeper than base (%d)", ccRows, baseRows)
	}
	if !sawHypercall {
		t.Fatal("CC stack missing tdx_hypercall frame")
	}
}

func TestFig09NonUVMUnaffected(t *testing.T) {
	tab := Fig09KET()
	for i := range tab.Rows {
		cc := cellF(t, tab, i, 2)
		if cc < 0.99 || cc > 1.05 {
			t.Errorf("%s: non-UVM KET ratio %.3f, want ~1.0", tab.Cell(i, 0), cc)
		}
		if tab.Cell(i, 4) != "-" {
			uvmCC := cellF(t, tab, i, 4)
			uvmBase := cellF(t, tab, i, 3)
			if uvmCC <= uvmBase {
				t.Errorf("%s: UVM CC (%.1f) not above UVM base (%.1f)", tab.Cell(i, 0), uvmCC, uvmBase)
			}
		}
	}
}

func TestFig10Regimes(t *testing.T) {
	tab := Fig10Timelines()
	regime := make(map[string]string)
	for _, r := range tab.Rows {
		if r[1] == "cc" {
			regime[r[0]] = r[8]
		}
	}
	// Paper: sc and 3dconv are launch-bound (low KLR); lud and srad hide
	// launch overhead behind execution.
	for _, app := range []string{"sc", "3dconv"} {
		if regime[app] != "launch-bound" {
			t.Errorf("%s classified %q, want launch-bound", app, regime[app])
		}
	}
	for _, app := range []string{"lud", "srad"} {
		if regime[app] != "compute-hidden" {
			t.Errorf("%s classified %q, want compute-hidden", app, regime[app])
		}
	}
}

func TestFig11Shift(t *testing.T) {
	tab := Fig11CDFs()
	// Rows: (KLO base, KET base, KLO cc, KET cc) with p50 at col 3, mean col 6.
	find := func(metric, mode string) []string {
		for _, r := range tab.Rows {
			if r[0] == metric && r[1] == mode {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", metric, mode)
		return nil
	}
	kloBase := find("KLO", "base")
	kloCC := find("KLO", "cc")
	mb, _ := strconv.ParseFloat(kloBase[6], 64)
	mc, _ := strconv.ParseFloat(kloCC[6], 64)
	if mc <= mb {
		t.Fatalf("CC KLO mean (%v) not above base (%v)", mc, mb)
	}
	ketBase := find("KET", "base")
	ketCC := find("KET", "cc")
	pb, _ := strconv.ParseFloat(ketBase[3], 64)
	pc, _ := strconv.ParseFloat(ketCC[3], 64)
	if pb != pc {
		t.Fatalf("KET p50 differs under CC (%v vs %v); non-UVM KET should coincide", pb, pc)
	}
}

func TestFig12aFirstLaunchSpikes(t *testing.T) {
	tab := Fig12aLaunchSeries()
	first := cellF(t, tab, 0, 2)
	steady := cellF(t, tab, 3, 2)
	k1First := cellF(t, tab, 6, 2)
	if first < 3*steady || k1First < 3*steady {
		t.Fatalf("first-launch spikes missing: first=%v k1=%v steady=%v", first, k1First, steady)
	}
	// CC first launches cost more than base first launches.
	if ccFirst := cellF(t, tab, 0, 3); ccFirst <= first {
		t.Fatalf("CC first launch (%v) not above base (%v)", ccFirst, first)
	}
}

func TestFig12bInteriorOptimum(t *testing.T) {
	tab := Fig12bFusion()
	// Total time column 3 (base) and 6 (cc): the minimum must be interior —
	// neither the most-split nor the fully-fused end.
	for _, col := range []int{3, 6} {
		bestRow, best := -1, 1e18
		for i := range tab.Rows {
			if v := cellF(t, tab, i, col); v < best {
				best, bestRow = v, i
			}
		}
		if bestRow == 0 || bestRow == len(tab.Rows)-1 {
			t.Errorf("col %d: optimal fusion at extreme row %d", col, bestRow)
		}
	}
}

func TestFig12cOverlapShape(t *testing.T) {
	tab := Fig12cOverlap()
	type row struct{ baseAlpha, ccAlpha float64 }
	byKey := make(map[string]map[int]row)
	for i := range tab.Rows {
		key := tab.Cell(i, 0) + "/" + tab.Cell(i, 1)
		streams, _ := strconv.Atoi(tab.Cell(i, 2))
		if byKey[key] == nil {
			byKey[key] = make(map[int]row)
		}
		byKey[key][streams] = row{cellF(t, tab, i, 4), cellF(t, tab, i, 6)}
	}
	for key, rows := range byKey {
		// One stream cannot overlap; many streams can (Observation 8).
		if rows[1].baseAlpha > 0.05 {
			t.Errorf("%s: single-stream alpha %.3f, want ~0", key, rows[1].baseAlpha)
		}
		if rows[64].baseAlpha < 0.5 {
			t.Errorf("%s: 64-stream base alpha %.3f, want high", key, rows[64].baseAlpha)
		}
		// Overlap is harder under CC.
		if rows[64].ccAlpha > rows[64].baseAlpha+0.01 {
			t.Errorf("%s: CC alpha (%.3f) above base (%.3f)", key, rows[64].ccAlpha, rows[64].baseAlpha)
		}
	}
}

func TestFig13Notes(t *testing.T) {
	tab := Fig13CNN()
	if len(tab.Rows) != 6*(2*2+2*2+2) { // 6 models x (2 batches x fp32/amp x 2 modes + fp16@1024 x 2)
		t.Fatalf("fig13 has %d rows", len(tab.Rows))
	}
	joined := strings.Join(tab.Notes, "\n")
	for _, want := range []string{"batch-64 CC throughput drop", "FP16 at batch 1024"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("fig13 notes missing %q", want)
		}
	}
	// Every CC row's normalized training time exceeds its base counterpart.
	type key struct{ model, batch, prec string }
	norm := make(map[key]map[string]float64)
	for i, r := range tab.Rows {
		k := key{r[0], r[1], r[2]}
		if norm[k] == nil {
			norm[k] = make(map[string]float64)
		}
		norm[k][r[3]] = cellF(t, tab, i, 5)
	}
	for k, modes := range norm {
		if modes["cc"] <= modes["base"] {
			t.Errorf("%v: CC training time (%.3f) not above base (%.3f)", k, modes["cc"], modes["base"])
		}
	}
}

func TestFig14AllAboveOne(t *testing.T) {
	tab := Fig14LLM()
	if len(tab.Rows) != 4 {
		t.Fatalf("fig14 has %d rows", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		for col := 1; col <= 6; col++ {
			if v := cellF(t, tab, i, col); v <= 1 {
				t.Errorf("%s batch col %d: speedup %.2f <= 1", r[0], col, v)
			}
		}
	}
	// AWQ beats BF16 at batch 1; BF16 beats AWQ at batch 128 (CC-off rows).
	bf16 := tab.Rows[0]
	awq := tab.Rows[2]
	b1bf, _ := strconv.ParseFloat(bf16[1], 64)
	b1awq, _ := strconv.ParseFloat(awq[1], 64)
	b128bf, _ := strconv.ParseFloat(bf16[6], 64)
	b128awq, _ := strconv.ParseFloat(awq[6], 64)
	if b1awq <= b1bf {
		t.Errorf("batch 1: AWQ (%.2f) not above BF16 (%.2f)", b1awq, b1bf)
	}
	if b128bf <= b128awq {
		t.Errorf("batch 128: BF16 (%.2f) not above AWQ (%.2f)", b128bf, b128awq)
	}
}

func TestIDsOrderPaperFirst(t *testing.T) {
	ids := IDs()
	if ids[0] != "fig1" || ids[1] != "fig4a" {
		t.Fatalf("display order wrong: %v", ids[:3])
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	if len(ids) != len(registry) {
		t.Fatalf("IDs() lists %d of %d figures", len(ids), len(registry))
	}
}

func TestFig01OverviewShape(t *testing.T) {
	tab := Fig01Overview()
	if len(tab.Rows) != 3 {
		t.Fatalf("fig1 has %d rows", len(tab.Rows))
	}
	ccOff := cellF(t, tab, 0, 1)
	ccOn := cellF(t, tab, 1, 1)
	uvm := cellF(t, tab, 2, 1)
	if !(ccOff < ccOn && ccOn < uvm) {
		t.Fatalf("fig1 ordering wrong: %v %v %v", ccOff, ccOn, uvm)
	}
	joined := strings.Join(tab.Notes, "\n")
	for _, want := range []string{"CC-off timeline", "CC-on timeline", "CC-on UVM timeline", "fault"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("fig1 notes missing %q", want)
		}
	}
}

// Observation 6 cross-validation: applications the model classifies as
// launch-bound (KLR < 1) must suffer larger end-to-end CC slowdowns, on
// average, than compute-hidden ones — the paper's central predictive claim.
func TestObservation6KLRPredictsCCPain(t *testing.T) {
	var launchBoundSum, hiddenSum float64
	var launchBoundN, hiddenN int
	for _, spec := range workloads.All() {
		base, cc := workloads.Pair(spec, workloads.CopyExecute)
		mb := core.Decompose(base.Runtime.Tracer())
		// Judge by total time excluding copies (the copy tax applies to
		// both classes; Observation 6 is about the launch tax).
		bNonCopy := mb.Total - mb.Tmem
		mc := core.Decompose(cc.Runtime.Tracer())
		cNonCopy := mc.Total - mc.Tmem
		if bNonCopy <= 0 {
			continue
		}
		ratio := float64(cNonCopy) / float64(bNonCopy)
		if mb.LaunchBound() {
			launchBoundSum += ratio
			launchBoundN++
		} else {
			hiddenSum += ratio
			hiddenN++
		}
	}
	if launchBoundN == 0 || hiddenN == 0 {
		t.Fatalf("classification degenerate: %d launch-bound, %d hidden", launchBoundN, hiddenN)
	}
	lb := launchBoundSum / float64(launchBoundN)
	hid := hiddenSum / float64(hiddenN)
	if lb <= hid {
		t.Fatalf("launch-bound apps (%.2fx over %d apps) not more CC-sensitive than compute-hidden (%.2fx over %d apps)",
			lb, launchBoundN, hid, hiddenN)
	}
	t.Logf("Observation 6 holds: launch-bound %.2fx (n=%d) vs compute-hidden %.2fx (n=%d)",
		lb, launchBoundN, hid, hiddenN)
}
