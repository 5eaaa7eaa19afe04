package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the interleaving golden")

// interleaveScenario runs a seeded mix of both task models over every
// waitable primitive — Sleep with zero, negative and same-instant delays,
// Resource (Use, UseA, an Await bridge), Queue (Proc and actor getters),
// Signal, plain callbacks and RunUntil windows — and returns one
// "time task step" line per observable step, plus the engine's event counts.
func interleaveScenario(seed int64) string {
	var b strings.Builder
	e := NewEngine()
	logf := func(task, format string, args ...any) {
		fmt.Fprintf(&b, "%d %s %s\n", int64(e.Now()), task, fmt.Sprintf(format, args...))
	}
	res := NewResource(e, 2).SetLabel("res")
	q := NewQueue[int](e).SetLabel("q")
	gate := NewSignal(e).SetLabel("gate")
	durs := []Duration{-1, 0, 0, 1, 2, 3, 5, 8}

	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("proc%d", i)
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		e.Spawn(name, func(p *Proc) {
			for k := 0; k < 40; k++ {
				if i == 0 && k == 20 {
					gate.Fire()
					logf(name, "fire gate")
				}
				if k == 30 {
					gate.Wait(p)
					logf(name, "passed gate")
				}
				d := durs[rng.Intn(len(durs))]
				switch rng.Intn(6) {
				case 0:
					p.Sleep(d)
					logf(name, "slept %d", d)
				case 1:
					res.Use(p, d)
					logf(name, "used %d", d)
				case 2:
					q.Put(100*i + k)
					logf(name, "put %d", 100*i+k)
				case 3:
					p.Await(func(a *Actor, step func(any), state any) { res.UseA(a, d, step, state) })
					logf(name, "awaited %d", d)
				case 4:
					e.Schedule(max(d, 0), func() { logf("cb", "from %s %d", name, k) })
					p.Sleep(0)
					logf(name, "scheduled %d", d)
				default:
					p.Sleep(1)
					p.Sleep(d)
					logf(name, "slept twice %d", d)
				}
			}
		})
	}

	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("actor%d", i)
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(i)))
		k := 0
		e.SpawnActor(name, func(a *Actor) {
			var step func(any)
			step = func(any) {
				if k == 30 {
					logf(name, "done")
					a.Done()
					return
				}
				k++
				d := durs[rng.Intn(len(durs))]
				logf(name, "step %d", k)
				switch rng.Intn(4) {
				case 0:
					a.Sleep(d, step, nil)
				case 1:
					res.UseA(a, d, step, nil)
				case 2:
					gate.WaitA(a, step, nil)
				default:
					q.Put(1000*(i+1) + k)
					a.Sleep(0, step, nil)
				}
			}
			step(nil)
		})
	}

	e.SpawnDaemon("qp", func(p *Proc) {
		for {
			v := q.Get(p)
			logf("qp", "got %d", v)
			p.Sleep(2)
		}
	})
	e.SpawnActorDaemon("qa", func(a *Actor) {
		var got func(any, int)
		got = func(_ any, v int) {
			logf("qa", "got %d", v)
			a.Sleep(3, func(any) { q.GetA(a, got, nil) }, nil)
		}
		q.GetA(a, got, nil)
	})

	for _, deadline := range []Time{5, 17, 40} {
		logf("engine", "RunUntil(%d) = %d", int64(deadline), int64(e.RunUntil(deadline)))
	}
	logf("engine", "Run = %d", int64(e.Run()))
	st := e.Stats()
	logf("engine", "fired %d scheduled %d", st.Fired, st.Scheduled)
	return b.String()
}

// The fine-grained interleaving of Procs, actors and callbacks is part of
// the engine's contract: the golden holds the order in which every wake-up
// goes through the event queue, and any inline fast path must replay it
// byte for byte. Regenerate only for an intended ordering change:
//
//	go test ./internal/sim -run InterleavingGolden -update
func TestInterleavingGolden(t *testing.T) {
	run := func() string {
		var b strings.Builder
		for seed := int64(1); seed <= 3; seed++ {
			fmt.Fprintf(&b, "# seed %d\n", seed)
			b.WriteString(interleaveScenario(seed))
		}
		return b.String()
	}
	got := run()
	if run() != got {
		t.Fatal("interleaving scenario is not deterministic run to run")
	}
	path := filepath.Join("testdata", "interleave.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("interleaving drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("interleaving drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
