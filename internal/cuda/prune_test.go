package cuda

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hccsim/internal/gpu"
	"hccsim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// prunedByFilter is the window pruning prune replaced: keep every signal
// that has not fired, wherever it sits in the window.
func prunedByFilter(pending []*sim.Signal) []*sim.Signal {
	var keep []*sim.Signal
	for _, sig := range pending {
		if !sig.Fired() {
			keep = append(keep, sig)
		}
	}
	return keep
}

// windowError reports how s's window breaks the prefix rule — a fired
// signal behind one that has not fired, a slot outside the window that
// still pins a signal, or prune keeping something other than what the
// filter keeps — or "" when it holds.
func windowError(s *Stream) string {
	win := s.window()
	for i := 1; i < len(win); i++ {
		if win[i].Fired() && !win[i-1].Fired() {
			return fmt.Sprintf("stream %d at %v: signal %d fired before signal %d", s.ID(), s.ctx.p.Now(), i, i-1)
		}
	}
	for i, sig := range s.pending[:s.head] {
		if sig != nil {
			return fmt.Sprintf("stream %d at %v: slot %d behind the head still pins a signal", s.ID(), s.ctx.p.Now(), i)
		}
	}
	for i, sig := range s.pending[len(s.pending):cap(s.pending)] {
		if sig != nil {
			return fmt.Sprintf("stream %d at %v: slot %d past the window still pins a signal", s.ID(), s.ctx.p.Now(), len(s.pending)+i)
		}
	}
	shadow := &Stream{pending: append([]*sim.Signal(nil), win...)}
	shadow.prune()
	if want := prunedByFilter(win); fmt.Sprint(shadow.window()) != fmt.Sprint(want) {
		return fmt.Sprintf("stream %d at %v: prune keeps %d signals, the filter %d", s.ID(), s.ctx.p.Now(), len(shadow.window()), len(want))
	}
	return ""
}

// TestGoldenPruneMix drives two streams with a mix of kernels, async
// copies, event markers and cross-stream waits, past the ring window on
// both, and checks every window after each API call and at every
// microsecond of simulated time. The recorded trace is compared with
// testdata/prune-mix.golden, which the filtering prune produced, so the
// prefix rule changes no timing.
func TestGoldenPruneMix(t *testing.T) {
	var out strings.Builder
	for _, cc := range []bool{false, true} {
		eng := sim.NewEngine()
		rt := New(eng, DefaultConfig(cc))
		// Checks run inside simulated processes, where t.Fatal would stop
		// the engine mid-step, so the first broken window is kept instead.
		var streams []*Stream
		var broken string
		check := func() {
			for _, s := range streams {
				if msg := windowError(s); msg != "" && broken == "" {
					broken = msg
				}
			}
		}
		full, done := 0, false
		eng.Spawn("host", func(p *sim.Proc) {
			c := rt.Bind(p)
			h := c.MallocHost("h", 1<<20)
			d := c.Malloc("d", 1<<20)
			a, b := c.StreamCreate(), c.StreamCreate()
			streams = []*Stream{a, b}
			ev := c.EventCreate()
			ring := rt.params.RingSlots
			for i := 0; i < 3*ring; i++ {
				s := a
				if i%3 == 2 {
					s = b
				}
				switch i % 11 {
				case 0:
					c.MemcpyAsync(d, h, 64<<10, s)
				case 4:
					ev.Record(a)
					b.WaitEvent(ev)
				case 7:
					ev.Record(b)
				default:
					spec := gpu.KernelSpec{Name: fmt.Sprintf("k%d", i%4), Fixed: time.Duration(15+i%7) * time.Microsecond}
					c.Launch(spec, s)
				}
				check()
				for _, s := range streams {
					if len(s.window()) == ring {
						full++
					}
				}
				if i == 2*ring {
					a.Synchronize()
					check()
				}
			}
			c.Sync()
			check()
			done = true
		})
		eng.Spawn("monitor", func(p *sim.Proc) {
			for !done {
				check()
				p.Sleep(time.Microsecond)
			}
		})
		eng.Run()
		if broken != "" {
			t.Fatalf("cc=%v: %s", cc, broken)
		}
		if full == 0 {
			t.Fatalf("cc=%v: no window ever filled; the throttle went untested", cc)
		}
		fmt.Fprintf(&out, "mode %s end %v\n", rt.Mode().Name(), eng.Now())
		for e := range rt.Tracer().All() {
			fmt.Fprintf(&out, "%s %s %d %d %d\n", e.Kind, e.Name, e.Stream, int64(e.Start), int64(e.End))
		}
	}
	path := filepath.Join("testdata", "prune-mix.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("trace drifted from %s:\n%s", path, firstDiff(out.String(), string(want)))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
