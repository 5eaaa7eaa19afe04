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
	"hccsim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// streamLog is what the test sees of one stream's commands from outside
// its channel: every command submitted, in order, and for each whether its
// completion is visible. A kernel or copy is complete once the trace holds
// its event, a marker once its signal has fired; a wait leaves no trace.
// A launch is logged before the call, since the call goes on after it
// submits the kernel; the trace's launch event tells whether it has.
// Every other call submits its command last, so it is logged after.
type streamLog struct {
	s        *Stream
	cmds     []loggedCmd
	launches int
}

type loggedCmd struct {
	traced bool        // a kernel or copy, recorded on the stream when it completes
	marker *sim.Signal // an event marker's signal; nil for other commands
}

// completedError reports how the channel's count of in-flight commands
// disagrees with the commands seen complete, or "" when it agrees: the
// channel completes in FIFO order, so with k = submitted - InFlight() the
// first k commands must all be complete and none after them. launched and
// traced count the stream's launch events and its kernel and copy events
// in the trace.
func (l *streamLog) completedError(launched, traced int) string {
	s := l.s
	cmds := l.cmds
	if launched < l.launches {
		cmds = cmds[:len(cmds)-1] // the launch in progress has not submitted yet
	}
	k := len(cmds) - s.ch.InFlight()
	if k < 0 {
		return fmt.Sprintf("stream %d at %v: %d in flight of %d submitted", s.ID(), s.ctx.p.Now(), s.ch.InFlight(), len(cmds))
	}
	seen := 0
	for i, c := range cmds {
		var done, known bool
		switch {
		case c.traced:
			seen++
			done, known = seen <= traced, true
		case c.marker != nil:
			done, known = c.marker.Fired(), true
		}
		if known && done != (i < k) {
			return fmt.Sprintf("stream %d at %v: command %d complete=%v, but the channel counts %d of %d complete", s.ID(), s.ctx.p.Now(), i, done, k, len(cmds))
		}
	}
	return ""
}

// TestGoldenPruneMix drives two streams with a mix of kernels, async
// copies, event markers and cross-stream waits, past the ring window on
// both, and checks each stream's completion count after every API call
// and at every microsecond of simulated time (see runMix). The recorded
// trace is compared with testdata/prune-mix.golden, which the
// per-command completion signals of an earlier window produced, so the
// count changes no timing. The mix itself never fills a ring: its kernels
// keep pace with the host. The same mix with 150µs kernels fills one in
// both modes, and the throttle must block there.
func TestGoldenPruneMix(t *testing.T) {
	var out strings.Builder
	for _, cc := range []bool{false, true} {
		rt, _, broken := runMix(cc, 15*time.Microsecond)
		if broken != "" {
			t.Fatalf("cc=%v: %s", cc, broken)
		}
		fmt.Fprintf(&out, "mode %s end %v\n", rt.Mode().Name(), rt.eng.Now())
		for e := range rt.Tracer().All() {
			fmt.Fprintf(&out, "%s %s %d %d %d\n", e.Kind, e.Name, e.Stream, int64(e.Start), int64(e.End))
		}
		_, blocked, broken := runMix(cc, 150*time.Microsecond)
		if broken != "" {
			t.Fatalf("cc=%v, long kernels: %s", cc, broken)
		}
		if blocked == 0 {
			t.Fatalf("cc=%v: no launch found the ring full; the throttle went untested", cc)
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

// runMix runs the two-stream mix of TestGoldenPruneMix with kernels of
// base to base+6µs. It checks after every API call, and at every
// microsecond, that each channel's completion count agrees with the
// commands seen complete, and after every launch that no more than a ring
// of commands is in flight. It returns the drained runtime, the number of launches
// that found their ring full, which the throttle blocks, and the first
// broken check, or "".
func runMix(cc bool, base time.Duration) (rt *Runtime, blocked int, broken string) {
	eng := sim.NewEngine()
	rt = New(eng, DefaultConfig(cc))
	// Checks run inside simulated processes, where t.Fatal would stop
	// the engine mid-step, so the first broken check is kept instead.
	var logs []*streamLog
	fail := func(msg string) {
		if msg != "" && broken == "" {
			broken = msg
		}
	}
	check := func() {
		launched, traced := map[int]int{}, map[int]int{}
		for e := range rt.Tracer().All() {
			switch {
			case e.Kind == trace.KindLaunch:
				launched[e.Stream]++
			case e.Kind == trace.KindKernel || e.Name == "memcpyAsync":
				traced[e.Stream]++
			}
		}
		for _, l := range logs {
			fail(l.completedError(launched[l.s.ID()], traced[l.s.ID()]))
		}
	}
	done := false
	eng.Spawn("host", func(p *sim.Proc) {
		c := rt.Bind(p)
		h := c.MallocHost("h", 1<<20)
		d := c.Malloc("d", 1<<20)
		a, b := &streamLog{s: c.StreamCreate()}, &streamLog{s: c.StreamCreate()}
		logs = []*streamLog{a, b}
		ev := c.EventCreate()
		ring := rt.params.RingSlots
		for i := 0; i < 3*ring; i++ {
			l := a
			if i%3 == 2 {
				l = b
			}
			switch i % 11 {
			case 0:
				c.MemcpyAsync(d, h, 64<<10, l.s)
				l.cmds = append(l.cmds, loggedCmd{traced: true})
			case 4:
				ev.Record(a.s)
				a.cmds = append(a.cmds, loggedCmd{marker: ev.sig})
				b.s.WaitEvent(ev)
				b.cmds = append(b.cmds, loggedCmd{})
			case 7:
				ev.Record(b.s)
				b.cmds = append(b.cmds, loggedCmd{marker: ev.sig})
			default:
				// The throttle blocks exactly when the ring is full on
				// entry, and nothing runs between this check and it.
				if l.s.ch.InFlight() >= ring {
					blocked++
				}
				spec := gpu.KernelSpec{Name: fmt.Sprintf("k%d", i%4), Fixed: base + time.Duration(i%7)*time.Microsecond}
				l.cmds = append(l.cmds, loggedCmd{traced: true})
				l.launches++
				c.Launch(spec, l.s)
				if n := l.s.ch.InFlight(); n > ring {
					fail(fmt.Sprintf("stream %d at %v: %d commands in flight after a launch, ring %d", l.s.ID(), p.Now(), n, ring))
				}
			}
			check()
			if i == 2*ring {
				a.s.Synchronize()
				check()
				if n := a.s.ch.InFlight(); n != 0 {
					fail(fmt.Sprintf("stream %d: %d commands in flight after Synchronize", a.s.ID(), n))
				}
			}
		}
		c.Sync()
		check()
		for _, l := range logs {
			if n := l.s.ch.InFlight(); n != 0 {
				fail(fmt.Sprintf("stream %d: %d commands in flight after Sync", l.s.ID(), n))
			}
		}
		done = true
	})
	eng.Spawn("monitor", func(p *sim.Proc) {
		// The run takes milliseconds; past a second the host is stuck, and
		// the monitor stops so the engine reports the deadlock.
		for !done && p.Now() < sim.Time(time.Second) {
			check()
			p.Sleep(time.Microsecond)
		}
	})
	eng.Run()
	return rt, blocked, broken
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
