package ccmode

import (
	"strings"
	"testing"
	"time"

	"hccsim/internal/obs"
	"hccsim/internal/sim"
)

// TestByNameAliases checks every documented spelling resolves to its
// canonical mode, including the +pipelined decorator suffix.
func TestByNameAliases(t *testing.T) {
	cases := map[string]string{
		"off": "off", "legacy-vm": "off", " OFF ": "off",
		"tdx": "tdx-h100", "tdx-h100": "tdx-h100",
		"tee-io-direct": "tee-io-direct", "teeio-direct": "tee-io-direct", "tdx-connect": "tee-io-direct",
		"tee-io-bridge": "tee-io-bridge", "teeio-bridge": "tee-io-bridge", "tee-io": "tee-io-bridge", "bridge": "tee-io-bridge",
		"tdx+pipelined":           "tdx-h100+pipelined",
		"tee-io-bridge+pipelined": "tee-io-bridge+pipelined",
	}
	for in, want := range cases {
		m, err := ByName(in)
		if err != nil {
			t.Errorf("ByName(%q): %v", in, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("ByName(%q) = %s, want %s", in, m.Name(), want)
		}
	}
	for _, bad := range []string{"h100", "", "cc", "base", "cc+pipelined"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted an unknown mode name", bad)
		}
	}
}

// TestPredicates pins the policy truth table each backend implements.
func TestPredicates(t *testing.T) {
	type row struct {
		m                               Mode
		cc, mmio, swcp, auth, priv, pin bool
		launchCC                        bool // LaunchPost picks the CC constant
		faultCC                         bool // FaultBatch picks the CC constant
		hypercalls                      int  // FaultHypercalls(3)
	}
	rows := []row{
		{m: Off{}, pin: true},
		{m: TDXH100{}, cc: true, mmio: true, swcp: true, auth: true, priv: true, launchCC: true, faultCC: true, hypercalls: 3},
		{m: TEEIODirect{}, cc: true, priv: true, launchCC: true},
		{m: TEEIOBridge{}, cc: true, pin: true},
	}
	base, ccDur := 600*time.Nanosecond, 1050*time.Nanosecond
	for _, r := range rows {
		name := r.m.Name()
		if r.m.CC() != r.cc || r.m.MMIOTraps() != r.mmio || r.m.SoftwareCryptoPath() != r.swcp ||
			r.m.CmdAuth() != r.auth || r.m.PrivateAllocs() != r.priv || r.m.HostPinWorks() != r.pin {
			t.Errorf("%s: predicate table mismatch", name)
		}
		wantLaunch := base
		if r.launchCC {
			wantLaunch = ccDur
		}
		if got := r.m.LaunchPost(base, ccDur); got != wantLaunch {
			t.Errorf("%s: LaunchPost = %v, want %v", name, got, wantLaunch)
		}
		wantBatch := 64
		if r.faultCC {
			wantBatch = 1
		}
		if got := r.m.FaultBatch(64, 1); got != wantBatch {
			t.Errorf("%s: FaultBatch = %d, want %d", name, got, wantBatch)
		}
		if got := r.m.FaultHypercalls(3); got != r.hypercalls {
			t.Errorf("%s: FaultHypercalls(3) = %d, want %d", name, got, r.hypercalls)
		}
	}
	// The decorator must not change any policy of the wrapped mode.
	p := Pipelined{Inner: TDXH100{}}
	if p.CC() != true || p.MMIOTraps() != true || p.SoftwareCryptoPath() != true ||
		p.LaunchPost(base, ccDur) != ccDur || p.FaultBatch(64, 1) != 1 || p.FaultHypercalls(3) != 3 {
		t.Error("Pipelined changed a wrapped-mode policy")
	}
	if !strings.HasSuffix(p.Name(), "+pipelined") {
		t.Errorf("Pipelined name %q lacks suffix", p.Name())
	}
}

// opPort records the operation sequence a mode drives through a Port.
type opPort struct {
	eng    *sim.Engine
	ops    []string
	rec    func(string)
	frames Frames
}

func newOpPort(eng *sim.Engine) *opPort {
	pt := &opPort{eng: eng}
	pt.rec = func(op string) { pt.ops = append(pt.ops, op) }
	return pt
}

func (pt *opPort) Engine() *sim.Engine     { return pt.eng }
func (pt *opPort) Observer() *obs.Observer { return nil }
func (pt *opPort) Frames() *Frames         { return &pt.frames }
func (pt *opPort) BounceRelease(n int64)   { pt.rec("rel") }

func (pt *opPort) EncryptA(a *sim.Actor, n int64, step func(any), state any) {
	pt.rec("enc")
	a.Sleep(time.Duration(n), step, state)
}
func (pt *opPort) DecryptA(a *sim.Actor, n int64, step func(any), state any) {
	pt.rec("dec")
	a.Sleep(time.Duration(n), step, state)
}
func (pt *opPort) BounceAcquireA(a *sim.Actor, n int64, step func(any), state any) {
	pt.rec("acq")
	step(state)
}
func (pt *opPort) HostMemcpyA(a *sim.Actor, n int64, step func(any), state any) {
	pt.rec("host")
	step(state)
}
func (pt *opPort) DMAA(a *sim.Actor, d Direction, n int64, step func(any), state any) {
	pt.rec("dma-" + d.String())
	step(state)
}
func (pt *opPort) BridgeDMAA(a *sim.Actor, d Direction, n int64, step func(any), state any) {
	pt.rec("bridge-" + d.String())
	step(state)
}

// run drives one mode.Transfer inside an engine and returns the recorded
// operation sequence plus the managed flag.
func run(t *testing.T, m Mode, dir Direction, bytes, chunk int64, pinned bool) ([]string, bool) {
	t.Helper()
	eng := sim.NewEngine()
	pt := newOpPort(eng)
	var managed bool
	eng.Spawn("xfer", func(p *sim.Proc) {
		managed = m.Transfer(pt, p, dir, bytes, chunk, pinned)
	})
	eng.Run()
	return pt.ops, managed
}

// TestTransferSequences pins the per-chunk operation order of each backend.
func TestTransferSequences(t *testing.T) {
	join := func(ops []string) string { return strings.Join(ops, " ") }

	ops, managed := run(t, Off{}, H2D, 2, 1, true)
	if join(ops) != "dma-H2D dma-H2D" || managed {
		t.Errorf("Off pinned H2D: %q managed=%v", join(ops), managed)
	}
	ops, _ = run(t, Off{}, H2D, 2, 1, false)
	if join(ops) != "host dma-H2D host dma-H2D" {
		t.Errorf("Off pageable H2D: %q", join(ops))
	}

	ops, managed = run(t, TDXH100{}, H2D, 2, 1, true)
	if join(ops) != "acq enc dma-H2D rel acq enc dma-H2D rel" || !managed {
		t.Errorf("TDXH100 pinned H2D: %q managed=%v", join(ops), managed)
	}
	ops, _ = run(t, TDXH100{}, D2H, 2, 1, false)
	if join(ops) != "acq dma-D2H dec rel acq dma-D2H dec rel" {
		t.Errorf("TDXH100 pageable D2H: %q", join(ops))
	}

	ops, managed = run(t, TEEIODirect{}, H2D, 2, 1, true)
	if join(ops) != "dma-H2D dma-H2D" || managed {
		t.Errorf("TEEIODirect pinned H2D: %q managed=%v", join(ops), managed)
	}
	ops, _ = run(t, TEEIODirect{}, D2H, 2, 1, false)
	if join(ops) != "host dma-D2H host dma-D2H" {
		t.Errorf("TEEIODirect pageable D2H: %q", join(ops))
	}

	ops, managed = run(t, TEEIOBridge{}, H2D, 2, 1, false)
	if join(ops) != "host bridge-H2D host bridge-H2D" || managed {
		t.Errorf("TEEIOBridge pageable H2D: %q managed=%v", join(ops), managed)
	}
	ops, _ = run(t, TEEIOBridge{}, D2H, 1, 1, true)
	if join(ops) != "bridge-D2H" {
		t.Errorf("TEEIOBridge pinned D2H: %q", join(ops))
	}
}

// TestMigrateSequences pins the operation order of each base mode's
// single-shot page move in both directions, and checks that the pipelined
// decorator hands page moves to the wrapped mode unchanged.
func TestMigrateSequences(t *testing.T) {
	migrate := func(m Mode, dir Direction) string {
		eng := sim.NewEngine()
		pt := newOpPort(eng)
		eng.Spawn("migrate", func(p *sim.Proc) {
			p.Await(func(a *sim.Actor, step func(any), state any) {
				m.MigrateA(pt, a, dir, 4, step, state)
			})
		})
		eng.Run()
		return strings.Join(pt.ops, " ")
	}
	want := []struct {
		m        Mode
		h2d, d2h string
	}{
		{Off{}, "dma-H2D", "dma-D2H"},
		{TDXH100{}, "acq enc dma-H2D rel", "acq dma-D2H dec rel"},
		{TEEIODirect{}, "enc dma-H2D", "dma-D2H dec"},
		{TEEIOBridge{}, "bridge-H2D", "bridge-D2H"},
	}
	for _, w := range want {
		for _, m := range []Mode{w.m, Pipelined{Inner: w.m}} {
			if got := migrate(m, H2D); got != w.h2d {
				t.Errorf("%s H2D: %q, want %q", m.Name(), got, w.h2d)
			}
			if got := migrate(m, D2H); got != w.d2h {
				t.Errorf("%s D2H: %q, want %q", m.Name(), got, w.d2h)
			}
		}
	}
}

// TestPipelinedTransfer checks the decorator conserves the per-chunk
// operation multiset (every chunk still acquired, ciphered, DMAed and
// released) while interleaving the cipher and DMA stages, and that it
// delegates untouched for modes without a software crypto path.
func TestPipelinedTransfer(t *testing.T) {
	m := Pipelined{Inner: TDXH100{}}
	for _, dir := range []Direction{H2D, D2H} {
		ops, managed := run(t, m, dir, 4, 1, true)
		if !managed {
			t.Errorf("%v: pipelined TDXH100 lost the managed flag", dir)
		}
		count := map[string]int{}
		for _, op := range ops {
			count[op]++
		}
		dma := "dma-" + dir.String()
		cipher := "enc"
		if dir == D2H {
			cipher = "dec"
		}
		if count["acq"] != 4 || count["rel"] != 4 || count[cipher] != 4 || count[dma] != 4 {
			t.Errorf("%v: op multiset %v, want 4 of each of acq/rel/%s/%s", dir, count, cipher, dma)
		}
	}

	// No software crypto path -> pure delegation, no spawned companion.
	ops, _ := run(t, Pipelined{Inner: Off{}}, H2D, 2, 1, true)
	if strings.Join(ops, " ") != "dma-H2D dma-H2D" {
		t.Errorf("Pipelined(Off) did not delegate: %q", ops)
	}
}

// TestNames checks the canonical list is stable and complete.
func TestNames(t *testing.T) {
	want := []string{"off", "tdx-h100", "tee-io-direct", "tee-io-bridge"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// baseModes are the four undecorated modes, in registry order.
var baseModes = []Mode{Off{}, TDXH100{}, TEEIODirect{}, TEEIOBridge{}}

// quietPort is an opPort that records nothing and so builds no operation
// strings: the only allocations left are the chain's own.
type quietPort struct{ *opPort }

func (quietPort) DMAA(a *sim.Actor, d Direction, n int64, step func(any), state any) {
	step(state)
}
func (quietPort) BridgeDMAA(a *sim.Actor, d Direction, n int64, step func(any), state any) {
	step(state)
}

// chainRig drives TransferA/MigrateA chains on a quietPort under a daemon
// actor, one engine Run per batch of chains.
type chainRig struct {
	eng         *sim.Engine
	pt          quietPort
	a           *sim.Actor
	calls, done int
}

func newChainRig() *chainRig {
	eng := sim.NewEngine()
	r := &chainRig{eng: eng, pt: quietPort{&opPort{eng: eng, rec: func(string) {}}}}
	r.a = eng.SpawnActorDaemon("chains", func(*sim.Actor) {})
	eng.Run()
	return r
}

func chainDone(x any) { x.(*chainRig).done++ }

// TestChainsDoNotAllocate checks that, once the pool is warm, a copy or
// page-move chain of every base mode allocates nothing, whether it
// completes inline or across events.
func TestChainsDoNotAllocate(t *testing.T) {
	for _, m := range baseModes {
		r := newChainRig()
		for _, dir := range []Direction{H2D, D2H} {
			for _, pinned := range []bool{true, false} {
				xfer := func() {
					r.calls++
					m.TransferA(r.pt, r.a, dir, 4, 1, pinned, chainDone, r)
					r.eng.Run()
				}
				xfer() // warm the pool and the event arena
				if n := testing.AllocsPerRun(50, xfer); n != 0 {
					t.Errorf("%s %v pinned=%v: TransferA allocates %.1f times per op, want 0", m.Name(), dir, pinned, n)
				}
			}
			migrate := func() {
				r.calls++
				m.MigrateA(r.pt, r.a, dir, 4, chainDone, r)
				r.eng.Run()
			}
			migrate()
			if n := testing.AllocsPerRun(50, migrate); n != 0 {
				t.Errorf("%s %v: MigrateA allocates %.1f times per op, want 0", m.Name(), dir, n)
			}
		}
		if r.done != r.calls {
			t.Errorf("%s: %d of %d chains completed", m.Name(), r.done, r.calls)
		}
	}
}

// TestChainFramesBoundedByPeakInFlight checks the pool never holds more
// frames than were ever in flight at once: three overlapping transfers
// leave three, and any number of sequential ones after them add none.
func TestChainFramesBoundedByPeakInFlight(t *testing.T) {
	for _, m := range baseModes {
		r := newChainRig()
		m.TransferA(r.pt, r.a, H2D, 4, 1, false, chainDone, r)
		r.eng.Run()
		if n := r.pt.frames.pool.Len(); n != 1 {
			t.Fatalf("%s: pool holds %d frames after one transfer, want 1", m.Name(), n)
		}
		for i := 0; i < 3; i++ {
			m.TransferA(r.pt, r.a, H2D, 4, 1, false, chainDone, r)
		}
		r.eng.Run()
		peak := r.pt.frames.pool.Len()
		if peak < 1 || peak > 3 {
			t.Fatalf("%s: pool holds %d frames after 3 overlapping transfers, want 1..3", m.Name(), peak)
		}
		for i := 0; i < 20; i++ {
			m.TransferA(r.pt, r.a, D2H, 4, 1, true, chainDone, r)
			r.eng.Run()
			m.MigrateA(r.pt, r.a, H2D, 4, chainDone, r)
			r.eng.Run()
		}
		if n := r.pt.frames.pool.Len(); n != peak {
			t.Errorf("%s: pool grew from %d to %d frames over sequential transfers", m.Name(), peak, n)
		}
	}
}

// FuzzByName checks the resolver against its own output: any input that
// resolves names a mode whose canonical Name resolves to the same mode, and
// every canonical name, plain and with the pipelined suffix, round-trips.
func FuzzByName(f *testing.F) {
	for _, n := range Names() {
		f.Add(n)
		f.Add(n + pipelinedSuffix)
	}
	for _, a := range aliases {
		f.Add(" " + strings.ToUpper(a.alias) + pipelinedSuffix)
	}
	f.Add("cc")
	f.Add("+pipelined")
	f.Fuzz(func(t *testing.T, name string) {
		if m, err := ByName(name); err == nil {
			again, err := ByName(m.Name())
			if err != nil || again != m {
				t.Fatalf("ByName(%q) = %s, but ByName(%q) = %v, %v", name, m.Name(), m.Name(), again, err)
			}
		}
		for _, n := range Names() {
			for _, full := range []string{n, n + pipelinedSuffix} {
				if m, err := ByName(full); err != nil || m.Name() != full {
					t.Fatalf("canonical %q does not round-trip: %v, %v", full, m, err)
				}
			}
		}
	})
}
