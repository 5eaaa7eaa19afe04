// Package workloads defines the benchmark applications of the paper's
// evaluation — analogues of Rodinia, Polybench, UVMBench, GraphBIG and Tigr
// programs — as scripts against the simulated CUDA API.
//
// Each application is described declaratively (buffers, kernel phases,
// launch counts, rooflines) and replayed by a generic runner in either the
// classic copy-then-execute form or the UVM form (managed buffers, kernels
// faulting pages in on demand). Launch counts follow the paper where it
// states them: dwt2d performs 10 launches, 3dconv 254, streamcluster 1611,
// 2mm just 2, and so on.
package workloads

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
)

// Mode selects the memory-management style of a run.
type Mode int

// Run modes.
const (
	CopyExecute Mode = iota // explicit cudaMemcpy (non-UVM)
	UVM                     // cudaMallocManaged and on-demand paging
)

func (m Mode) String() string {
	if m == UVM {
		return "uvm"
	}
	return "non-uvm"
}

// phase is one kernel launched count times in a loop.
type phase struct {
	name   string
	count  int
	flops  float64 // per launch
	mem    int64   // HBM bytes per launch
	blocks int
	tpb    int
	// touch is the managed footprint (bytes per buffer) the kernel accesses
	// in UVM mode; 0 means the full buffer on the first phase only.
	touch  int64
	random bool // irregular access pattern (graph workloads)
	// advance slides the touched window forward by `touch` each launch
	// (iterative kernels sweeping their data, e.g. 3dconv z-slabs); without
	// it every launch re-touches the same already-resident window.
	advance bool
}

// Spec declares one application.
type Spec struct {
	Name  string
	Suite string
	// Buffers are device-buffer sizes; each is H2D-copied on startup in
	// copy-then-execute mode, or allocated managed in UVM mode.
	Buffers []int64
	// Pinned marks the host staging buffers as page-locked (cudaMallocHost):
	// faster copies in non-CC, demoted to encrypted paging under CC.
	Pinned bool
	// D2DBytes is internal device-to-device traffic (some suites shuffle
	// buffers on-device; unaffected by CC).
	D2DBytes int64
	// Out is the result size copied D2H at the end.
	Out int64
	// Phases run in order.
	Phases []phase
	// HostRounds >0 makes UVM mode ping-pong: after each round of phases the
	// host touches the first buffer (verification loops in UVMBench), which
	// forces encrypted write-backs under CC.
	HostRounds int
	// UVMCapable marks apps the paper evaluates in UVM form.
	UVMCapable bool
}

// Launches returns the total kernel-launch count of one run.
func (s Spec) Launches() int {
	n := 0
	for _, p := range s.Phases {
		n += p.count
	}
	rounds := s.HostRounds
	if rounds < 1 {
		rounds = 1
	}
	return n * rounds
}

// Run replays the application on the given context.
func (s Spec) Run(c *cuda.Context, mode Mode) {
	if mode == UVM {
		s.runUVM(c)
		return
	}
	s.runCopyExecute(c)
}

func (s Spec) runCopyExecute(c *cuda.Context) {
	var hostBufs, devBufs []*cuda.Buffer
	for i, size := range s.Buffers {
		var h *cuda.Buffer
		label := fmt.Sprintf("%s.buf%d", s.Name, i)
		if s.Pinned {
			h = c.MallocHost(label+".h", size)
		} else {
			h = c.HostBuffer(label+".h", size)
		}
		d := c.Malloc(label, size)
		c.Memcpy(d, h, size)
		hostBufs = append(hostBufs, h)
		devBufs = append(devBufs, d)
	}
	if s.D2DBytes > 0 && len(devBufs) >= 2 {
		n := min(devBufs[0].Size(), devBufs[1].Size())
		for moved := int64(0); moved < s.D2DBytes; moved += n {
			c.Memcpy(devBufs[1], devBufs[0], min(n, s.D2DBytes-moved))
		}
	}
	rounds := s.HostRounds
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		for _, ph := range s.Phases {
			spec := gpu.KernelSpec{
				Name: s.Name + "." + ph.name, Blocks: ph.blocks, ThreadsPerBlock: ph.tpb,
				FLOPs: ph.flops, MemBytes: ph.mem,
			}
			for i := 0; i < ph.count; i++ {
				c.Launch(spec, nil)
			}
		}
		c.Sync()
		if s.HostRounds > 0 && len(devBufs) > 0 {
			// Host-side verification between rounds reads results back.
			c.Memcpy(hostBufs[0], devBufs[0], devBufs[0].Size())
		}
	}
	if s.Out > 0 && len(devBufs) > 0 {
		n := min(s.Out, devBufs[len(devBufs)-1].Size())
		c.Memcpy(hostBufs[len(hostBufs)-1], devBufs[len(devBufs)-1], n)
	}
	for _, d := range devBufs {
		c.Free(d)
	}
	for _, h := range hostBufs {
		c.FreeHost(h)
	}
}

func (s Spec) runUVM(c *cuda.Context) {
	var bufs []*cuda.Buffer
	for i, size := range s.Buffers {
		bufs = append(bufs, c.MallocManaged(fmt.Sprintf("%s.m%d", s.Name, i), size))
	}
	rounds := s.HostRounds
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		for pi, ph := range s.Phases {
			for i := 0; i < ph.count; i++ {
				var acc []gpu.ManagedAccess
				for _, b := range bufs {
					touch := ph.touch
					if touch == 0 {
						// Default: the first phase of a round streams the
						// full buffers in; later phases reuse resident pages.
						if pi == 0 {
							touch = b.Size()
						} else {
							touch = b.Size() / 8
						}
					}
					var off int64
					if ph.advance {
						off = int64(i) * touch
					}
					acc = append(acc, gpu.ManagedAccess{
						Range: b.Managed(), Offset: off, Bytes: touch, Random: ph.random,
					})
				}
				spec := gpu.KernelSpec{
					Name: s.Name + "." + ph.name, Blocks: ph.blocks, ThreadsPerBlock: ph.tpb,
					FLOPs: ph.flops, MemBytes: ph.mem, Managed: acc,
				}
				c.Launch(spec, nil)
			}
		}
		c.Sync()
		if s.HostRounds > 0 && len(bufs) > 0 {
			c.HostTouch(bufs[0], bufs[0].Size())
		}
	}
	if s.Out > 0 && len(bufs) > 0 {
		c.HostTouch(bufs[len(bufs)-1], min(s.Out, bufs[len(bufs)-1].Size()))
	}
	for _, b := range bufs {
		c.Free(b)
	}
}

// table is the spec table ByName, Names and UVMSuite read, built on first
// use. Nothing outside this file reaches it: the lookups hand out clones.
var table = sync.OnceValue(All)

// clone returns s with its own Buffers and Phases; a phase holds only
// scalars, so the two slices are all a spec shares.
func (s Spec) clone() Spec {
	s.Buffers = slices.Clone(s.Buffers)
	s.Phases = slices.Clone(s.Phases)
	return s
}

// ByName returns the named spec. The spec is the caller's own copy:
// changing it changes no later lookup.
func ByName(name string) (Spec, error) {
	for _, s := range table() {
		if s.Name == name {
			return s.clone(), nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown application %q", name)
}

// Names returns all application names, sorted.
func Names() []string {
	var out []string
	for _, s := range table() {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// UVMSuite returns the specs the paper evaluates in UVM form, each the
// caller's own copy.
func UVMSuite() []Spec {
	var out []Spec
	for _, s := range table() {
		if s.UVMCapable {
			out = append(out, s.clone())
		}
	}
	return out
}

// Validate checks a spec for structural mistakes: empty fields, zero-work
// phases, out-of-range touches. The registry test validates every entry, so
// a bad addition fails fast.
func (s Spec) Validate() error {
	if s.Name == "" || s.Suite == "" {
		return fmt.Errorf("workloads: spec missing name or suite: %+v", s)
	}
	if len(s.Buffers) == 0 {
		return fmt.Errorf("workloads: %s has no buffers", s.Name)
	}
	for i, b := range s.Buffers {
		if b <= 0 {
			return fmt.Errorf("workloads: %s buffer %d has size %d", s.Name, i, b)
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workloads: %s has no kernel phases", s.Name)
	}
	maxBuf := int64(0)
	for _, b := range s.Buffers {
		if b > maxBuf {
			maxBuf = b
		}
	}
	for _, ph := range s.Phases {
		if ph.name == "" {
			return fmt.Errorf("workloads: %s has an unnamed phase", s.Name)
		}
		if ph.count <= 0 {
			return fmt.Errorf("workloads: %s phase %s has count %d", s.Name, ph.name, ph.count)
		}
		if ph.flops <= 0 && ph.mem <= 0 {
			return fmt.Errorf("workloads: %s phase %s does no work", s.Name, ph.name)
		}
		if ph.blocks <= 0 || ph.tpb <= 0 {
			return fmt.Errorf("workloads: %s phase %s has no launch dims", s.Name, ph.name)
		}
		if ph.touch < 0 || ph.touch > maxBuf {
			return fmt.Errorf("workloads: %s phase %s touch %d exceeds buffers", s.Name, ph.name, ph.touch)
		}
		if ph.advance && ph.touch == 0 {
			return fmt.Errorf("workloads: %s phase %s advances with zero touch", s.Name, ph.name)
		}
	}
	if s.Out < 0 || s.D2DBytes < 0 || s.HostRounds < 0 {
		return fmt.Errorf("workloads: %s has negative sizes", s.Name)
	}
	return nil
}
