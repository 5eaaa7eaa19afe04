// Package ccmode makes the protection model a first-class, pluggable layer.
//
// The paper measures exactly one platform — Intel TDX with an H100 behind a
// bounce buffer and single-threaded software AES-GCM — as a single on/off
// switch. Related work shows protection modes are a family, not a flag:
// Blackwell GPU-CC ("The Serialized Bridge") preserves GPU-local performance
// while the CPU–GPU bridge serializes, and PipeLLM recovers most of the
// transfer cost by overlapping AES-GCM with DMA. A Mode captures everything
// that differs between members of that family:
//
//   - launch-path costs (deferred driver work, command-packet handling)
//   - MMIO/hypercall policy (does a BAR access trap out of the guest?)
//   - the copy-path transform (bounce buffer + software crypto, direct DMA,
//     or a serialized encrypted bridge), including pipelined encryption
//   - allocation/free policy (SEPT accept/scrub, whether pinning works)
//   - the UVM page-fault transform (batch sizes, per-fault hypercalls)
//
// Modes are pure policy: they carry no latency constants of their own and
// act on the simulation only through a Port, the narrow view of the
// CPU-substrate + link primitives the copy and fault paths need. The
// concrete Port lives in internal/tdx, which keeps this package a leaf
// (ccmode imports only the leaf packages internal/sim and internal/obs) so
// every other layer can depend on it.
package ccmode

import (
	"fmt"
	"strings"
	"time"

	"hccsim/internal/obs"
	"hccsim/internal/sim"
)

// Direction of a transfer relative to the host. Mirrors pcie.Direction
// without importing it, so ccmode stays a leaf package.
type Direction int

// Transfer directions.
const (
	H2D Direction = iota // host to device
	D2H                  // device to host
)

func (d Direction) String() string {
	if d == H2D {
		return "H2D"
	}
	return "D2H"
}

// Port is the narrow view of the platform and link that mode copy/fault
// transforms act through: software crypto, the SWIOTLB bounce pool, host
// staging copies, and DMA — direct per-direction or through the serialized
// encrypted bridge. internal/tdx provides the concrete implementation.
type Port interface {
	// Engine returns the simulation engine (pipelined modes spawn helper
	// processes on it).
	Engine() *sim.Engine
	// Encrypt charges protecting n outbound bytes (software AES-GCM on the
	// bounce path, per-TLP IDE latency on TEE-IO paths, no-op when off).
	Encrypt(p *sim.Proc, n int64)
	// Decrypt charges unprotecting n inbound bytes.
	Decrypt(p *sim.Proc, n int64)
	// BounceAcquire reserves n bytes of SWIOTLB bounce space (blocking).
	BounceAcquire(p *sim.Proc, n int64)
	// BounceRelease returns n bytes to the bounce pool.
	BounceRelease(n int64)
	// HostMemcpy charges a CPU staging copy of n bytes.
	HostMemcpy(p *sim.Proc, n int64)
	// DMA moves n bytes over the full-duplex link in direction d.
	DMA(p *sim.Proc, d Direction, n int64)
	// BridgeDMA moves n bytes through the serialized encrypted CPU–GPU
	// bridge: one resource spanning both directions, derated bandwidth,
	// hardware IDE latency per transaction.
	BridgeDMA(p *sim.Proc, d Direction, n int64)
	// Observer returns the attached observability layer, or nil when
	// tracing is off; modes open copy-path spans through it, paying one
	// nil check when disabled.
	Observer() *obs.Observer

	// The A-forms are the continuation-passing counterparts used by actor
	// chains (run-to-completion tasks and Proc Await bridges): same costs
	// and blocking semantics, with step(state) run when the operation
	// completes — inline when it completes synchronously.
	EncryptA(a *sim.Actor, n int64, step func(any), state any)
	DecryptA(a *sim.Actor, n int64, step func(any), state any)
	BounceAcquireA(a *sim.Actor, n int64, step func(any), state any)
	HostMemcpyA(a *sim.Actor, n int64, step func(any), state any)
	DMAA(a *sim.Actor, d Direction, n int64, step func(any), state any)
	BridgeDMAA(a *sim.Actor, d Direction, n int64, step func(any), state any)
}

// Mode is one protection model. Predicates steer the scattered cost sites
// (launch, alloc/free, MMIO); Transfer and Migrate own the copy-path and
// page-fault transforms outright.
type Mode interface {
	// Name is the canonical registry name ("off", "tdx-h100", ...).
	Name() string
	// CC reports whether the guest is a trust domain at all — selects
	// attestation, trace labeling, and the CC-side cost calibration.
	CC() bool
	// MMIOTraps reports whether a BAR access raises #VE and exits via
	// tdx_hypercall instead of completing as a direct mapped access.
	MMIOTraps() bool
	// SoftwareCryptoPath reports whether transfers stage through the
	// bounce buffer + software AES-GCM path (stock TDX + H100).
	SoftwareCryptoPath() bool
	// CmdAuth reports whether the GPU command processor must decrypt and
	// authenticate each command packet before dispatch.
	CmdAuth() bool
	// PrivateAllocs reports whether allocations manage TD-private pages
	// (SEPT accept on alloc, scrub on free, CC per-MB driver costs).
	PrivateAllocs() bool
	// HostPinWorks reports whether pinned host memory stays pinned; when
	// false cudaMallocHost is demoted to shared UVM-style registration
	// (the paper's Observation 1).
	HostPinWorks() bool
	// LaunchPost selects the deferred post-launch driver cost.
	LaunchPost(base, cc time.Duration) time.Duration
	// FaultBatch selects the UVM fault-migration batch size.
	FaultBatch(base, cc int) int
	// FaultHypercalls returns the extra TD exits per fault batch, given
	// the configured CC value.
	FaultHypercalls(configured int) int
	// Transfer runs one explicit host<->device copy of bytes in chunk-sized
	// DMA transactions, charging the calling process. The returned flag
	// reports whether the transfer must be labeled managed in traces
	// (CC demotes "pinned" copies to encrypted paging — Observation 1).
	Transfer(port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) (managed bool)
	// Migrate runs one UVM page-move batch (fault service and hypercalls
	// are charged by the caller; Migrate owns staging, crypto, and DMA).
	Migrate(port Port, p *sim.Proc, dir Direction, bytes int64)
	// TransferA is the continuation form of Transfer: the chain runs under
	// a and ends in step(state); the managed flag is policy, not timing, so
	// it is returned synchronously before the chain completes.
	TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) (managed bool)
	// MigrateA is the continuation form of Migrate.
	MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any)
}

// chunks calls fn once per DMA transaction of at most chunk bytes.
func chunks(bytes, chunk int64, fn func(n int64)) {
	for off := int64(0); off < bytes; off += chunk {
		n := chunk
		if bytes-off < n {
			n = bytes - off
		}
		fn(n)
	}
}

// chunkFrame drives one continuation-passing copy or page-move chain. One
// frame is allocated per Transfer/Migrate call — copies are orders of
// magnitude rarer than engine events, so these are not pooled. The `one`
// hook runs a single chunk of f.n bytes and must end in chunkNext; a
// single-shot chain (Migrate) starts with off == bytes so chunkNext
// completes after the one chunk already in flight.
type chunkFrame struct {
	port   Port
	a      *sim.Actor
	dir    Direction
	off    int64 // offset after the chunk in flight
	bytes  int64
	chunk  int64
	n      int64 // size of the chunk in flight
	pinned bool
	sp     obs.Span // whole-chain span; the zero Span when tracing is off
	one    func(f *chunkFrame)
	step   func(any)
	state  any
}

// chunkNext starts the next chunk, or completes the chain.
func chunkNext(x any) {
	f := x.(*chunkFrame)
	if f.off >= f.bytes {
		f.sp.End()
		f.step(f.state)
		return
	}
	n := f.bytes - f.off
	if n > f.chunk {
		n = f.chunk
	}
	f.n = n
	f.off += n
	f.one(f)
}

// transferAwait adapts a mode's TransferA chain to the blocking Transfer
// contract: the chain runs under the process's Await bridge, costing at
// most one context switch regardless of chunk count.
func transferAwait(m Mode, port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) bool {
	var managed bool
	p.Await(func(a *sim.Actor, step func(any), state any) {
		managed = m.TransferA(port, a, dir, bytes, chunk, pinned, step, state)
	})
	return managed
}

// migrateAwait adapts a mode's MigrateA chain to the blocking Migrate contract.
func migrateAwait(m Mode, port Port, p *sim.Proc, dir Direction, bytes int64) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		m.MigrateA(port, a, dir, bytes, step, state)
	})
}

// beginTransfer opens the whole-transfer span on the shared "ccmode"
// track; the zero Span comes back (one nil check) when tracing is off.
func beginTransfer(port Port, mode string, dir Direction, bytes int64) obs.Span {
	o := port.Observer()
	if o == nil {
		return obs.Span{}
	}
	name := "transfer-h2d"
	if dir == D2H {
		name = "transfer-d2h"
	}
	return o.Track("ccmode").Begin(name).Mode(mode).Bytes(bytes)
}

// beginMigrate opens the whole-page-move span on the "ccmode" track.
func beginMigrate(port Port, mode string, dir Direction, bytes int64) obs.Span {
	o := port.Observer()
	if o == nil {
		return obs.Span{}
	}
	name := "migrate-h2d"
	if dir == D2H {
		name = "migrate-d2h"
	}
	return o.Track("ccmode").Begin(name).Mode(mode).Bytes(bytes)
}

// directChunk is the unencrypted-by-software copy path shared by Off and
// TEEIODirect: pageable buffers pay a staging memcpy, then chunked DMA at
// link rate.
func directChunk(f *chunkFrame) {
	if f.pinned {
		directStaged(f)
		return
	}
	f.port.HostMemcpyA(f.a, f.n, directStaged, f)
}

func directStaged(x any) {
	f := x.(*chunkFrame)
	f.port.DMAA(f.a, f.dir, f.n, chunkNext, f)
}

// registry lists the canonical modes in a fixed order (no map, so listing
// stays deterministic).
var registry = []Mode{Off{}, TDXH100{}, TEEIODirect{}, TEEIOBridge{}}

// aliases maps accepted spellings to canonical names.
var aliases = []struct{ alias, canonical string }{
	{"off", "off"},
	{"legacy-vm", "off"},
	{"tdx", "tdx-h100"},
	{"tdx-h100", "tdx-h100"},
	{"tee-io-direct", "tee-io-direct"},
	{"teeio-direct", "tee-io-direct"},
	{"tdx-connect", "tee-io-direct"},
	{"tee-io-bridge", "tee-io-bridge"},
	{"teeio-bridge", "tee-io-bridge"},
	{"tee-io", "tee-io-bridge"},
	{"bridge", "tee-io-bridge"},
}

// pipelinedSuffix opts any base mode into the PipeLLM-style decorator.
const pipelinedSuffix = "+pipelined"

// ByName resolves a mode name or alias, with an optional "+pipelined"
// suffix wrapping the result in the pipelined-encryption decorator
// (e.g. "tdx+pipelined").
func ByName(name string) (Mode, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	pipelined := strings.HasSuffix(s, pipelinedSuffix)
	if pipelined {
		s = strings.TrimSuffix(s, pipelinedSuffix)
	}
	for _, a := range aliases {
		if a.alias != s {
			continue
		}
		for _, m := range registry {
			if m.Name() == a.canonical {
				if pipelined {
					return Pipelined{Inner: m}, nil
				}
				return m, nil
			}
		}
	}
	return nil, fmt.Errorf("ccmode: unknown mode %q (want one of %s, optionally with %q)",
		name, strings.Join(Names(), ", "), pipelinedSuffix)
}

// Names lists the canonical mode names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, m := range registry {
		out[i] = m.Name()
	}
	return out
}
