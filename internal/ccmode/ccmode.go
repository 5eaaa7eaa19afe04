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
// concrete Port lives in internal/tdx, which keeps this package near the
// bottom of the import graph (ccmode imports only internal/sim,
// internal/obs and internal/pcie, none of which imports anything above
// them) so every other layer can depend on it.
package ccmode

import (
	"fmt"
	"strings"
	"time"

	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
)

// Direction of a transfer relative to the host: the link's own type, so
// modes and the link never translate between two spellings.
type Direction = pcie.Direction

// Transfer directions.
const (
	H2D = pcie.H2D // host to device
	D2H = pcie.D2H // device to host
)

// Port is the narrow view of the platform and link that mode copy/fault
// transforms act through: software crypto, the SWIOTLB bounce pool, host
// staging copies, and DMA — direct per-direction or through the serialized
// encrypted bridge. internal/tdx provides the concrete implementation.
//
// Each operation is continuation-passing: it runs under actor a with the
// operation's cost and blocking semantics, then runs step(state) when it
// completes — inline when it completes synchronously. Blocking callers
// reach a chain through a Proc's Await bridge (Mode.Transfer).
type Port interface {
	// Engine returns the simulation engine (pipelined modes spawn helper
	// processes on it).
	Engine() *sim.Engine
	// Observer returns the run's recorder, or nil when nothing records;
	// modes open copy-path spans through it, which a nil or Nsight-only
	// recorder leaves inert.
	Observer() *obs.Observer
	// Frames returns the pool the modes' copy and page-move chains draw
	// their frames from; one per engine, shared by every port on it.
	Frames() *Frames

	// EncryptA charges protecting n outbound bytes (software AES-GCM on
	// the bounce path, per-TLP IDE latency on TEE-IO paths, no-op when
	// off).
	EncryptA(a *sim.Actor, n int64, step func(any), state any)
	// DecryptA charges unprotecting n inbound bytes.
	DecryptA(a *sim.Actor, n int64, step func(any), state any)
	// BounceAcquireA reserves n bytes of SWIOTLB bounce space, waiting
	// while the pool is exhausted.
	BounceAcquireA(a *sim.Actor, n int64, step func(any), state any)
	// BounceRelease returns n bytes to the bounce pool.
	BounceRelease(n int64)
	// HostMemcpyA charges a CPU staging copy of n bytes.
	HostMemcpyA(a *sim.Actor, n int64, step func(any), state any)
	// DMAA moves n bytes over the full-duplex link in direction d.
	DMAA(a *sim.Actor, d Direction, n int64, step func(any), state any)
	// BridgeDMAA moves n bytes through the serialized encrypted CPU–GPU
	// bridge: one resource spanning both directions, derated bandwidth,
	// hardware IDE latency per transaction.
	BridgeDMAA(a *sim.Actor, d Direction, n int64, step func(any), state any)
}

// Mode is one protection model. Predicates steer the scattered cost sites
// (launch, alloc/free, MMIO); TransferA and MigrateA own the copy-path and
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
	// TransferA is the continuation form of Transfer: the chain runs under
	// a and ends in step(state); the managed flag is policy, not timing, so
	// it is returned synchronously before the chain completes.
	TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) (managed bool)
	// MigrateA runs one UVM page-move batch under a, ending in
	// step(state) (fault service and hypercalls are charged by the caller;
	// MigrateA owns staging, crypto, and DMA).
	MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any)
}

// Frames recycles the frames of copy and page-move chains, so a steady
// stream of transfers allocates nothing. Like every sim.FramePool it is
// owned per engine (by the tdx platform), never by a global, since engines
// run concurrently in sweep worker pools. The zero value is ready to use.
type Frames struct{ pool sim.FramePool[chunkFrame] }

// chunkFrame drives one continuation-passing copy or page-move chain. Each
// TransferA/MigrateA call takes one from the port's Frames and chunkNext
// returns it when the chain completes. The `one` hook runs a single chunk
// of f.n bytes and must end in chunkNext; a single-shot chain (MigrateA)
// starts with off == bytes so chunkNext completes after the one chunk
// already in flight.
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

// chunkNext starts the next chunk, or completes the chain, recycling the
// frame before the completion step runs.
func chunkNext(x any) {
	f := x.(*chunkFrame)
	if f.off >= f.bytes {
		sp, step, state := f.sp, f.step, f.state
		f.port.Frames().pool.Put(f)
		sp.End()
		step(state)
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

// Whole-chain span names, indexed by Direction.
var (
	transferSpan = [2]string{H2D: "transfer-h2d", D2H: "transfer-d2h"}
	migrateSpan  = [2]string{H2D: "migrate-h2d", D2H: "migrate-d2h"}
)

// beginChain opens a whole-transfer or whole-page-move span on the shared
// "ccmode" track; the zero Span comes back when no observer is attached.
func beginChain(port Port, names [2]string, mode string, dir Direction, bytes int64) obs.Span {
	return port.Observer().Track("ccmode").Begin(names[dir]).Mode(mode).Bytes(bytes)
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
