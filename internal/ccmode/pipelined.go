package ccmode

import (
	"time"

	"hccsim/internal/obs"
	"hccsim/internal/sim"
)

// Pipelined is the PipeLLM-style pipelined-encryption decorator: it keeps
// the wrapped mode's policy but overlaps the software AES-GCM stage with
// DMA on explicit copies. Stock NVIDIA CC serializes encrypt -> DMA per
// chunk on the calling thread (Observation 2); PipeLLM shows a modified
// runtime can run the cipher on one chunk while the previous chunk is in
// flight, hiding most of min(crypto, DMA) per chunk. The decorator spawns a
// companion DMA process per transfer and hands chunks across a queue; the
// SWIOTLB bounce pool bounds how far encryption may run ahead, exactly as a
// real double-buffered implementation is bounded by its staging buffers.
//
// Wrapping a mode without a software-crypto path (Off, TEE-IO) changes
// nothing: there is no cipher stage to overlap, so Transfer delegates.
// Fault-path migrations are single-batch and also delegate unchanged.
type Pipelined struct {
	Inner Mode
}

// Name implements Mode, tagging the wrapped mode's name.
func (m Pipelined) Name() string { return m.Inner.Name() + pipelinedSuffix }

// CC implements Mode.
func (m Pipelined) CC() bool { return m.Inner.CC() }

// MMIOTraps implements Mode.
func (m Pipelined) MMIOTraps() bool { return m.Inner.MMIOTraps() }

// SoftwareCryptoPath implements Mode.
func (m Pipelined) SoftwareCryptoPath() bool { return m.Inner.SoftwareCryptoPath() }

// CmdAuth implements Mode.
func (m Pipelined) CmdAuth() bool { return m.Inner.CmdAuth() }

// PrivateAllocs implements Mode.
func (m Pipelined) PrivateAllocs() bool { return m.Inner.PrivateAllocs() }

// HostPinWorks implements Mode.
func (m Pipelined) HostPinWorks() bool { return m.Inner.HostPinWorks() }

// LaunchPost implements Mode.
func (m Pipelined) LaunchPost(base, cc time.Duration) time.Duration {
	return m.Inner.LaunchPost(base, cc)
}

// FaultBatch implements Mode.
func (m Pipelined) FaultBatch(base, cc int) int { return m.Inner.FaultBatch(base, cc) }

// FaultHypercalls implements Mode.
func (m Pipelined) FaultHypercalls(configured int) int { return m.Inner.FaultHypercalls(configured) }

// MigrateA implements Mode: single-batch page moves have nothing to
// overlap.
func (m Pipelined) MigrateA(port Port, a *sim.Actor, dir Direction, bytes int64, step func(any), state any) {
	m.Inner.MigrateA(port, a, dir, bytes, step, state)
}

// Transfer implements Mode. On the software-crypto path the cipher stage
// and the DMA stage run as separate simulated tasks connected by a chunk
// queue:
//
//	H2D: caller acquires bounce space and encrypts chunk i while the
//	     companion DMAs chunk i-1 and releases its bounce space.
//	D2H: companion acquires bounce space and DMAs chunk i+1 while the
//	     caller decrypts chunk i and releases.
//
// The caller is charged until the last chunk has fully landed, so the
// transfer remains blocking like the stock copy path.
func (m Pipelined) Transfer(port Port, p *sim.Proc, dir Direction, bytes, chunk int64, pinned bool) bool {
	return transferAwait(m, port, p, dir, bytes, chunk, pinned)
}

// pipeFrame carries one side (caller or companion) of a pipelined transfer.
type pipeFrame struct {
	port    Port
	a       *sim.Actor
	dir     Direction
	off     int64
	bytes   int64
	chunk   int64
	n       int64
	i       int
	nChunks int
	q       *sim.Queue[int64]
	done    *sim.Signal
	sp      obs.Span // this stage's span; the zero Span when tracing is off
	step    func(any)
	state   any
}

// pipeSpan opens one pipeline-stage span on the companion DMA track.
func pipeSpan(port Port, name string, bytes int64) obs.Span {
	return port.Observer().Track("ccmode-pipelined-dma").Begin(name).Bytes(bytes)
}

// TransferA implements Mode: the CPS form of the two-stage pipeline. The
// companion DMA stage is a spawned actor; the caller stage runs on a.
func (m Pipelined) TransferA(port Port, a *sim.Actor, dir Direction, bytes, chunk int64, pinned bool, step func(any), state any) bool {
	if !m.Inner.SoftwareCryptoPath() {
		return m.Inner.TransferA(port, a, dir, bytes, chunk, pinned, step, state)
	}
	nChunks := int((bytes + chunk - 1) / chunk)
	eng := port.Engine()
	q := sim.NewQueue[int64](eng).SetLabel("ccmode-pipelined")

	if dir == H2D {
		done := sim.NewSignal(eng).SetLabel("ccmode-pipelined-done")
		cf := &pipeFrame{port: port, dir: dir, nChunks: nChunks, q: q, done: done,
			sp: pipeSpan(port, "drain-h2d", bytes)}
		eng.SpawnActor("ccmode-pipelined-dma", func(ca *sim.Actor) {
			cf.a = ca
			pipeDrainNext(cf)
		})
		f := &pipeFrame{port: port, a: a, dir: dir, bytes: bytes, chunk: chunk,
			q: q, done: done, sp: beginChain(port, transferSpan, m.Name(), dir, bytes),
			step: step, state: state}
		pipeFillNext(f)
		return pinned
	}

	cf := &pipeFrame{port: port, dir: dir, bytes: bytes, chunk: chunk, q: q,
		sp: pipeSpan(port, "produce-d2h", bytes)}
	eng.SpawnActor("ccmode-pipelined-dma", func(ca *sim.Actor) {
		cf.a = ca
		pipeProduceNext(cf)
	})
	f := &pipeFrame{port: port, a: a, dir: dir, nChunks: nChunks, q: q,
		sp:   beginChain(port, transferSpan, m.Name(), dir, bytes),
		step: step, state: state}
	pipeConsumeNext(f)
	return pinned
}

// H2D caller stage: bounce-acquire and encrypt each chunk, hand it to the
// companion, then wait for the last chunk to land.
func pipeFillNext(x any) {
	f := x.(*pipeFrame)
	if f.off >= f.bytes {
		f.done.WaitA(f.a, pipeFillDone, f)
		return
	}
	n := f.bytes - f.off
	if n > f.chunk {
		n = f.chunk
	}
	f.n = n
	f.off += n
	f.port.BounceAcquireA(f.a, n, pipeFillBounced, f)
}

// pipeFillDone closes the caller-side transfer span once the companion's
// last chunk has landed, then resumes the wrapped continuation.
func pipeFillDone(x any) {
	f := x.(*pipeFrame)
	f.sp.End()
	f.step(f.state)
}

func pipeFillBounced(x any) {
	f := x.(*pipeFrame)
	f.port.EncryptA(f.a, f.n, pipeFillEncrypted, f)
}

func pipeFillEncrypted(x any) {
	f := x.(*pipeFrame)
	f.q.Put(f.n)
	pipeFillNext(f)
}

// H2D companion stage: DMA each handed-over chunk and release its bounce
// space; fire done after the last one.
func pipeDrainNext(x any) {
	f := x.(*pipeFrame)
	if f.i == f.nChunks {
		f.sp.End()
		f.done.Fire()
		f.a.Done()
		return
	}
	f.i++
	f.q.GetA(f.a, pipeDrainGot, f)
}

func pipeDrainGot(x any, n int64) {
	f := x.(*pipeFrame)
	f.n = n
	f.port.DMAA(f.a, f.dir, n, pipeDrainLanded, f)
}

func pipeDrainLanded(x any) {
	f := x.(*pipeFrame)
	f.port.BounceRelease(f.n)
	pipeDrainNext(f)
}

// D2H companion stage: bounce-acquire and DMA each chunk, then hand it to
// the caller.
func pipeProduceNext(x any) {
	f := x.(*pipeFrame)
	if f.off >= f.bytes {
		f.sp.End()
		f.a.Done()
		return
	}
	n := f.bytes - f.off
	if n > f.chunk {
		n = f.chunk
	}
	f.n = n
	f.off += n
	f.port.BounceAcquireA(f.a, n, pipeProduceBounced, f)
}

func pipeProduceBounced(x any) {
	f := x.(*pipeFrame)
	f.port.DMAA(f.a, f.dir, f.n, pipeProduceLanded, f)
}

func pipeProduceLanded(x any) {
	f := x.(*pipeFrame)
	f.q.Put(f.n)
	pipeProduceNext(f)
}

// D2H caller stage: decrypt each landed chunk and release its bounce space.
func pipeConsumeNext(x any) {
	f := x.(*pipeFrame)
	if f.i == f.nChunks {
		f.sp.End()
		f.step(f.state)
		return
	}
	f.i++
	f.q.GetA(f.a, pipeConsumeGot, f)
}

func pipeConsumeGot(x any, n int64) {
	f := x.(*pipeFrame)
	f.n = n
	f.port.DecryptA(f.a, n, pipeConsumeDecrypted, f)
}

func pipeConsumeDecrypted(x any) {
	f := x.(*pipeFrame)
	f.port.BounceRelease(f.n)
	pipeConsumeNext(f)
}
