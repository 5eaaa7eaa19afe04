// Package pcie models the PCIe Gen5 x16 link between the host and the GPU:
// full-duplex DMA bandwidth with per-transaction latency, and the one-time
// SPDM session establishment CC uses to attest the device (PCIe 5.0 has no
// native IDE, so NVIDIA layers SPDM + AES-GCM on top).
package pcie

import (
	"time"

	"hccsim/internal/obs"
	"hccsim/internal/sim"
	"hccsim/internal/units"
)

// Direction of a transfer relative to the host.
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

// Params holds the calibrated link constants.
type Params struct {
	// EffectiveGBps is the achievable DMA rate per direction after
	// encoding/TLP/flow-control overheads (PCIe 5.0 x16 raw is 64 GB/s).
	EffectiveGBps float64
	// TransactionLatency is the fixed setup cost per DMA transaction
	// (descriptor fetch, engine kick, completion signalling).
	TransactionLatency time.Duration
	// SPDMSession is the one-time attestation/session-key establishment
	// cost when the GPU is bound to a TD in CC mode.
	SPDMSession time.Duration
}

// Link is the full-duplex PCIe connection. Each direction is an independent
// serial resource: concurrent DMAs in the same direction queue FIFO, while
// opposite directions proceed in parallel.
type Link struct {
	eng    *sim.Engine
	params Params
	dir    [2]*sim.Resource
	moved  [2]int64
	xfers  [2]uint64
	frames sim.FramePool[xferFrame]
	// bridge is the serialized encrypted CPU-GPU bridge used by TEE-IO
	// bridge modes: one capacity-1 resource spanning BOTH directions, so
	// H2D and D2H cannot overlap. Created lazily on first use.
	bridge *sim.Resource
	// trk holds the per-direction observability timelines and btrk the
	// bridge timeline; zero Tracks (tracing off) record nothing.
	trk  [2]obs.Track
	btrk obs.Track
}

// NewLink creates a link bound to the engine.
func NewLink(eng *sim.Engine, params Params) *Link {
	return &Link{
		eng:    eng,
		params: params,
		dir: [2]*sim.Resource{
			sim.NewResource(eng, 1).SetLabel("pcie-h2d"),
			sim.NewResource(eng, 1).SetLabel("pcie-d2h"),
		},
	}
}

// SetObserver attaches the observability layer, registering one timeline
// per DMA direction plus the serialized bridge (registered eagerly so
// track ordering never depends on which paths a run exercises).
func (l *Link) SetObserver(o *obs.Observer) {
	l.trk[H2D] = o.Track("pcie-h2d")
	l.trk[D2H] = o.Track("pcie-d2h")
	l.btrk = o.Track("pcie-bridge")
}

// Params returns the link constants.
func (l *Link) Params() Params { return l.params }

// TransferTime returns the modelled duration for n bytes in one transaction,
// excluding queuing.
func (l *Link) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	return l.params.TransactionLatency + units.StreamDuration(n, l.params.EffectiveGBps)
}

// Transfer moves n bytes in direction d, charging queueing plus transfer
// time to the calling process.
func (l *Link) Transfer(p *sim.Proc, d Direction, n int64) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		l.TransferA(a, d, n, step, state)
	})
}

// xferFrame carries one in-flight TransferA/BridgeTransferA; recycled
// through the link's pool.
type xferFrame struct {
	l     *Link
	d     Direction
	n     int64
	sp    obs.Span
	step  func(any)
	state any
}

// TransferA is the continuation form of Transfer: acquire the directional
// DMA engine, hold it for the transfer time, release, then run step(state).
func (l *Link) TransferA(a *sim.Actor, d Direction, n int64, step func(any), state any) {
	f := l.frames.Get()
	f.l, f.d, f.n, f.step, f.state = l, d, n, step, state
	f.sp = l.trk[d].Begin("dma").Bytes(n)
	l.dir[d].UseA(a, l.TransferTime(n), xferDone, f)
}

func xferDone(x any) {
	f := x.(*xferFrame)
	f.sp.End()
	l, d, n, step, state := f.l, f.d, f.n, f.step, f.state
	l.frames.Put(f)
	l.moved[d] += n
	l.xfers[d]++
	step(state)
}

// BridgeTransfer moves n bytes through the serialized encrypted bridge
// ("The Serialized Bridge" model of Blackwell GPU-CC): unlike Transfer,
// both directions contend for one resource, the achievable rate is derated
// to gbps, and each transaction pays perTLP of hardware IDE latency on top
// of the link's setup cost. A non-positive gbps falls back to the link's
// full-duplex rate (serialization without derating).
func (l *Link) BridgeTransfer(p *sim.Proc, d Direction, n int64, gbps float64, perTLP time.Duration) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		l.BridgeTransferA(a, d, n, gbps, perTLP, step, state)
	})
}

// bridgeResource returns the serialized bridge, creating it on first use.
func (l *Link) bridgeResource() *sim.Resource {
	if l.bridge == nil {
		l.bridge = sim.NewResource(l.eng, 1).SetLabel("pcie-bridge")
	}
	return l.bridge
}

// BridgeTransferA is the continuation form of BridgeTransfer.
func (l *Link) BridgeTransferA(a *sim.Actor, d Direction, n int64, gbps float64, perTLP time.Duration, step func(any), state any) {
	if gbps <= 0 {
		gbps = l.params.EffectiveGBps
	}
	if n < 0 {
		n = 0
	}
	t := l.params.TransactionLatency + perTLP + units.StreamDuration(n, gbps)
	f := l.frames.Get()
	f.l, f.d, f.n, f.step, f.state = l, d, n, step, state
	f.sp = l.btrk.Begin("bridge-dma").Bytes(n)
	l.bridgeResource().UseA(a, t, xferDone, f)
}

// BridgeBusy returns the cumulative busy time of the serialized bridge
// (zero when no bridge transfer ever ran).
func (l *Link) BridgeBusy() time.Duration {
	if l.bridge == nil {
		return 0
	}
	return l.bridge.BusyTime()
}

// BytesMoved returns the cumulative bytes DMAed in direction d.
func (l *Link) BytesMoved(d Direction) int64 { return l.moved[d] }

// Transfers returns the number of DMA transactions completed in direction d.
func (l *Link) Transfers(d Direction) uint64 { return l.xfers[d] }

// Busy returns cumulative busy time of direction d, for utilization reports.
func (l *Link) Busy(d Direction) time.Duration { return l.dir[d].BusyTime() }

// Idle reports whether both directions and the bridge are free with no
// transfer waiting.
func (l *Link) Idle() bool {
	return l.dir[H2D].Idle() && l.dir[D2H].Idle() && (l.bridge == nil || l.bridge.Idle())
}

// Counters is a snapshot of the link's cumulative counters, indexed by
// Direction where per-direction.
type Counters struct {
	Moved      [2]int64
	Transfers  [2]uint64
	Busy       [2]time.Duration
	BridgeBusy time.Duration
}

// Counters returns the link's counters now. Take it while the link is
// idle: a unit held at that moment has its busy time so far included.
func (l *Link) Counters() Counters {
	return Counters{
		Moved:      l.moved,
		Transfers:  l.xfers,
		Busy:       [2]time.Duration{l.Busy(H2D), l.Busy(D2H)},
		BridgeBusy: l.BridgeBusy(),
	}
}

// Sub returns the change from o to c.
func (c Counters) Sub(o Counters) Counters {
	for d := range c.Moved {
		c.Moved[d] -= o.Moved[d]
		c.Transfers[d] -= o.Transfers[d]
		c.Busy[d] -= o.Busy[d]
	}
	c.BridgeBusy -= o.BridgeBusy
	return c
}

// Credit adds a counter change to the link, as if the transfers behind it
// had run: the stand-in for a replayed copy's DMA.
func (l *Link) Credit(c *Counters) {
	for d := range l.dir {
		l.moved[d] += c.Moved[d]
		l.xfers[d] += c.Transfers[d]
		l.dir[d].AddBusy(c.Busy[d])
	}
	if c.BridgeBusy != 0 {
		l.bridgeResource().AddBusy(c.BridgeBusy)
	}
}

// EstablishSPDM charges the one-time SPDM attestation handshake.
func (l *Link) EstablishSPDM(p *sim.Proc) {
	p.Sleep(l.params.SPDMSession)
}
