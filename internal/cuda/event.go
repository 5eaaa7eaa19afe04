package cuda

import (
	"fmt"
	"time"

	"hccsim/internal/sim"
	"hccsim/internal/trace"
	"hccsim/internal/units"
)

// Event is a CUDA event: a timestamped marker recorded into a stream, the
// standard device-side timing primitive (cudaEventRecord /
// cudaEventElapsedTime). The recorded time is when the GPU reaches the
// marker, not when the host enqueued it.
type Event struct {
	ctx      *Context
	sig      *sim.Signal
	recorded bool
}

// EventCreate allocates an event (cudaEventCreate).
func (c *Context) EventCreate() *Event {
	c.p.Sleep(600 * time.Nanosecond)
	return &Event{ctx: c}
}

// Record enqueues the event on the stream (nil = default stream): it fires
// when all prior work on the stream completes. Re-recording an event
// re-arms it, as in CUDA.
func (e *Event) Record(s *Stream) {
	c := e.ctx
	if s == nil {
		s = c.def
	}
	c.p.Sleep(400 * time.Nanosecond)
	e.sig = s.ch.SubmitMarker()
	e.recorded = true
}

// Synchronize blocks the host until the event has fired
// (cudaEventSynchronize). It panics on an unrecorded event.
func (e *Event) Synchronize() {
	if !e.recorded {
		panic("cuda: Synchronize on unrecorded event")
	}
	e.sig.Wait(e.ctx.p)
}

// Completed reports whether the event has fired (cudaEventQuery).
func (e *Event) Completed() bool { return e.recorded && e.sig.Fired() }

// At returns the device timestamp of the event; it panics unless the event
// has completed.
func (e *Event) At() sim.Time {
	if !e.Completed() {
		panic("cuda: At on incomplete event")
	}
	return e.sig.At()
}

// Elapsed returns the device time between two completed events
// (cudaEventElapsedTime).
func Elapsed(start, end *Event) time.Duration {
	return end.At().Sub(start.At())
}

// Memset is cudaMemset on a device buffer: an on-device fill at HBM write
// bandwidth, unaffected by CC (the data never leaves the package). Like
// the CUDA call it models, it panics (sticky error) on a non-device
// buffer or an out-of-bounds fill.
func (c *Context) Memset(b *Buffer, bytes int64) {
	b.checkLive("Memset")
	if b.kind != DeviceMem {
		panic(fmt.Sprintf("cuda: Memset on %s buffer %q", b.kind, b.label))
	}
	if bytes <= 0 || bytes > b.size {
		panic(fmt.Sprintf("cuda: Memset of %d bytes on %d-byte buffer", bytes, b.size))
	}
	start := c.p.Now()
	rt := c.rt
	c.p.Sleep(rt.params.CopySW / 2)
	rt.pl.MMIO(c.p)
	c.p.Sleep(units.StreamDuration(bytes, rt.dev.Mem().Params().BandwidthGBps))
	c.record(trace.KindMemcpyD2D, "cudaMemset", start, bytes, false)
}

// WaitEvent makes subsequent work on the stream wait until the event fires
// (cudaStreamWaitEvent): the cross-stream dependency primitive behind
// producer/consumer pipelines. The wait executes on the device timeline,
// not the host. It panics on an unrecorded event.
func (s *Stream) WaitEvent(e *Event) {
	if !e.recorded {
		panic("cuda: WaitEvent on unrecorded event")
	}
	c := s.ctx
	c.p.Sleep(300 * time.Nanosecond)
	s.ch.SubmitWait(e.sig)
}
