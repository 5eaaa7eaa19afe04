package serve

import (
	"math"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/nn"
	"hccsim/internal/obs"
	"hccsim/internal/sim"
)

// schedule runs the continuous-batching scheduler over the drawn workload
// and computes the report. Policy (DESIGN.md §10):
//
//   - Admission: FIFO from the bounded waiting queue, between iterations,
//     while the running set is below MaxBatch and the KV pool can hold the
//     sequence's resident tokens plus a 1% watermark (skipped when the
//     running set is empty, so a fitting head request always admits and the
//     scheduler cannot livelock). A request whose full prompt+output KV
//     exceeds the pool is rejected up front.
//   - Prefill-prioritized iterations: newly admitted prompts are batched
//     into one prefill pass (capped at MaxPrefillTokens) that runs instead
//     of a decode iteration; its last-position logits yield each admitted
//     request's first token (TTFT).
//   - Decode iterations advance every running sequence one token. KV grows
//     one token per sequence per iteration; on pool exhaustion the newest
//     other sequence is preempted: its resident KV is swapped out through
//     the protection mode's transfer path (PipeLLM's motivating cost — the
//     copy rides software AES-GCM under tdx-h100 and the serialized bridge
//     under tee-io-bridge), its blocks are freed, and it re-enters the
//     waiting queue head to be swapped back in on re-admission.
//   - Per-iteration link traffic is charged explicitly: token ids H2D,
//     sampled ids D2H, prompt upload at prefill — small per step, but they
//     ride the same contended link as swap traffic.
//
// schedule panics only on internal invariant violations (an unresolvable
// mode after withDefaults normalized it, or a pool too small for a solo
// sequence, which fitsEver already excluded).
func schedule(cfg Config, sys cuda.Config, quant nn.Quant, model *costModel, wl []*request) outcome {
	backend, _ := nn.BackendByName(cfg.Backend)
	mode, err := sys.ResolveMode()
	if err != nil {
		panic("serve: " + err.Error()) // cfg was normalized by withDefaults
	}
	hostStep, hostStepCC := nn.HostStepCost(backend)
	hostCost := hostStep
	if mode.MMIOTraps() {
		hostCost += hostStepCC
	}

	tokenBytes := nn.LlamaKVTokenBytes
	kv := newKVPool(cfg.KVCapBytes, tokenBytes, cfg.KVBlockTokens)

	maxPrompt, maxSeqTokens := 0, 0
	for _, s := range wl {
		if s.promptTokens > maxPrompt {
			maxPrompt = s.promptTokens
		}
		if t := s.promptTokens + s.outputTokens; t > maxSeqTokens {
			maxSeqTokens = t
		}
	}
	idsBytes := int64(cfg.MaxPrefillTokens+maxPrompt) * tokenIDBytes
	if b := int64(cfg.MaxBatch) * tokenIDBytes; b > idsBytes {
		idsBytes = b
	}
	swapBytes := int64(maxSeqTokens) * tokenBytes
	if swapBytes < tokenBytes {
		swapBytes = tokenBytes
	}

	eng := sim.NewEngine()
	rt := cuda.New(eng, sys)
	// The run owns its engine, so the observer is bound here; substrate
	// tracks register before the scheduler's own, keeping export order
	// fixed. Without one nothing records: nothing here reads the trace.
	cfg.Observer.Bind(eng)
	rt.SetObserver(cfg.Observer)
	waiting := sim.NewQueue[*request](eng).SetLabel("serve-waiting")
	ready := sim.NewSignal(eng).SetLabel("serve-ready")

	var (
		rep     Report
		startAt sim.Time
	)

	eng.Spawn("serve:generator", func(p *sim.Proc) {
		ready.Wait(p)
		for _, s := range wl {
			p.Sleep(s.gap)
			s.arrival = simTime(p.Now())
			if waiting.Len() >= cfg.QueueDepth {
				s.rejected = true
				rep.Rejected++
				continue
			}
			s.asp = cfg.Observer.BeginAsync("request", int64(s.id), "request")
			waiting.Put(s)
		}
		waiting.Put(nil) // sentinel: offered load is done
	})

	l := &schedLoop{
		cfg: cfg, kv: kv, waiting: waiting, rep: &rep, model: model,
		hostCost: hostCost, tokenBytes: tokenBytes,
		trk: cfg.Observer.Track("serve-sched"),
	}
	eng.Spawn("serve:scheduler", func(p *sim.Proc) {
		c := rt.Bind(p)
		// Model state resident before traffic starts: weights, the KV pool,
		// token id staging, and the pinned swap buffer (which CC modes
		// demote to the encrypted-paging path).
		c.Malloc("weights", nn.WeightBytes(quant))
		l.dKV = c.Malloc("kv-pool", int64(kv.totalBlocks)*kv.blockBytes)
		l.dIO = c.Malloc("token-ids", idsBytes)
		l.hIO = c.HostBuffer("token-ids-host", idsBytes)
		l.hSwap = c.MallocHost("kv-swap", swapBytes)
		l.c = c
		startAt = p.Now()
		ready.Fire()
		// The steady-state loop runs to completion: every iteration's copies,
		// sleeps and queue waits fire inline in the engine, and this process
		// resumes exactly once, when the last request has drained.
		p.Await(func(a *sim.Actor, step func(any), state any) {
			l.a, l.step, l.state = a, step, state
			schedAdmit(l)
		})
	})
	eng.Run()
	lastDoneAt, tokensOut, batchSum := l.lastDoneAt, l.tokensOut, l.batchSum

	rep.Mode = cfg.Mode
	rep.Platform = cfg.Platform
	rep.Backend = cfg.Backend
	rep.Quant = cfg.Quant
	rep.RateQPS = cfg.RateQPS
	rep.Seed = cfg.Seed
	rep.Offered = len(wl)
	rep.Iterations = rep.PrefillIters + rep.DecodeIters
	rep.MakespanSim = time.Duration(lastDoneAt - startAt)
	rep.KVPeakBytes = kv.peakBytes()
	rep.KVCapBytes = int64(kv.totalBlocks) * kv.blockBytes
	rep.QueuePeakDepth = waiting.MaxDepth()
	rep.SLOTTFT = cfg.SLO.TTFT
	rep.SLOTPOT = cfg.SLO.TPOT
	if rep.DecodeIters > 0 {
		rep.AvgDecodeBatch = float64(batchSum) / float64(rep.DecodeIters)
	}
	if rep.MakespanSim > 0 {
		rep.ThroughputQPS = float64(rep.Completed) / rep.MakespanSim.Seconds()
		rep.TokensPerSec = float64(tokensOut) / rep.MakespanSim.Seconds()
	}

	var ttft, tpot, e2e Histogram
	attained := 0
	for _, s := range wl {
		if s.rejected {
			continue
		}
		t := time.Duration(s.firstTokenAt - s.arrival)
		e := time.Duration(s.doneAt - s.arrival)
		ttft.Record(t)
		e2e.Record(e)
		ok := t <= cfg.SLO.TTFT
		if s.outputTokens > 1 {
			per := time.Duration(s.doneAt-s.firstTokenAt) / time.Duration(s.outputTokens-1)
			tpot.Record(per)
			ok = ok && per <= cfg.SLO.TPOT
		}
		if ok {
			attained++
		}
	}
	rep.SLOAttainment = float64(attained) / float64(rep.Offered)
	rep.TTFT = summarize(&ttft)
	rep.TPOT = summarize(&tpot)
	rep.E2E = summarize(&e2e)
	if cfg.Observer != nil {
		rt.PublishMetrics()
		reg := cfg.Observer.Metrics()
		reg.Set("serve.offered", "count", float64(rep.Offered))
		reg.Set("serve.completed", "count", float64(rep.Completed))
		reg.Set("serve.rejected", "count", float64(rep.Rejected))
		reg.Set("serve.preemptions", "count", float64(rep.Preemptions))
		reg.Set("serve.swap_out_bytes", "bytes", float64(rep.SwapOutBytes))
		reg.Set("serve.swap_in_bytes", "bytes", float64(rep.SwapInBytes))
		reg.Set("serve.prefill_iters", "count", float64(rep.PrefillIters))
		reg.Set("serve.decode_iters", "count", float64(rep.DecodeIters))
		reg.Set("serve.kv_peak_bytes", "bytes", float64(rep.KVPeakBytes))
		reg.Set("serve.queue_peak_depth", "count", float64(rep.QueuePeakDepth))
	}
	return outcome{rep: rep, wl: wl, kv: kv, rt: rt}
}

// outcome is one drained run: the report, plus the per-request timelines,
// KV pool and runtime that the package's tests hold to account.
type outcome struct {
	rep Report
	wl  []*request
	kv  *kvPool
	rt  *cuda.Runtime
}

// schedLoop is the scheduler's steady-state loop as a run-to-completion
// state machine. One instance serves the whole run, so the loop allocates
// nothing per iteration; the step functions below are the direct CPS
// transcription of the former goroutine loop — admission, then one
// prefill/decode/idle iteration, then admission again.
type schedLoop struct {
	a     *sim.Actor
	step  func(any) // resume the spawning process when the run drains
	state any

	c          *cuda.Context
	cfg        Config
	kv         *kvPool
	waiting    *sim.Queue[*request]
	rep        *Report
	model      *costModel
	hostCost   time.Duration
	tokenBytes int64

	dKV, dIO, hIO, hSwap *cuda.Buffer

	// trk is the scheduler's timeline; itsp spans the iteration in flight
	// and swapSp the preemption copy in flight (zero when tracing is off).
	trk    obs.Track
	itsp   obs.Span
	swapSp obs.Span

	running    []*request
	genDone    bool
	lastDoneAt sim.Time
	tokensOut  int64
	batchSum   int64

	// per-iteration state
	admitted      []*request
	prefillTokens int
	swap          *request // sequence whose KV copy is in flight
	swapDst       *cuda.Buffer
	swapSrc       *cuda.Buffer
	swapLeft      int64     // bytes of the swap not yet copied
	swapDone      func(any) // step once the swap has landed
	di            int       // decode growth cursor into running
	batch         int
	runK          int // iterations in the closed-form decode run in flight
}

// schedAdmit starts an iteration: reset the admission sets and pull from
// the waiting queue.
func schedAdmit(x any) {
	l := x.(*schedLoop)
	l.admitted = l.admitted[:0]
	l.prefillTokens = 0
	schedAdmitNext(l)
}

// schedAdmitNext is the admission phase; it re-enters after each swap-in
// copy completes.
func schedAdmitNext(x any) {
	l := x.(*schedLoop)
	for len(l.running) < l.cfg.MaxBatch && l.prefillTokens < l.cfg.MaxPrefillTokens {
		s, ok := l.waiting.TryGet()
		if !ok {
			break
		}
		if s == nil {
			l.genDone = true
			continue
		}
		if !l.kv.fitsEver(s.promptTokens + s.outputTokens) {
			s.rejected = true
			l.rep.Rejected++
			s.asp.End()
			continue
		}
		resident := s.promptTokens + s.generated
		if s.swappedOut {
			// Restore exactly the KV that was swapped out (a running
			// sequence holds prompt+generated-1 resident tokens: the
			// prefill's first token costs no growth).
			resident = s.kvTokens
		}
		force := len(l.running) == 0
		if !l.kv.admit(s, resident, force) {
			l.waiting.PutFront(s)
			break
		}
		if s.swappedOut {
			// Swap the preempted KV back in (H2D) and resume decoding.
			l.swap = s
			l.swapSp = l.trk.Begin("swap-in").Bytes(int64(s.kvTokens) * l.tokenBytes).Request(int64(s.id))
			schedSwap(l, l.dKV, l.hSwap, int64(s.kvTokens)*l.tokenBytes, schedSwappedIn)
			return
		}
		l.admitted = append(l.admitted, s)
		l.running = append(l.running, s)
		l.prefillTokens += s.promptTokens
	}
	schedIterate(l)
}

// schedSwap moves a preempted sequence's KV between the device pool and
// the host swap buffer, then continues with done. The buffer holds the
// longest prompt+output, but a sequence preempted after its KV already grew
// in that iteration keeps the extra token, so one that is preempted again
// and again can outgrow it; such a swap goes in buffer-sized copies.
func schedSwap(l *schedLoop, dst, src *cuda.Buffer, bytes int64, done func(any)) {
	l.swapDst, l.swapSrc, l.swapLeft, l.swapDone = dst, src, bytes, done
	schedSwapNext(l)
}

func schedSwapNext(x any) {
	l := x.(*schedLoop)
	if l.swapLeft == 0 {
		l.swapDone(l)
		return
	}
	n := min(l.swapLeft, l.hSwap.Size())
	l.swapLeft -= n
	l.c.MemcpyA(l.a, l.swapDst, l.swapSrc, n, schedSwapNext, l)
}

func schedSwappedIn(x any) {
	l := x.(*schedLoop)
	s := l.swap
	l.swap = nil
	l.swapSp.End()
	l.swapSp = obs.Span{}
	l.rep.SwapInBytes += int64(s.kvTokens) * l.tokenBytes
	s.swappedOut = false
	l.running = append(l.running, s)
	schedAdmitNext(l)
}

// schedIterate picks the iteration kind once admission settles.
func schedIterate(x any) {
	l := x.(*schedLoop)
	switch {
	case len(l.admitted) > 0:
		// Prefill iteration over the admitted prompts.
		l.rep.PrefillIters++
		l.itsp = l.trk.Begin("prefill").Count(int64(l.prefillTokens))
		l.c.MemcpyA(l.a, l.dIO, l.hIO, int64(l.prefillTokens)*tokenIDBytes, schedPrefillIDsUp, l) // prompt ids H2D
	case len(l.running) > 0:
		if schedDecodeRun(l) {
			return
		}
		// Decode iteration: one token per running sequence.
		l.rep.DecodeIters++
		l.itsp = l.trk.Begin("decode").Count(int64(len(l.running)))
		l.di = 0
		schedDecodeGrow(l)
	case l.genDone && l.waiting.Len() == 0:
		l.step(l.state) // run drained: resume the scheduler process
	default:
		// Idle: block for the next arrival (or the sentinel).
		l.waiting.GetA(l.a, schedIdleGot, l)
	}
}

func schedIdleGot(x any, s *request) {
	l := x.(*schedLoop)
	if s == nil {
		l.genDone = true
	} else {
		l.waiting.PutFront(s)
	}
	schedAdmit(l)
}

func schedPrefillIDsUp(x any) {
	l := x.(*schedLoop)
	l.a.Sleep(l.hostCost, schedPrefillHostDone, l)
}

func schedPrefillHostDone(x any) {
	l := x.(*schedLoop)
	l.a.Sleep(l.model.prefill(l.prefillTokens), schedPrefillComputeDone, l)
}

func schedPrefillComputeDone(x any) {
	l := x.(*schedLoop)
	l.c.MemcpyA(l.a, l.hIO, l.dIO, int64(len(l.admitted))*tokenIDBytes, schedPrefillIDsDown, l) // first tokens D2H
}

func schedPrefillIDsDown(x any) {
	l := x.(*schedLoop)
	now := simTime(l.a.Now())
	for _, s := range l.admitted {
		s.firstTokenAt = now
		s.generated = 1
		l.tokensOut++
		if s.generated >= s.outputTokens {
			s.doneAt = now
			l.kv.release(s)
			l.rep.Completed++
			l.lastDoneAt = l.a.Now()
			s.asp.End()
		}
	}
	keep := l.running[:0]
	for _, s := range l.running {
		if s.doneAt == 0 {
			keep = append(keep, s)
		}
	}
	l.running = keep
	l.itsp.End()
	schedAdmit(l)
}

// schedDecodeGrow grows every running sequence's KV one token, preempting
// the newest other sequence on pool exhaustion; it re-enters after each
// swap-out copy completes, retrying the same sequence's growth. It panics
// when no victim remains and the sequence still cannot grow — a pool too
// small for a solo sequence, which fitsEver excluded at admission.
func schedDecodeGrow(x any) {
	l := x.(*schedLoop)
	for l.di < len(l.running) {
		s := l.running[l.di]
		if !l.kv.grow(s) {
			v := len(l.running) - 1
			if l.running[v] == s {
				v--
			}
			if v < 0 {
				panic("serve: KV pool cannot hold a solo sequence") // excluded by fitsEver
			}
			victim := l.running[v]
			l.running = append(l.running[:v], l.running[v+1:]...)
			if v < l.di {
				l.di--
			}
			l.swap = victim
			l.swapSp = l.trk.Begin("swap-out").Bytes(int64(victim.kvTokens) * l.tokenBytes).Request(int64(victim.id))
			schedSwap(l, l.hSwap, l.dKV, int64(victim.kvTokens)*l.tokenBytes, schedPreempted) // swap out D2H
			return
		}
		l.di++
	}
	l.batch = len(l.running)
	l.c.MemcpyA(l.a, l.dIO, l.hIO, int64(l.batch)*tokenIDBytes, schedDecodeIDsUp, l) // fed-back token ids H2D
}

func schedPreempted(x any) {
	l := x.(*schedLoop)
	v := l.swap
	l.swap = nil
	l.swapSp.End()
	l.swapSp = obs.Span{}
	l.kv.release(v)
	v.swappedOut = true
	v.preemptions++
	l.rep.Preemptions++
	l.rep.SwapOutBytes += int64(v.kvTokens) * l.tokenBytes
	l.waiting.PutFront(v)
	schedDecodeGrow(l)
}

func schedDecodeIDsUp(x any) {
	l := x.(*schedLoop)
	l.a.Sleep(l.hostCost, schedDecodeHostDone, l)
}

func schedDecodeHostDone(x any) {
	l := x.(*schedLoop)
	l.a.Sleep(l.model.decode(l.batch), schedDecodeComputeDone, l)
}

func schedDecodeComputeDone(x any) {
	l := x.(*schedLoop)
	l.c.MemcpyA(l.a, l.hIO, l.dIO, int64(l.batch)*tokenIDBytes, schedDecodeIDsDown, l) // sampled ids D2H
}

func schedDecodeIDsDown(x any) {
	l := x.(*schedLoop)
	l.batchSum += int64(l.batch)
	l.tokensOut += int64(l.batch)
	now := simTime(l.a.Now())
	keep := l.running[:0]
	for _, s := range l.running {
		s.generated++
		if s.generated >= s.outputTokens {
			s.doneAt = now
			l.kv.release(s)
			l.rep.Completed++
			l.lastDoneAt = l.a.Now()
			s.asp.End()
		} else {
			keep = append(keep, s)
		}
	}
	l.running = keep
	l.itsp.End()
	schedAdmit(l)
}

// schedDecodeRun runs, in closed form, the longest stretch of decode
// iterations that nothing can interrupt, and reports whether it ran any
// (DESIGN.md §10, §12). It applies only where the run has no observer and
// both token-id copies of this batch would replay a learned cost, so one
// iteration takes a fixed d. It takes the largest k such that no sequence
// completes in iterations 1..k, their KV growth fits the free blocks (no
// preemption), and they end strictly before the next pending event (no
// arrival, so the admission phases between them admit nothing). The clock
// then jumps k·d and schedDecodeRunDone applies the k iterations at once.
// Like Actor.SleepAlone, call it only as the tail of a step the engine fired;
// the one call that is not, the scheduler's start, finds running empty.
func schedDecodeRun(l *schedLoop) bool {
	if l.cfg.Observer != nil {
		return false
	}
	ids := int64(len(l.running)) * tokenIDBytes
	up, ok := l.c.LearnedCopy(l.dIO, l.hIO, ids)
	if !ok {
		return false
	}
	down, ok := l.c.LearnedCopy(l.hIO, l.dIO, ids)
	if !ok {
		return false
	}
	d := up + max(l.hostCost, 0) + max(l.model.decode(len(l.running)), 0) + down
	k := math.MaxInt
	for _, s := range l.running {
		k = min(k, s.outputTokens-s.generated-1)
	}
	if d > 0 {
		k = min(k, int((l.a.Engine().NextAt()-l.a.Now()-1)/sim.Time(d)))
	}
	if free := l.kv.freeBlocks(); k > 0 && l.kv.growBlocks(l.running, k) > free {
		// Largest k with the growth fitting: growBlocks rises with k.
		lo, hi := 0, k
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; l.kv.growBlocks(l.running, mid) > free {
				hi = mid
			} else {
				lo = mid
			}
		}
		k = lo
	}
	if k < 1 {
		return false
	}
	l.runK = k
	return l.a.SleepAlone(time.Duration(k)*d, schedDecodeRunDone, l)
}

// schedDecodeRunDone lands a closed-form decode run: every running sequence
// grows and generates k tokens, and the counters take k iterations' worth,
// copy credits included, before admission resumes as after iteration k.
func schedDecodeRunDone(x any) {
	l := x.(*schedLoop)
	k, b := l.runK, len(l.running)
	for _, s := range l.running {
		s.generated += k
		s.kvTokens += k
		l.kv.take(s, l.kv.blocksFor(s.kvTokens)-s.kvBlocks)
	}
	l.rep.DecodeIters += k
	l.batchSum += int64(k * b)
	l.tokensOut += int64(k * b)
	ids := int64(b) * tokenIDBytes
	l.c.CreditCopies(l.dIO, l.hIO, ids, k)
	l.c.CreditCopies(l.hIO, l.dIO, ids, k)
	schedAdmit(l)
}
