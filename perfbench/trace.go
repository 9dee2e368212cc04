package main

import (
	"sync/atomic"
	_ "unsafe" // go:linkname

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// nanotime is the runtime's monotonic clock: half the cost of
// time.Now, which also reads the wall clock.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// layer indexes a timed boundary on a reference thread.
type layer int

const (
	lNext    layer = iota // workload.Generator.Next
	lUsesBus              // sim.Board.UsesBusNext
	lStall                // sim.Board.Stall
	lHit                  // sim.Board.Read/Write that issued no bus transaction
	lMiss                 // sim.Board.Read/Write that issued one or more
	nLayers
)

// sampleEvery is the sampling period: one reference window in this
// many is timed, every call is counted. Timing every call roughly
// triples the cost of a cache hit, because a clock read costs more
// than the hit itself.
const sampleEvery = 16

// spans holds the sampled spans of the deterministic engine, which runs
// every board on one goroutine.
//
// A window runs from the end of one Board.Read/Write to the end of the
// next, so windows tile the engine's run. Within a
// timed window every boundary call is a span; the window time outside
// the spans is the engine's own work.
type spans struct {
	rng      sampler
	on       bool  // the current window is timed
	winStart int64 // clock at the start of the current window
	winSpans int64 // spans timed so far in the current window
	winSum   int64 // their raw total

	calls [nLayers]int64 // every call
	n     [nLayers]int64 // timed calls
	ns    [nLayers]int64 // raw duration of the timed calls

	windows, timedWindows int64
	// gapNS is the raw timed-window time outside spans; gapReads counts
	// the clock reads it absorbed, one per span. reads counts every clock
	// read of the timed windows.
	gapNS, gapReads, reads int64
}

// sampler picks one call in sampleEvery at random (xorshift64), so
// the sample does not lock onto the engine's round-robin board order.
type sampler uint64

func (r *sampler) hit() bool {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = sampler(x)
	return x%sampleEvery == 0
}

// open starts the first window at clock now.
func (s *spans) open(now int64) {
	if s.on = s.rng.hit(); s.on {
		s.winStart = now
	}
}

func (s *spans) begin() int64 {
	if s.on {
		return nanotime()
	}
	return 0
}

func (s *spans) end(l layer, t0 int64) {
	s.calls[l]++
	if s.on {
		d := nanotime() - t0
		s.n[l]++
		s.ns[l] += d
		s.winSpans++
		s.winSum += d
	}
}

// endRef closes a Read/Write span, which also closes the window.
func (s *spans) endRef(t0 int64, miss bool) {
	l := lHit
	if miss {
		l = lMiss
	}
	s.calls[l]++
	s.windows++
	if s.on {
		now := nanotime()
		d := now - t0
		s.n[l]++
		s.ns[l] += d
		s.timedWindows++
		s.gapNS += now - s.winStart - s.winSum - d
		s.gapReads += s.winSpans + 1
		s.reads += 2*(s.winSpans+1) + 1
		s.winSpans, s.winSum = 0, 0
	}
	if s.on = s.rng.hit(); s.on {
		s.winStart = nanotime()
	}
}

func (s *spans) add(o *spans) {
	for l := range s.calls {
		s.calls[l] += o.calls[l]
		s.n[l] += o.n[l]
		s.ns[l] += o.ns[l]
	}
	s.windows += o.windows
	s.timedWindows += o.timedWindows
	s.gapNS += o.gapNS
	s.gapReads += o.gapReads
	s.reads += o.reads
}

// mean is a layer's clock-corrected mean span. A span's two clock
// reads each charge it about half a read.
func (s *spans) mean(l layer, clockNS float64) float64 {
	if s.n[l] == 0 {
		return 0
	}
	return (float64(s.ns[l]) - float64(s.n[l])*clockNS) / float64(s.n[l])
}

// engineSelf estimates the engine's total time outside every span,
// clock-corrected and scaled from the timed windows to all of them.
func (s *spans) engineSelf(clockNS float64) float64 {
	if s.timedWindows == 0 {
		return 0
	}
	return (float64(s.gapNS) - float64(s.gapReads)*clockNS) * float64(s.windows) / float64(s.timedWindows)
}

// layered is the estimated total time inside the spans plus the engine
// self time: what should add up to the engine's wall time.
func (s *spans) layered(clockNS float64) float64 {
	t := s.engineSelf(clockNS)
	for l := layer(0); l < nLayers; l++ {
		t += s.mean(l, clockNS) * float64(s.calls[l])
	}
	return t
}

// tracedBoard times a board's calls from outside sim.
type tracedBoard struct {
	sim.Board
	sp  *spans
	txs *atomic.Int64 // bus transactions this board mastered
}

func (b *tracedBoard) Read(addr bus.Addr, word int) (uint32, error) {
	tx0 := b.txs.Load()
	t0 := b.sp.begin()
	v, err := b.Board.Read(addr, word)
	b.sp.endRef(t0, b.txs.Load() != tx0)
	return v, err
}

func (b *tracedBoard) Write(addr bus.Addr, word int, val uint32) error {
	tx0 := b.txs.Load()
	t0 := b.sp.begin()
	err := b.Board.Write(addr, word, val)
	b.sp.endRef(t0, b.txs.Load() != tx0)
	return err
}

func (b *tracedBoard) UsesBusNext(addr bus.Addr, write bool) bool {
	t0 := b.sp.begin()
	r := b.Board.UsesBusNext(addr, write)
	b.sp.end(lUsesBus, t0)
	return r
}

func (b *tracedBoard) Stall() int64 {
	t0 := b.sp.begin()
	r := b.Board.Stall()
	b.sp.end(lStall, t0)
	return r
}

type tracedGen struct {
	workload.Generator
	sp *spans
}

func (g *tracedGen) Next() workload.Ref {
	t0 := g.sp.begin()
	r := g.Generator.Next()
	g.sp.end(lNext, t0)
	return r
}

// timedSink counts every event a sink consumes and times one in
// sampleEvery. The recorder calls Consume from one goroutine at a time,
// under its drain lock.
type timedSink struct {
	obs.Sink
	name      string
	rng       sampler
	events, n int64
	ns        int64
}

func (s *timedSink) Consume(e *obs.Event) {
	s.events++
	if !s.rng.hit() {
		s.Sink.Consume(e)
		return
	}
	t0 := nanotime()
	s.Sink.Consume(e)
	s.ns += nanotime() - t0
	s.n++
}

// tracer is the instrumentation of one traced repetition.
type tracer struct {
	spans
	sinks []*timedSink
	// txTraced counts transactions seen by the bus trace hook; it must
	// equal bus.Stats.Transactions.
	txTraced atomic.Int64
}

func (t *tracer) wrapSink(name string, sk obs.Sink) obs.Sink {
	ts := &timedSink{Sink: sk, name: name, rng: sampler(0x9e3779b97f4a7c15 + uint64(len(t.sinks)))}
	t.sinks = append(t.sinks, ts)
	return ts
}

// install wraps every board and generator of a built instance and
// hooks the bus.
func (t *tracer) install(in *instance) {
	t.rng = sampler(0x2545f4914f6cdd1d)
	txs := make([]atomic.Int64, len(in.sys.Boards))
	for i, b := range in.sys.Boards {
		in.sys.Boards[i] = &tracedBoard{Board: b, sp: &t.spans, txs: &txs[i]}
		in.gens[i] = &tracedGen{Generator: in.gens[i], sp: &t.spans}
	}
	in.sys.Bus.SetTrace(func(tx *bus.Transaction, _ *bus.Result) {
		if m := tx.MasterID; m >= 0 && m < len(txs) {
			txs[m].Add(1)
		}
		t.txTraced.Add(1)
	})
}
