package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sink consumes drained events. Consume is always called from a single
// goroutine at a time (the Recorder serialises draining), in emission
// order, so sinks need no internal locking against each other — only
// against their own readers (see HistogramSink, LineAuditSink).
type Sink interface {
	// Consume observes one event. The pointee is only valid for the
	// duration of the call; sinks that retain events must copy.
	Consume(e *Event)
	// Flush finalises buffered output (write files, close arrays).
	Flush() error
}

// BatchSink is a Sink that also takes a run of consecutive events in
// one call. The drain hands it each contiguous run of the ring; a sink
// without it gets one Consume per event. ConsumeBatch must act as the
// same Consume calls in order would. The slice and its events are only
// valid for the duration of the call, and belong to the ring: sinks
// must neither modify nor retain them.
type BatchSink interface {
	ConsumeBatch(events []Event)
}

// SinkFunc adapts a function to a Sink with a no-op Flush.
type SinkFunc func(e *Event)

// Consume implements Sink.
func (f SinkFunc) Consume(e *Event) { f(e) }

// Flush implements Sink.
func (f SinkFunc) Flush() error { return nil }

// DefaultBuffer is the ring capacity used by New. Kept small enough
// that the slot array stays cache-resident: a larger ring makes every
// push a cold-memory write and evicts the simulator's working set,
// which costs more wall-clock than the occasional backpressure yield
// when a burst outruns the drainer.
const DefaultBuffer = 1 << 10

// Recorder accepts events from any goroutine and moves them through a
// lock-free ring into its sinks from a background drain goroutine. A
// nil *Recorder is valid and inert: every method is a no-op, which is
// the branch-cheap fast path the substrates rely on.
type Recorder struct {
	ring  *ring
	clock atomic.Int64
	sinks []Sink
	batch []BatchSink // per sink; nil where it has only Consume

	drainMu sync.Mutex // serialises ring consumption and sink access
	notify  chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	dropped atomic.Int64
}

// New creates a recorder with the default ring capacity.
func New(sinks ...Sink) *Recorder { return NewSized(DefaultBuffer, sinks...) }

// NewSized creates a recorder whose ring holds at least buffer events.
func NewSized(buffer int, sinks ...Sink) *Recorder {
	if buffer < 2 {
		buffer = 2
	}
	r := &Recorder{
		ring:   newRing(buffer),
		sinks:  sinks,
		batch:  make([]BatchSink, len(sinks)),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	for i, s := range sinks {
		r.batch[i], _ = s.(BatchSink)
	}
	r.wg.Add(1)
	go r.drainLoop()
	return r
}

// Sinks returns the attached sinks (for summary extraction at the end
// of a run, e.g. FindHistogram).
func (r *Recorder) Sinks() []Sink {
	if r == nil {
		return nil
	}
	return r.sinks
}

// Clock returns the simulated time in nanoseconds: the cumulative bus
// occupancy advanced by the bus as transactions complete.
func (r *Recorder) Clock() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Load()
}

// Advance moves the simulated clock forward by d and returns the clock
// value BEFORE the advance — the begin timestamp of the span that d
// paid for.
func (r *Recorder) Advance(d int64) int64 {
	if r == nil {
		return 0
	}
	return r.clock.Add(d) - d
}

// Emit enqueues one event. Safe from any goroutine. When the ring is
// full, Emit yields until the drainer frees space (events are never
// dropped while the recorder is open, so audit trails stay complete).
// Emits after Close are discarded and counted (Dropped) instead of
// being silently lost.
func (r *Recorder) Emit(e Event) {
	if r != nil {
		r.emit(&e)
	}
}

// emit is Emit's body, out of line so that Emit inlines and an event
// literal is built once, in place, instead of copied into the call.
func (r *Recorder) emit(e *Event) {
	if r.closed.Load() {
		// The drainer may already be gone; an event pushed now could
		// sit in the ring forever. Count the discard instead.
		r.dropped.Add(1)
		return
	}
	for !r.ring.push(e) {
		if r.closed.Load() {
			r.dropped.Add(1)
			return // drainer gone; drop rather than spin forever
		}
		r.wake()
		runtime.Gosched()
	}
	// Wake the drainer only when this event published at the consume
	// position — the empty→non-empty transition. The drainer always
	// drains to empty before parking, so any later event is either
	// covered by this wake or republishes at the head itself once the
	// drainer catches up; waking on every Emit would just burn a
	// channel operation per event.
	if r.ring.head.Load() == e.Seq {
		r.wake()
	}
}

// Dropped returns the number of events discarded because they were
// emitted after Close. A non-zero value means some instrumentation
// site outlived the recorder — surface it rather than hide it.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

func (r *Recorder) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

func (r *Recorder) drainLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.notify:
			r.drain()
		case <-r.done:
			r.drain()
			return
		}
	}
}

// drain delivers every currently buffered event to the sinks, straight
// from the ring slots, one contiguous run at a time (the Sink contract
// already limits the events' lifetime to the call, so no defensive copy
// is needed).
func (r *Recorder) drain() {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	for {
		run := r.ring.run()
		if len(run) == 0 {
			return
		}
		for i, s := range r.sinks {
			if b := r.batch[i]; b != nil {
				b.ConsumeBatch(run)
				continue
			}
			for k := range run {
				s.Consume(&run[k])
			}
		}
		r.ring.release(len(run))
	}
}

// Drain delivers every buffered event to the sinks without flushing
// them — use it to read pull-style sinks (histograms) mid-run without
// forcing document-style sinks (the Chrome exporter writes a single
// JSON document on Flush) to finalise their output.
func (r *Recorder) Drain() {
	if r == nil {
		return
	}
	r.drain()
}

// Flush drains the ring and flushes every sink. Call it when the
// system is quiescent (no emitters mid-flight) to get a complete view.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.drain()
	var first error
	for _, s := range r.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the drain goroutine, drains whatever remains and flushes
// the sinks. The recorder accepts (and discards) Emits afterwards.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	if r.closed.Swap(true) {
		return nil
	}
	close(r.done)
	r.wg.Wait()
	return r.Flush()
}
