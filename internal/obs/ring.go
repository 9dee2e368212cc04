package obs

import (
	"sync/atomic"
)

// ring is a bounded multi-producer single-consumer queue of Events
// (Vyukov's bounded MPMC algorithm, consumed from one goroutine). Each
// slot has a sequence word: producers claim a position with a CAS on
// tail, write the event, and publish by storing pos+1 into the slot's
// word; the consumer reads a slot only once its word shows the
// publication, so an enqueue-in-progress never tears. The words and
// the events are parallel arrays, so a run of published slots is a
// plain []Event the consumer hands to its sinks in one call.
type ring struct {
	mask uint64
	seq  []atomic.Uint64
	ev   []Event
	tail atomic.Uint64 // next enqueue position
	head atomic.Uint64 // next dequeue position (single consumer)
}

// newRing creates a ring with capacity rounded up to a power of two.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), seq: make([]atomic.Uint64, n), ev: make([]Event, n)}
	for i := range r.seq {
		r.seq[i].Store(uint64(i))
	}
	return r
}

// push enqueues ev, returning false when the ring is full.
func (r *ring) push(ev *Event) bool {
	for {
		pos := r.tail.Load()
		i := pos & r.mask
		switch d := int64(r.seq[i].Load()) - int64(pos); {
		case d == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				ev.Seq = pos
				r.ev[i] = *ev
				r.seq[i].Store(pos + 1)
				return true
			}
		case d < 0:
			return false // full: the consumer has not freed this slot
		}
		// d > 0: another producer claimed pos; reload and retry.
	}
}

// run returns the published events from the head up to the first
// unpublished slot or the end of the slot array, without freeing them.
// The events stay valid until release; producers cannot reuse their
// slots before then. Only the consumer goroutine may call run/release.
func (r *ring) run() []Event {
	pos := r.head.Load()
	i := pos & r.mask
	n := uint64(0)
	for i+n <= r.mask && r.seq[i+n].Load() == pos+n+1 {
		n++
	}
	return r.ev[i : i+n]
}

// release frees the first n slots from the head, returned by the
// preceding run.
func (r *ring) release(n int) {
	pos := r.head.Load()
	for k := uint64(0); k < uint64(n); k++ {
		r.seq[(pos+k)&r.mask].Store(pos + k + r.mask + 1)
	}
	r.head.Store(pos + uint64(n))
}
