package sim

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/workload"
)

// DefaultHitLatency is the assumed processor cost of one reference that
// hits in the cache (nanoseconds) — a 20 MHz-class 1986 processor with
// a one-cycle cache.
const DefaultHitLatency = 50

// Engine is the deterministic discrete-event engine: boards execute
// their reference streams in global simulated-time order, contending
// for the bus. One run with the same config, generators and seeds is
// exactly reproducible.
type Engine struct {
	Sys  *System
	Gens []workload.Generator
	// HitLatency is the per-reference processor time; 0 = default.
	HitLatency int64
}

// procEvent is one board's position on the timeline.
type procEvent struct {
	time int64
	proc int
	// rank orders simultaneous contenders for a busy shard the way the
	// shard's arbitration Discipline would: it is the discipline key of
	// the board's deferred access, 0 when no discipline is configured
	// (or the event is not a deferred bus access), so the legacy
	// time/seq order is untouched by default.
	rank int64
	seq  int64 // tie-break for determinism
}

// eventHeap is a binary min-heap of procEvents ordered by (time, rank,
// seq). The key is unique (seq never repeats), so the pop order does
// not depend on the heap's internal layout. It is typed rather than
// built on container/heap so the per-reference step does not box
// events into interfaces.
type eventHeap []procEvent

func (e procEvent) before(o procEvent) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.rank != o.rank {
		return e.rank < o.rank
	}
	return e.seq < o.seq
}

// siftDown restores the heap property below index i.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// siftUp restores the heap property above index i.
func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) top() procEvent { return h[0] }

// replaceTop overwrites the minimum and re-sifts it.
func (h eventHeap) replaceTop(e procEvent) {
	h[0] = e
	h.siftDown(0)
}

// popTop removes the minimum.
func (h *eventHeap) popTop() { h.remove(0) }

// push adds an entry. The heap never holds more than one entry per
// board, so it never outgrows the capacity Run gives it.
func (h *eventHeap) push(e procEvent) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// find returns the index of proc's entry, or -1. A linear scan: the
// heap holds at most one entry per board.
func (h eventHeap) find(proc int) int {
	for i := range h {
		if h[i].proc == proc {
			return i
		}
	}
	return -1
}

// fix restores the heap property after the entry at index i changed.
func (h eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

// remove deletes the entry at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old[i] = old[n]
	*h = old[:n]
	if i < n {
		h.fix(i)
	}
}

// procState is one board's progress through its reference stream.
type procState struct {
	remaining int
	// pending is the reference drawn but not yet executed (it may be
	// deferred behind a busy shard); hasPending marks it live.
	pending    workload.Ref
	hasPending bool
	time       int64
	// waited accumulates simulated time this board's next bus access
	// was deferred because the bus was busy; blocker is the TxID it was
	// last deferred behind. Reported as one KindBlocked event when the
	// access finally runs — the deterministic engine's equivalent of
	// the concurrent engine's arbitration wait.
	waited  int64
	blocker uint64
	// ticket is the access's sticky arbitration ticket (drawn on its
	// first deferral, kept across re-deferrals so the discipline sees
	// one aging request); -1 = no ticket outstanding. defers counts
	// deferral rounds — Skips for the discipline key.
	ticket int64
	defers int
	// pure marks a board whose UsesBusNext has no side effects: while
	// deferred it parks on its home shard's wait list instead of being
	// re-polled through the heap.
	pure bool
	// parked marks a board on a wait list. Its heap key is then (time,
	// rank, seq), and epoch is the board's SnoopEpoch when its
	// prediction was last asked.
	parked    bool
	rank, seq int64
	epoch     uint64
}

// run is the state of one Engine.Run.
//
// A board whose next access needs a busy shard is deferred to the time
// the shard frees. Deferred boards with pure predictions park on their
// shard's wait list: they all wait for the same busFreeAt, and only the
// one with the least (rank, seq) — the representative — keeps an entry
// on the event heap. When a grant moves busFreeAt, every waiter is
// re-deferred in place with exactly the bookkeeping the heap would have
// done as each of them popped, and the representative's entry moves.
// A waiter whose directory a snoop changed (SnoopEpoch) is asked again
// first, since the grant may have turned its access into a hit.
//
// This reproduces the heap schedule exactly because nothing but a grant
// on a shard can touch what a waiter's re-deferral reads: every set is
// homed on one shard, so victim write-backs and BS pushes run under the
// grant of the access that caused them, and predictions are exact — a
// board that predicts no bus access issues none (Run checks this).
// Between two grants on a shard, then, its busFreeAt, its last TxID, its
// discipline state and its waiters' directories all stand still.
type run struct {
	e     *Engine
	procs []procState
	h     eventHeap
	// busFreeAt is each fabric shard's occupancy clock: a board only
	// waits when the home shard of its next access is busy, which is
	// how the deterministic engine models the backplane's parallelism
	// while keeping one merged virtual timeline.
	busFreeAt []int64
	// discs holds a private Discipline per shard (mirroring the
	// concurrent engine's per-shard arbiter) and tickets its
	// arrival-ticket counter. discs stays nil with no discipline
	// configured, keeping the legacy deferral order bit-exact.
	discs   []bus.Discipline
	tickets []int64
	// wait lists each shard's parked boards; rep is the one whose entry
	// is on the heap (-1 = none).
	wait [][]int
	rep  []int
}

func newRun(e *Engine, refsPerProc int) *run {
	n, shards := len(e.Sys.Boards), e.Sys.Bus.Shards()
	r := &run{
		e:         e,
		procs:     make([]procState, n),
		h:         make(eventHeap, 0, n),
		busFreeAt: make([]int64, shards),
		wait:      make([][]int, shards),
		rep:       make([]int, shards),
	}
	// Every board starts at time 0 in seq order: ascending keys, which
	// is already a valid heap.
	for i := range r.procs {
		r.procs[i] = procState{remaining: refsPerProc, ticket: -1, pure: e.Sys.Boards[i].PurePrediction()}
		if refsPerProc > 0 {
			r.h = append(r.h, procEvent{time: 0, proc: i, seq: int64(i)})
		}
	}
	// Sized for every board at once, so parking never allocates.
	backing := make([]int, shards*n)
	for si := range r.wait {
		r.wait[si] = backing[si*n : si*n : (si+1)*n]
		r.rep[si] = -1
	}
	if e.Sys.disc != nil {
		r.discs = make([]bus.Discipline, shards)
		for i := range r.discs {
			r.discs[i] = e.Sys.disc()
		}
		r.tickets = make([]int64, shards)
	}
	return r
}

// deferTo defers proc's access behind shard si's current occupancy,
// from time at, and returns the discipline rank of the deferred access.
func (r *run) deferTo(proc, si int, at, rank int64) int64 {
	p := &r.procs[proc]
	if r.e.Sys.Obs != nil {
		p.waited += r.busFreeAt[si] - at
		p.blocker = r.e.Sys.Bus.Shard(si).LastTxID()
	}
	if r.discs != nil {
		if p.ticket < 0 {
			p.ticket = r.tickets[si]
			r.tickets[si]++
			p.defers = 0
		} else {
			p.defers++
		}
		rank = r.discs[si].Key(bus.Waiter{Board: proc, Ticket: p.ticket, Skips: p.defers})
	}
	return rank
}

// key is a parked board's heap key.
func (r *run) key(proc int) procEvent {
	p := &r.procs[proc]
	return procEvent{time: p.time, proc: proc, rank: p.rank, seq: p.seq}
}

// park puts the deferred event ev, at the top of the heap, on shard
// si's wait list. It stays on the heap as the representative when it
// precedes the current one, and leaves it otherwise.
func (r *run) park(si int, ev procEvent) {
	p := &r.procs[ev.proc]
	p.parked, p.time, p.rank, p.seq = true, ev.time, ev.rank, ev.seq
	p.epoch = r.e.Sys.Boards[ev.proc].SnoopEpoch()
	r.wait[si] = append(r.wait[si], ev.proc)
	if old := r.rep[si]; old >= 0 {
		if !ev.before(r.key(old)) {
			r.h.popTop()
			return
		}
		r.h.remove(r.h.find(old))
	}
	r.rep[si] = ev.proc
	r.h.replaceTop(ev)
}

// unpark takes proc off shard si's wait list; its heap entry, if it has
// one, stays.
func (r *run) unpark(si, proc int) {
	r.procs[proc].parked = false
	w := r.wait[si]
	for i, q := range w {
		if q == proc {
			w[i] = w[len(w)-1]
			r.wait[si] = w[:len(w)-1]
			break
		}
	}
	if r.rep[si] == proc {
		r.rep[si] = -1
	}
}

// granted re-defers shard si's waiters after a grant moved its
// busFreeAt, and moves the representative's entry. A waiter whose
// directory changed and whose access no longer needs the bus goes back
// on the heap at its old key, where it would have run.
func (r *run) granted(si int) {
	boards := r.e.Sys.Boards
	for i := 0; i < len(r.wait[si]); {
		proc := r.wait[si][i]
		p := &r.procs[proc]
		if ep := boards[proc].SnoopEpoch(); ep != p.epoch {
			p.epoch = ep
			if !boards[proc].UsesBusNext(busAddr(p.pending.Line), p.pending.Write) {
				if r.rep[si] != proc {
					r.h.push(r.key(proc))
				}
				r.unpark(si, proc) // swaps the last waiter into slot i
				continue
			}
		}
		p.rank = r.deferTo(proc, si, p.time, p.rank)
		p.time = r.busFreeAt[si]
		i++
	}
	r.elect(si)
}

// elect gives shard si's least waiter the heap entry: the current
// representative's entry, whose key may have changed, is overwritten.
func (r *run) elect(si int) {
	w := r.wait[si]
	if len(w) == 0 {
		return
	}
	best := r.key(w[0])
	for _, proc := range w[1:] {
		if k := r.key(proc); k.before(best) {
			best = k
		}
	}
	if old := r.rep[si]; old >= 0 {
		j := r.h.find(old)
		r.h[j] = best
		r.h.fix(j)
	} else {
		r.h.push(best)
	}
	r.rep[si] = best.proc
}

// Run executes refsPerProc references on every board and returns the
// aggregated metrics.
func (e *Engine) Run(refsPerProc int) (Metrics, error) {
	if len(e.Gens) != len(e.Sys.Boards) {
		return Metrics{}, fmt.Errorf("sim: %d generators for %d boards", len(e.Gens), len(e.Sys.Boards))
	}
	if refsPerProc < 0 {
		return Metrics{}, fmt.Errorf("sim: negative reference count %d per board", refsPerProc)
	}
	hit := e.HitLatency
	if hit == 0 {
		hit = DefaultHitLatency
	}
	r := newRun(e, refsPerProc)
	procs, busFreeAt := r.procs, r.busFreeAt
	seq := int64(len(procs))
	var elapsed int64
	var refs int64

	for len(r.h) > 0 {
		ev := r.h.top()
		p := &procs[ev.proc]
		p.time = ev.time
		if !p.hasPending {
			p.pending, p.hasPending = e.Gens[ev.proc].Next(), true
		}
		ref := p.pending
		addr := busAddr(ref.Line)
		board := e.Sys.Boards[ev.proc]
		si := e.Sys.Bus.HomeShard(addr)
		if p.parked {
			// The representative reached the head of the timeline: it
			// is served like any other event, and the next waiter
			// takes its place on the heap.
			r.unpark(si, ev.proc)
			r.elect(si)
		}

		// Bus accesses are executed in global time order: if the home
		// shard is still busy with an earlier transaction, this board
		// waits (other boards with earlier clocks run first).
		free := busFreeAt[si]
		if p.time < free && board.UsesBusNext(addr, ref.Write) {
			ev.rank = r.deferTo(ev.proc, si, ev.time, ev.rank)
			ev.time = free
			if p.pure {
				r.park(si, ev)
				continue
			}
			// A board whose policy consumes state on every choice
			// (random, round-robin) is re-asked through the heap each
			// time it pops, as often as the heap alone would ask it:
			// every poll added or dropped would change its later
			// choices, and with them the P4 trajectories.
			r.h.replaceTop(ev)
			continue
		}
		if p.waited > 0 {
			if rec := e.Sys.Obs; rec != nil {
				rec.Emit(obs.Event{
					TS:      rec.Clock(),
					Dur:     p.waited,
					Kind:    obs.KindBlocked,
					Bus:     int16(e.Sys.Bus.SegmentID(addr)),
					Proc:    int32(ev.proc),
					Addr:    uint64(addr),
					CauseID: p.blocker,
				})
			}
			p.waited, p.blocker = 0, 0
		}

		before := board.Stall()
		var busyBefore int64
		if e.Sys.split {
			busyBefore = e.Sys.Bus.Shard(si).BusyNanos()
		}
		var err error
		if ref.Write {
			err = board.Write(addr, ref.Word, ref.Val)
		} else {
			_, err = board.Read(addr, ref.Word)
		}
		if err != nil {
			return Metrics{}, fmt.Errorf("sim: board %d ref %s: %w", ev.proc, ref, err)
		}
		busCost := board.Stall() - before
		p.hasPending = false
		p.remaining--
		refs++
		e.Sys.noteRef()

		p.time += hit + busCost
		if busCost > 0 {
			if ev.time < free && len(r.wait[si]) > 0 {
				return Metrics{}, fmt.Errorf(
					"sim: board %d ref %s used busy shard %d after predicting no bus access; parked boards rely on exact predictions",
					ev.proc, ref, si)
			}
			if r.discs != nil {
				r.discs[si].Granted(ev.proc)
			}
			if e.Sys.split {
				// Split mode: the shard is occupied only for the on-bus
				// portion (address tenure, drained data tenures, NACK
				// cycles) — the occupancy-clock delta — while the board's
				// own clock also absorbs the off-bus service it stalled
				// on. Overlapped tenures fall out: the next contender may
				// start before this board's stall ends.
				if f := ev.time + (e.Sys.Bus.Shard(si).BusyNanos() - busyBefore); f > busFreeAt[si] {
					busFreeAt[si] = f
				}
			} else {
				busFreeAt[si] = p.time
			}
			if busFreeAt[si] != free && len(r.wait[si]) > 0 {
				r.granted(si)
			}
		}
		p.ticket, p.defers = -1, 0
		if p.time > elapsed {
			elapsed = p.time
		}

		if p.remaining > 0 {
			ev.time = p.time
			ev.rank = 0
			ev.seq = seq
			seq++
			r.h.replaceTop(ev)
		} else {
			r.h.popTop()
		}
	}

	// Retire any split-mode responses still pending so the final stats
	// account every owed data tenure.
	e.Sys.Bus.DrainPending()
	return e.metrics(refs, elapsed, hit), nil
}

func (e *Engine) metrics(refs, elapsed, hit int64) Metrics {
	return Metrics{
		System:       e.Sys.Describe(),
		Procs:        len(e.Sys.Boards),
		Refs:         refs,
		ElapsedNanos: elapsed,
		HitLatency:   hit,
		Bus:          e.Sys.Bus.Stats(),
		Memory:       e.Sys.Memory.Stats(),
		Cache:        aggregate(e.Sys.Caches, e.Sys.SectorCaches),
		Hist:         histSummaries(e.Sys.Obs),
		Perf:         perfSnapshot(e.Sys.Obs),
	}
}
