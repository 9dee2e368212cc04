package bus

import (
	"fmt"
	"sync"

	"futurebus/internal/obs"
)

// Fabric is the interconnect as its masters see it: the caller-facing
// surface of Bus, factored out so a system can run on a single bus or
// on an address-interleaved multi-bus backplane without the cache,
// checker or engine layers caring which.
//
// The consistency argument (§3.1) only ever reasons about one line at
// a time: every invariant is "for each line addressed by the system".
// Serialising transactions per line is therefore as strong as
// serialising them globally, so a fabric may partition the address
// space into shards — HomeShard(addr) names the shard that serialises
// a line — and run the shards in parallel. Bus-tenure sequences
// (Acquire … ExecuteHeld … Release) are keyed by address: the tenure
// holds only the home shard, and every held transaction must target a
// line homed on it.
type Fabric interface {
	// Attach registers a snooping unit on every shard (a line lives on
	// exactly one shard, so snooping all shards is exactly snooping
	// every line once). Configuration time only.
	Attach(s Snooper)
	// Execute runs one transaction on the home shard of tx.Addr.
	Execute(tx *Transaction) (Result, error)
	// Acquire blocks until the home shard of addr grants mastership to
	// master (the requesting board's id; internal callers pass -1 — the
	// shard arbiter's Discipline orders contenders by it).
	Acquire(addr Addr, master int)
	// Release returns mastership of addr's home shard.
	Release(addr Addr)
	// ExecuteHeld runs a transaction under an Acquire'd tenure; tx.Addr
	// must be homed on the held shard.
	ExecuteHeld(tx *Transaction) (Result, error)
	// LineSize is the system-wide line size in bytes.
	LineSize() int
	// Timing is the per-transaction cost model (identical across shards).
	Timing() Timing
	// Stats is a snapshot of the counters, summed over shards.
	Stats() Stats
	// Recorder is the observability recorder shared by every shard (nil
	// when tracing is off).
	Recorder() *obs.Recorder
	// SetTrace installs a transaction observer across all shards.
	// Must be set before traffic starts.
	SetTrace(fn func(tx *Transaction, r *Result))
	// Shards is the number of independent serialisation domains.
	Shards() int
	// Granularity is the interleave granularity in lines: lines
	// [k·G, (k+1)·G) share a home shard.
	Granularity() int
	// HomeShard maps a line to the shard that serialises it.
	HomeShard(addr Addr) int
	// SegmentID is the ObsID stamped on events about addr's home shard.
	SegmentID(addr Addr) int
	// Shard exposes the underlying Bus for shard i (escape hatch for
	// engines and tests that need per-shard state such as LastTxID).
	Shard(i int) *Bus
	// DrainPending force-retires every split-mode pending transaction
	// on every shard (no-op in atomic mode). Engines call it at
	// quiesce so deferred data tenures are fully accounted.
	DrainPending()
}

// Compile-time checks: both fabric implementations satisfy the
// interface.
var (
	_ Fabric = (*Bus)(nil)
	_ Fabric = (*Interleaved)(nil)
)

// InterleavedConfig parameterises an Interleaved fabric. The embedded
// Config applies to every shard; Config.Arbiter must be nil (each
// shard owns its arbiter — that independence is the whole point) and
// Config.ObsID is the id of shard 0, with shard i emitting as
// ObsID + i.
type InterleavedConfig struct {
	Config
	// Shards is the number of independent buses (≥ 1).
	Shards int
	// Granularity is the interleave granularity in lines; consecutive
	// runs of G lines share a home shard. Zero means 1 (pure line
	// interleave). Systems with sector caches set G to the sector size
	// so a whole sector is homed on one shard.
	Granularity int
}

// Interleaved is an address-interleaved multi-bus backplane: N
// independent Futurebus segments, each with its own FIFO arbiter,
// occupancy accounting and memory shard. A line's transactions all
// serialise through its home shard — HomeShard(addr) = (addr/G) mod N
// — so per-line ordering (all §3.1 needs) is preserved while
// unrelated lines proceed in parallel.
type Interleaved struct {
	shards []*Bus
	gran   uint64
	// traceMu serialises a SetTrace observer shared across shards,
	// which otherwise would be called concurrently.
	traceMu sync.Mutex
}

// NewInterleaved creates an interleaved fabric over the given memory
// shards, one per bus. len(mems) must equal cfg.Shards.
func NewInterleaved(mems []MemoryPort, cfg InterleavedConfig) *Interleaved {
	if cfg.Shards < 1 {
		panic("bus: interleaved fabric needs at least 1 shard")
	}
	if len(mems) != cfg.Shards {
		panic(fmt.Sprintf("bus: %d memory shards for %d bus shards", len(mems), cfg.Shards))
	}
	if cfg.Arbiter != nil {
		panic("bus: interleaved shards serialise independently; Config.Arbiter must be nil")
	}
	if cfg.Granularity <= 0 {
		cfg.Granularity = 1
	}
	f := &Interleaved{gran: uint64(cfg.Granularity)}
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.Config
		sc.Arbiter = newShardArbiter(i, cfg.Shards)
		sc.ObsID = cfg.ObsID + i
		b := New(mems[i], sc)
		b.shard = i
		f.shards = append(f.shards, b)
	}
	return f
}

// HomeShard maps a line address to its serialising shard.
func (f *Interleaved) HomeShard(addr Addr) int {
	return int((uint64(addr) / f.gran) % uint64(len(f.shards)))
}

// home returns addr's shard bus.
func (f *Interleaved) home(addr Addr) *Bus { return f.shards[f.HomeShard(addr)] }

// Attach registers the snooper on every shard, in shard order, so all
// shards share one attach ordering (their concurrent snoop sweeps then
// acquire directory locks in a single global order).
func (f *Interleaved) Attach(s Snooper) {
	for _, b := range f.shards {
		b.Attach(s)
	}
}

// Execute routes the transaction to its home shard.
func (f *Interleaved) Execute(tx *Transaction) (Result, error) { return f.home(tx.Addr).Execute(tx) }

// Acquire blocks until addr's home shard grants mastership to master.
func (f *Interleaved) Acquire(addr Addr, master int) { f.home(addr).Acquire(addr, master) }

// Release returns mastership of addr's home shard.
func (f *Interleaved) Release(addr Addr) { f.home(addr).Release(addr) }

// ExecuteHeld runs a transaction on its home shard, which the caller
// must have Acquired (enforced only by discipline, as on a single
// bus).
func (f *Interleaved) ExecuteHeld(tx *Transaction) (Result, error) {
	return f.home(tx.Addr).ExecuteHeld(tx)
}

// LineSize returns the system-wide line size in bytes.
func (f *Interleaved) LineSize() int { return f.shards[0].LineSize() }

// Timing returns the cost model (identical on every shard).
func (f *Interleaved) Timing() Timing { return f.shards[0].Timing() }

// Recorder returns the observability recorder shared by the shards.
func (f *Interleaved) Recorder() *obs.Recorder { return f.shards[0].Recorder() }

// Stats sums the counters over all shards.
func (f *Interleaved) Stats() Stats {
	var total Stats
	for _, b := range f.shards {
		total.Add(b.Stats())
	}
	return total
}

// SetTrace installs one observer across every shard; shards may
// complete transactions concurrently, so calls are serialised through
// an internal mutex. Must be set before traffic starts.
func (f *Interleaved) SetTrace(fn func(tx *Transaction, r *Result)) {
	for _, b := range f.shards {
		if fn == nil {
			b.SetTrace(nil)
			continue
		}
		b.SetTrace(func(tx *Transaction, r *Result) {
			f.traceMu.Lock()
			defer f.traceMu.Unlock()
			fn(tx, r)
		})
	}
}

// Shards reports the shard count.
func (f *Interleaved) Shards() int { return len(f.shards) }

// Granularity returns the interleave granularity in lines.
func (f *Interleaved) Granularity() int { return int(f.gran) }

// SegmentID returns the ObsID of addr's home shard.
func (f *Interleaved) SegmentID(addr Addr) int { return f.home(addr).ObsID() }

// Shard returns the underlying Bus for shard i.
func (f *Interleaved) Shard(i int) *Bus { return f.shards[i] }

// DrainPending force-retires split-mode pending transactions on every
// shard.
func (f *Interleaved) DrainPending() {
	for _, b := range f.shards {
		b.DrainPending()
	}
}
