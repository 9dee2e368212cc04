// Package cache implements a set-associative snooping cache for the
// simulated Futurebus. The cache is policy-driven: every local event
// (processor read/write, replacement pass/flush) and every snooped bus
// event is resolved by a core.Policy choosing an action from its
// protocol table, so the same engine runs MOESI, Berkeley, Dragon,
// Write-Once, Illinois, Firefly and write-through protocols.
//
// Concurrency contract: each cache serves exactly one processor. The
// directory is guarded per fabric shard: under the interleave layout
// constraint (Sets divisible by granularity × shards) every set is
// homed on exactly one shard, so shard s's snoop sweep and shard t's
// can pin their slices of the directory concurrently. The processor
// side locks one shard's mutex for local work and never holds it while
// waiting for the bus; the bus side (Query/Commit/Cancel) holds it for
// the duration of the address cycle, mirroring how a Futurebus address
// handshake pins every unit's directory (§2.1). On a single bus this
// degenerates to the one-mutex contract the package always had.
package cache

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// Config parameterises a cache.
type Config struct {
	// Sets and Ways give the organisation; capacity is
	// Sets × Ways × line size.
	Sets, Ways int
	// OnWrite, when non-nil, observes every processor write the cache
	// applies, in the global per-line modification order (it is called
	// at the point the write becomes visible). The consistency checker
	// uses it to maintain the golden image.
	OnWrite func(addr bus.Addr, wordIdx int, val uint32)
	// OnSnoopChange, when non-nil, observes every state or data change
	// a snooped bus event caused (called with the bus held and the
	// directory locked). A multi-bus cluster bridge uses it to
	// propagate foreign invalidations and updates into its cluster
	// (internal/hierarchy).
	OnSnoopChange func(addr bus.Addr, from, to core.State, dataChanged bool)
	// OnEvict, when non-nil, runs before a valid line is evicted for
	// capacity, with the bus held and the directory unlocked. A bridge
	// uses it to maintain inclusion: no cluster cache may keep a line
	// its bridge no longer tracks.
	OnEvict func(addr bus.Addr) error
	// Regions optionally selects a different policy per address range —
	// §3.4's selective use of the class: "a given cache can make some
	// pages copy back, some write through, and some uncacheable (as
	// with the Fairchild CLIPPER)". Addresses outside every region use
	// the cache's main policy. Regions must not overlap.
	Regions []Region
}

// Region binds one line-address range [Start, End) to a policy.
type Region struct {
	Start, End bus.Addr
	// Policy governs accesses in the range. A NonCaching-variant
	// policy makes the range uncacheable: reads fetch without
	// retaining, writes go past the cache.
	Policy core.Policy
}

// policyFor returns the policy governing an address (§3.4 selective
// use). Safe without c.mu: regions are fixed at construction.
func (c *Cache) policyFor(addr bus.Addr) core.Policy {
	for i := range c.cfg.Regions {
		r := &c.cfg.Regions[i]
		if addr >= r.Start && addr < r.End {
			return r.Policy
		}
	}
	return c.policy
}

// DefaultConfig is a small cache that misses often enough to exercise
// the protocols.
func DefaultConfig() Config { return Config{Sets: 64, Ways: 2} }

type line struct {
	addr    bus.Addr
	state   core.State
	data    []byte
	lastUse uint64
}

// Cache is one snooping cache attached to a fabric (a single bus or an
// interleaved multi-bus backplane; the cache snoops every shard).
type Cache struct {
	id     int
	bus    bus.Fabric
	policy core.Policy
	cfg    Config
	// obs is inherited from the fabric at construction: one recorder
	// instruments the whole fabric. Nil obs = tracing off.
	obs *obs.Recorder
	// nshards/gran mirror the fabric's interleave parameters so the
	// hot path maps an address to its shard without an interface call.
	nshards, gran uint64

	// shards holds the per-fabric-shard mutable state; sets is indexed
	// by set number, and set s is guarded by shards[(s/gran)%nshards].
	shards []cacheShard
	sets   [][]line
	// presence[s] is the cache's handle on fabric shard s's presence
	// directory, told of every valid↔invalid flip (see setStateTx).
	presence []bus.Presence

	// stall is the running total of simulated bus time this cache's
	// processor spent on its own transactions — the one definition of
	// Stats.StallNanos, kept outside the shard locks so the engines can
	// read it per reference without locking anything.
	stall atomic.Int64
	// snoopEpoch counts directory changes made on behalf of other
	// masters (see SnoopEpoch).
	snoopEpoch atomic.Uint64
	// scratch is the processor side's reusable transaction.
	scratch txScratch
}

// cacheShard is one fabric shard's slice of the cache: the directory
// lock for the sets homed there, plus the LRU clock and counters those
// sets use (sharding them keeps shard sweeps write-independent).
type cacheShard struct {
	mu    sync.Mutex
	clock uint64
	stats Stats
	// recovery is the BS recovery push's reusable transaction; Recover
	// holds mu across the push, which serialises its users.
	recovery txScratch
}

// Stats counts cache-side activity.
type Stats struct {
	// Processor-side.
	Reads, Writes           int64
	ReadHits, WriteHits     int64
	ReadMisses, WriteMisses int64
	WriteUpgrades           int64 // write hits that needed the bus (S/O)
	Passes, Flushes         int64
	Replacements            int64
	DirtyEvictions          int64
	// Bus-side (snooped).
	SnoopHits             int64
	InvalidationsReceived int64
	UpdatesReceived       int64
	InterventionsSupplied int64
	WritesCaptured        int64
	AbortsIssued          int64
	// StallNanos is simulated time this cache's processor spent on bus
	// transactions it issued (the Stall counter at snapshot time).
	StallNanos int64
	// Transitions counts line state changes, indexed [from][to] in
	// core.State order. Identity transitions (a Table 1/2 action that
	// re-enters the current state) are not recorded; installs appear
	// as Invalid→X and invalidations as X→Invalid.
	Transitions [5][5]int64
}

// Add accumulates other into s, field by field — including the
// transition matrix — so aggregation code cannot silently drop a
// counter when one is added here.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadHits += other.ReadHits
	s.WriteHits += other.WriteHits
	s.ReadMisses += other.ReadMisses
	s.WriteMisses += other.WriteMisses
	s.WriteUpgrades += other.WriteUpgrades
	s.Passes += other.Passes
	s.Flushes += other.Flushes
	s.Replacements += other.Replacements
	s.DirtyEvictions += other.DirtyEvictions
	s.SnoopHits += other.SnoopHits
	s.InvalidationsReceived += other.InvalidationsReceived
	s.UpdatesReceived += other.UpdatesReceived
	s.InterventionsSupplied += other.InterventionsSupplied
	s.WritesCaptured += other.WritesCaptured
	s.AbortsIssued += other.AbortsIssued
	s.StallNanos += other.StallNanos
	for from := range s.Transitions {
		for to := range s.Transitions[from] {
			s.Transitions[from][to] += other.Transitions[from][to]
		}
	}
}

// home maps an address to the fabric shard that serialises it — and
// therefore to the cacheShard guarding its set.
func (c *Cache) home(addr bus.Addr) int {
	if c.nshards == 1 {
		return 0
	}
	return int((uint64(addr) / c.gran) % c.nshards)
}

// shard returns the cacheShard guarding addr's set.
func (c *Cache) shard(addr bus.Addr) *cacheShard { return &c.shards[c.home(addr)] }

// setState records a state change on a line, tagging the emitted
// event with why it happened. Callers hold sh.mu, where sh guards
// l.addr.
func (c *Cache) setState(sh *cacheShard, l *line, next core.State, cause string) {
	c.setStateTx(sh, l, next, cause, 0)
}

// setStateTx is setState with the causing bus transaction's id, so the
// coherence analyzer can group a write with the fan-out of state
// changes it triggered (txid 0 = no bus transaction: a silent local
// transition).
func (c *Cache) setStateTx(sh *cacheShard, l *line, next core.State, cause string, txid uint64) {
	if l.state == next {
		return
	}
	if l.state.Valid() != next.Valid() {
		c.presence[c.home(l.addr)].Note(l.addr, next.Valid())
	}
	sh.stats.Transitions[l.state][next]++
	if rec := c.obs; rec != nil {
		rec.Emit(obs.Event{
			TS: rec.Clock(), Kind: obs.KindState, Bus: c.bus.SegmentID(l.addr), Proc: c.id,
			Addr: uint64(l.addr), From: l.state.Letter(), To: next.Letter(), Cause: cause,
			Proto: c.policyFor(l.addr).Name(), TxID: txid,
		})
	}
	l.state = next
}

// snoopCause names the Table 2 column a snooped transaction presented,
// for the Cause of the resulting state event — distinguishing an
// invalidation received from a read-for-ownership (CA+IM) from one
// received from a plain write (IM) or a broadcast write (IM+BC).
func snoopCause(tx *bus.Transaction) string {
	if tx.Cmd == bus.CmdClean {
		return "snoop-clean"
	}
	switch tx.Event() {
	case core.BusCacheRead:
		return "snoop-cache-read"
	case core.BusCacheRFO:
		return "snoop-cache-rfo"
	case core.BusPlainRead:
		return "snoop-read"
	case core.BusCacheBroadcastWrite:
		return "snoop-cache-bcast-write"
	case core.BusPlainWrite:
		return "snoop-write"
	case core.BusPlainBroadcastWrite:
		return "snoop-bcast-write"
	}
	return "snoop"
}

// noteStall accounts simulated bus time this cache's processor spent
// on a transaction it issued, and emits the stall span.
func (c *Cache) noteStall(addr bus.Addr, cost int64) {
	c.stall.Add(cost)
	if rec := c.obs; rec != nil {
		// Split-mode stalls include off-bus time, which can exceed the
		// occupancy clock's advance; clamp the span start at 0.
		ts := rec.Clock() - cost
		if ts < 0 {
			ts = 0
		}
		rec.Emit(obs.Event{
			TS: ts, Dur: cost, Kind: obs.KindStall,
			Bus: c.bus.SegmentID(addr), Proc: c.id, Addr: uint64(addr),
		})
	}
}

// lockAll takes every shard lock in shard order (whole-directory
// operations: Stats, StateCensus, ForEachLine). The matching
// unlockAll releases them.
func (c *Cache) lockAll() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *Cache) unlockAll() {
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// StateCensus returns the number of valid lines per state — the
// occupancy distribution the Archibald–Baer style reports use.
func (c *Cache) StateCensus() map[core.State]int {
	c.lockAll()
	defer c.unlockAll()
	census := make(map[core.State]int)
	for _, set := range c.sets {
		for i := range set {
			if set[i].state.Valid() {
				census[set[i].state]++
			}
		}
	}
	return census
}

// checkLayout validates a cache geometry against a fabric's interleave
// parameters: every bus-tenure sequence the cache issues (miss fill +
// victim flush, RMW, recovery push) must stay on one shard, which
// holds exactly when each set is homed on a single shard — Sets must
// be a multiple of granularity × shards. The sector cache indexes by
// tag, so it passes sets = Sets and granularity in tag units.
func checkLayout(kind string, sets int, f bus.Fabric, granularity int) {
	n := f.Shards()
	if n <= 1 {
		return
	}
	if granularity < 1 || sets%(granularity*n) != 0 {
		panic(fmt.Sprintf(
			"cache: %s with %d sets cannot interleave over %d shards at granularity %d (sets must be a multiple of granularity × shards so each set is homed on one shard)",
			kind, sets, n, granularity))
	}
}

// New creates a cache and attaches it to the fabric as a snooper (on
// every shard). The id must be unique among all bus masters.
func New(id int, b bus.Fabric, policy core.Policy, cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %d sets × %d ways", cfg.Sets, cfg.Ways))
	}
	checkLayout("cache", cfg.Sets, b, b.Granularity())
	c := &Cache{
		id: id, bus: b, policy: policy, cfg: cfg, obs: b.Recorder(),
		nshards: uint64(b.Shards()), gran: uint64(b.Granularity()),
	}
	c.shards = make([]cacheShard, c.nshards)
	c.presence = make([]bus.Presence, c.nshards)
	// One backing array for every set: a single allocation at setup.
	ways := make([]line, cfg.Sets*cfg.Ways)
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = ways[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	b.Attach(c)
	return c
}

// ID returns the cache's bus master id.
func (c *Cache) ID() int { return c.id }

// TrackPresence implements bus.Holder: the cache keeps p, and can hold
// Ways lines in each of the Sets/shards sets homed on p's shard.
func (c *Cache) TrackPresence(p bus.Presence) int {
	c.presence[p.Shard()] = p
	return c.cfg.Sets / int(c.nshards) * c.cfg.Ways
}

// LineSize returns the system line size the cache operates on.
func (c *Cache) LineSize() int { return c.bus.LineSize() }

// Policy returns the protocol the cache runs.
func (c *Cache) Policy() core.Policy { return c.policy }

// Stats returns a snapshot of the counters, summed over shards.
func (c *Cache) Stats() Stats {
	c.lockAll()
	defer c.unlockAll()
	var total Stats
	for i := range c.shards {
		total.Add(c.shards[i].stats)
	}
	total.StallNanos = c.stall.Load()
	return total
}

// Stall returns the cumulative simulated bus time this cache's
// processor has spent on its own transactions: an O(1) lock-free read,
// safe from any goroutine, equal to Stats().StallNanos.
func (c *Cache) Stall() int64 { return c.stall.Load() }

// SnoopEpoch counts the directory changes other masters' transactions
// have made in this cache: every snoop Commit on a hit and every BS
// recovery push. The processor side never moves it. While it stands
// still, and the cache issues nothing itself, WouldUseBus keeps giving
// the same answer for a pure policy (see PurePrediction). Lock-free,
// safe from any goroutine.
func (c *Cache) SnoopEpoch() uint64 { return c.snoopEpoch.Load() }

// PurePrediction reports whether WouldUseBus is free of side effects:
// the cache's policy, and every region's, chooses purely
// (core.PureChooser).
func (c *Cache) PurePrediction() bool {
	if !core.PureLocalChoice(c.policy) {
		return false
	}
	for _, r := range c.cfg.Regions {
		if !core.PureLocalChoice(r.Policy) {
			return false
		}
	}
	return true
}

// setFor maps a line address to its set index.
func (c *Cache) setFor(addr bus.Addr) int {
	return int(uint64(addr) % uint64(c.cfg.Sets))
}

// lookup returns the way holding addr, or nil. Callers hold the shard
// lock guarding addr.
func (c *Cache) lookup(addr bus.Addr) *line {
	set := c.sets[c.setFor(addr)]
	for i := range set {
		if set[i].state.Valid() && set[i].addr == addr {
			return &set[i]
		}
	}
	return nil
}

// touch updates the LRU clock for a line. Callers hold sh.mu, where sh
// guards l.addr (LRU only ever compares lines of one set, and a set is
// homed on one shard, so a per-shard clock orders everything it needs
// to).
func (c *Cache) touch(sh *cacheShard, l *line) {
	sh.clock++
	l.lastUse = sh.clock
}

// victim returns the way to fill for addr: an invalid way if one
// exists, else the least recently used. Callers hold addr's shard
// lock. The victim shares addr's set, hence its home shard — a miss
// fill and its eviction push stay on the bus tenure already held.
func (c *Cache) victim(addr bus.Addr) *line {
	set := c.sets[c.setFor(addr)]
	var lru *line
	for i := range set {
		if !set[i].state.Valid() {
			return &set[i]
		}
		if lru == nil || set[i].lastUse < lru.lastUse {
			lru = &set[i]
		}
	}
	return lru
}

// State returns the cache's state for a line (Invalid if absent).
func (c *Cache) State(addr bus.Addr) core.State {
	sh := c.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if l := c.lookup(addr); l != nil {
		return l.state
	}
	return core.Invalid
}

// Contains reports whether the cache holds the line in any valid state.
func (c *Cache) Contains(addr bus.Addr) bool { return c.State(addr).Valid() }

// ForEachLine visits every valid line with a copy of its data (used by
// the consistency checker). The cache is locked for the duration.
func (c *Cache) ForEachLine(fn func(addr bus.Addr, s core.State, data []byte)) {
	c.lockAll()
	defer c.unlockAll()
	for _, set := range c.sets {
		for i := range set {
			if set[i].state.Valid() {
				fn(set[i].addr, set[i].state, append([]byte(nil), set[i].data...))
			}
		}
	}
}

// recentlyUsed reports whether l is not the least recently used valid
// line of its set (the §5.2 notion of "quite recently used": the MRU
// element of a two-element set is recent, the LRU element is nearing
// replacement). Callers hold l.addr's shard lock.
func (c *Cache) recentlyUsed(l *line) bool {
	set := c.sets[c.setFor(l.addr)]
	for i := range set {
		if set[i].state.Valid() && set[i].lastUse < l.lastUse {
			return true
		}
	}
	return false
}

// WouldUseBus predicts whether an access would issue a bus transaction
// (a miss, or a write hit that must announce itself). The deterministic
// simulation engine uses it to order processors in time before
// executing their references. Two things make the answer a snapshot
// rather than a property of the access:
//   - It asks the policy's ChooseLocal, so for a policy that is not
//     pure (random, round-robin: see core.PureChooser) every call
//     consumes a choice and changes what the policy picks later.
//   - It reads the directory, which other masters' transactions change.
//     A snoop can turn a bus access into a hit: an Owned line whose
//     owner serves (DI) an uncached board's read with no other holder
//     asserting CH becomes Modified, and a write to it no longer needs
//     the bus. SnoopEpoch moves whenever such a change can have
//     happened.
func (c *Cache) WouldUseBus(addr bus.Addr, write bool) bool {
	sh := c.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	event := core.LocalRead
	if write {
		event = core.LocalWrite
	}
	state := core.Invalid
	if l := c.lookup(addr); l != nil {
		state = l.state
	} else if !write {
		// A miss also needs the bus to evict a dirty victim; either
		// way it is a bus access.
		return true
	}
	action, ok := c.policyFor(addr).ChooseLocal(state, event)
	return !ok || action.NeedsBus()
}

// word reads a 32-bit little-endian word from a line buffer.
func word(data []byte, idx int) uint32 {
	return binary.LittleEndian.Uint32(data[idx*4:])
}

// putWord writes a 32-bit little-endian word into a line buffer.
func putWord(data []byte, idx int, v uint32) {
	binary.LittleEndian.PutUint32(data[idx*4:], v)
}

func (c *Cache) checkWord(wordIdx int) error {
	if wordIdx < 0 || (wordIdx+1)*4 > c.bus.LineSize() {
		return fmt.Errorf("cache %d: word %d outside %d-byte line", c.id, wordIdx, c.bus.LineSize())
	}
	return nil
}
