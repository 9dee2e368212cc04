package cache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// SectorCache is the §5.1 sector organisation ([Hill84]): one address
// tag covers a SECTOR of several transfer sub-sectors, and — exactly as
// the paper concludes — "consistency status … [is] necessarily
// associated with the transfer subsector, rather than the address
// sector". Each sub-sector is one system line: it is fetched,
// broadcast, invalidated and owned independently, so the snooping side
// is indistinguishable from a plain cache; what changes is allocation
// (tags are per sector, so a sector miss evicts a whole resident
// sector) and tag economy (a quarter of the tags for 4 sub-sectors).
//
// On an interleaved fabric the directory is guarded per shard, like
// Cache: the fabric's granularity must be a multiple of SubSectors so
// a whole sector (and hence a whole set of the sector directory) is
// homed on one shard.
type SectorCache struct {
	id     int
	bus    bus.Fabric
	policy core.Policy
	cfg    SectorConfig
	// obs is inherited from the fabric (see Cache).
	obs *obs.Recorder
	// nshards/gran mirror the fabric's interleave parameters (gran in
	// lines, as the fabric counts).
	nshards, gran uint64

	// shards holds per-fabric-shard state; sets[tag%Sets] is guarded by
	// the shard homing that set's sectors.
	shards []sectorShard
	sets   [][]sectorEntry
	// presence[s] is the handle on shard s's presence directory (see
	// Cache.presence).
	presence []bus.Presence

	// stall is the running stall total (see Cache.stall).
	stall atomic.Int64
	// snoopEpoch counts snoop-side directory changes (see
	// Cache.SnoopEpoch).
	snoopEpoch atomic.Uint64
	// scratch is the processor side's reusable transaction (see
	// txScratch).
	scratch txScratch
}

// sectorShard is one fabric shard's slice of the sector cache (see
// cacheShard).
type sectorShard struct {
	mu    sync.Mutex
	clock uint64
	stats SectorStats
	// recovery is the BS recovery push's reusable transaction (see
	// cacheShard.recovery).
	recovery txScratch
}

// SectorConfig parameterises a sector cache.
type SectorConfig struct {
	// Sets and Ways organise the SECTOR directory; capacity is
	// Sets × Ways × SubSectors × line size.
	Sets, Ways int
	// SubSectors is the number of transfer sub-sectors (system lines)
	// per address sector.
	SubSectors int
	// OnWrite is the golden-image hook (see Config.OnWrite).
	OnWrite func(addr bus.Addr, wordIdx int, val uint32)
}

// SectorStats counts sector-cache activity.
type SectorStats struct {
	Reads, Writes         int64
	ReadHits, WriteHits   int64
	SubMisses             int64 // sector present, sub-sector absent
	SectorMisses          int64 // no tag match: allocate a sector
	SectorEvictions       int64
	DirtySubEvictions     int64
	SnoopHits             int64
	InvalidationsReceived int64
	UpdatesReceived       int64
	InterventionsSupplied int64
	StallNanos            int64
	// Transitions counts sub-sector state changes, indexed [from][to]
	// in core.State order (see Stats.Transitions).
	Transitions [5][5]int64
}

// Add accumulates other into s (per-shard merge).
func (s *SectorStats) Add(other SectorStats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadHits += other.ReadHits
	s.WriteHits += other.WriteHits
	s.SubMisses += other.SubMisses
	s.SectorMisses += other.SectorMisses
	s.SectorEvictions += other.SectorEvictions
	s.DirtySubEvictions += other.DirtySubEvictions
	s.SnoopHits += other.SnoopHits
	s.InvalidationsReceived += other.InvalidationsReceived
	s.UpdatesReceived += other.UpdatesReceived
	s.InterventionsSupplied += other.InterventionsSupplied
	s.StallNanos += other.StallNanos
	for from := range s.Transitions {
		for to := range s.Transitions[from] {
			s.Transitions[from][to] += other.Transitions[from][to]
		}
	}
}

// AsStats converts sector counters to the comparable plain-cache view:
// misses are derived (Reads−ReadHits), sector evictions map to
// Replacements, and dirty sub-sector evictions to DirtyEvictions.
// Counters with no plain-cache analogue (SubMisses vs SectorMisses)
// fold into the derived miss totals.
func (s SectorStats) AsStats() Stats {
	return Stats{
		Reads:                 s.Reads,
		Writes:                s.Writes,
		ReadHits:              s.ReadHits,
		WriteHits:             s.WriteHits,
		ReadMisses:            s.Reads - s.ReadHits,
		WriteMisses:           s.Writes - s.WriteHits,
		Replacements:          s.SectorEvictions,
		DirtyEvictions:        s.DirtySubEvictions,
		SnoopHits:             s.SnoopHits,
		InvalidationsReceived: s.InvalidationsReceived,
		UpdatesReceived:       s.UpdatesReceived,
		InterventionsSupplied: s.InterventionsSupplied,
		StallNanos:            s.StallNanos,
		Transitions:           s.Transitions,
	}
}

type sub struct {
	state core.State
	data  []byte
}

type sectorEntry struct {
	valid   bool
	tag     uint64 // sector number (line address / SubSectors)
	subs    []sub
	lastUse uint64
}

// NewSector creates a sector cache and attaches it as a snooper on
// every fabric shard.
func NewSector(id int, b bus.Fabric, policy core.Policy, cfg SectorConfig) *SectorCache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.SubSectors <= 0 {
		panic(fmt.Sprintf("cache: invalid sector geometry %d×%d×%d", cfg.Sets, cfg.Ways, cfg.SubSectors))
	}
	if b.Shards() > 1 && b.Granularity()%cfg.SubSectors != 0 {
		panic(fmt.Sprintf(
			"cache: sector size %d does not divide interleave granularity %d (a sector would span shards)",
			cfg.SubSectors, b.Granularity()))
	}
	// The sector directory indexes by tag, so the layout constraint is
	// in tag units: granularity/SubSectors tags per interleave run.
	checkLayout("sector cache", cfg.Sets, b, b.Granularity()/cfg.SubSectors)
	c := &SectorCache{
		id: id, bus: b, policy: policy, cfg: cfg, obs: b.Recorder(),
		nshards: uint64(b.Shards()), gran: uint64(b.Granularity()),
	}
	c.shards = make([]sectorShard, c.nshards)
	c.presence = make([]bus.Presence, c.nshards)
	c.sets = make([][]sectorEntry, cfg.Sets)
	for i := range c.sets {
		ways := make([]sectorEntry, cfg.Ways)
		for w := range ways {
			ways[w].subs = make([]sub, cfg.SubSectors)
		}
		c.sets[i] = ways
	}
	b.Attach(c)
	return c
}

// ID returns the bus master id.
func (c *SectorCache) ID() int { return c.id }

// TrackPresence implements bus.Holder: SubSectors lines in each of
// Ways sectors of the Sets/shards sets homed on p's shard.
func (c *SectorCache) TrackPresence(p bus.Presence) int {
	c.presence[p.Shard()] = p
	return c.cfg.Sets / int(c.nshards) * c.cfg.Ways * c.cfg.SubSectors
}

// home maps a line address to its fabric shard (see Cache.home).
func (c *SectorCache) home(addr bus.Addr) int {
	if c.nshards == 1 {
		return 0
	}
	return int((uint64(addr) / c.gran) % c.nshards)
}

// shard returns the sectorShard guarding addr's set.
func (c *SectorCache) shard(addr bus.Addr) *sectorShard { return &c.shards[c.home(addr)] }

func (c *SectorCache) lockAll() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
}

func (c *SectorCache) unlockAll() {
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Stats returns a snapshot of the counters, summed over shards.
func (c *SectorCache) Stats() SectorStats {
	c.lockAll()
	defer c.unlockAll()
	var total SectorStats
	for i := range c.shards {
		total.Add(c.shards[i].stats)
	}
	total.StallNanos = c.stall.Load()
	return total
}

// Stall returns the cumulative simulated bus stall (see Cache.Stall).
func (c *SectorCache) Stall() int64 { return c.stall.Load() }

// SnoopEpoch counts directory changes other masters' transactions have
// made in this cache (see Cache.SnoopEpoch).
func (c *SectorCache) SnoopEpoch() uint64 { return c.snoopEpoch.Load() }

// PurePrediction reports whether WouldUseBus is free of side effects
// (see Cache.PurePrediction).
func (c *SectorCache) PurePrediction() bool { return core.PureLocalChoice(c.policy) }

// noteStall accounts simulated bus time spent on a transaction this
// cache issued, and emits the stall span.
func (c *SectorCache) noteStall(addr bus.Addr, cost int64) {
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

// setSubState records a sub-sector state change, mirroring
// Cache.setStateTx: the transition matrix counts it and, when tracing
// is on, a KindState event carries the cause, protocol and causing
// transaction. Callers hold the shard lock guarding addr.
func (c *SectorCache) setSubState(sh *sectorShard, addr bus.Addr, s *sub, next core.State, cause string, txid uint64) {
	if s.state == next {
		return
	}
	if s.state.Valid() != next.Valid() {
		c.presence[c.home(addr)].Note(addr, next.Valid())
	}
	sh.stats.Transitions[s.state][next]++
	if rec := c.obs; rec != nil {
		rec.Emit(obs.Event{
			TS: rec.Clock(), Kind: obs.KindState, Bus: c.bus.SegmentID(addr), Proc: c.id,
			Addr: uint64(addr), From: s.state.Letter(), To: next.Letter(), Cause: cause,
			Proto: c.policy.Name(), TxID: txid,
		})
	}
	s.state = next
}

// sectorOf splits a line address into sector number and sub index.
func (c *SectorCache) sectorOf(addr bus.Addr) (uint64, int) {
	n := uint64(c.cfg.SubSectors)
	return uint64(addr) / n, int(uint64(addr) % n)
}

// lookup finds the resident sector entry for a line address (nil if the
// sector is absent). Callers hold addr's shard lock.
func (c *SectorCache) lookup(addr bus.Addr) (*sectorEntry, int) {
	tag, subIdx := c.sectorOf(addr)
	set := c.sets[tag%uint64(c.cfg.Sets)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i], subIdx
		}
	}
	return nil, subIdx
}

// subState returns the consistency state of a line (Invalid when the
// sector or sub-sector is absent). Callers hold addr's shard lock.
func (c *SectorCache) subState(addr bus.Addr) core.State {
	if e, si := c.lookup(addr); e != nil {
		return e.subs[si].state
	}
	return core.Invalid
}

// State reports the line's state (exported for tests and checkers).
func (c *SectorCache) State(addr bus.Addr) core.State {
	sh := c.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return c.subState(addr)
}

// ForEachLine visits every valid sub-sector as a line (so the standard
// consistency checker invariants apply unchanged).
func (c *SectorCache) ForEachLine(fn func(addr bus.Addr, s core.State, data []byte)) {
	c.lockAll()
	defer c.unlockAll()
	for _, set := range c.sets {
		for i := range set {
			if !set[i].valid {
				continue
			}
			for si := range set[i].subs {
				s := &set[i].subs[si]
				if s.state.Valid() {
					addr := bus.Addr(set[i].tag*uint64(c.cfg.SubSectors) + uint64(si))
					fn(addr, s.state, append([]byte(nil), s.data...))
				}
			}
		}
	}
}

// touch refreshes the sector's LRU position. Callers hold the shard
// lock guarding the sector (per-shard clocks order within a set, and a
// set is homed on one shard).
func (c *SectorCache) touch(sh *sectorShard, e *sectorEntry) {
	sh.clock++
	e.lastUse = sh.clock
}

// WouldUseBus predicts whether an access would issue a bus transaction
// (see Cache.WouldUseBus).
func (c *SectorCache) WouldUseBus(addr bus.Addr, write bool) bool {
	sh := c.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, si := c.lookup(addr)
	if e == nil || !e.subs[si].state.Valid() {
		return true
	}
	event := core.LocalRead
	if write {
		event = core.LocalWrite
	}
	action, ok := c.policy.ChooseLocal(e.subs[si].state, event)
	return !ok || action.NeedsBus()
}

// ReadWord performs a processor read of one word.
func (c *SectorCache) ReadWord(addr bus.Addr, wordIdx int) (uint32, error) {
	if err := c.checkWord(wordIdx); err != nil {
		return 0, err
	}
	sh := c.shard(addr)
	sh.mu.Lock()
	sh.stats.Reads++
	if e, si := c.lookup(addr); e != nil && e.subs[si].state.Valid() {
		sh.stats.ReadHits++
		c.touch(sh, e)
		v := word(e.subs[si].data, wordIdx)
		sh.mu.Unlock()
		return v, nil
	}
	sh.mu.Unlock()

	c.bus.Acquire(addr, c.id)
	defer c.bus.Release(addr)
	data, err := c.fillSub(addr, core.LocalRead)
	if err != nil {
		return 0, err
	}
	return word(data, wordIdx), nil
}

// WriteWord performs a processor write of one word.
func (c *SectorCache) WriteWord(addr bus.Addr, wordIdx int, val uint32) error {
	if err := c.checkWord(wordIdx); err != nil {
		return err
	}
	sh := c.shard(addr)
	sh.mu.Lock()
	sh.stats.Writes++
	if e, si := c.lookup(addr); e != nil && e.subs[si].state.Valid() {
		action, ok := c.policy.ChooseLocal(e.subs[si].state, core.LocalWrite)
		if !ok {
			st := e.subs[si].state
			sh.mu.Unlock()
			return fmt.Errorf("sector cache %d: no write action for state %s", c.id, st)
		}
		if !action.NeedsBus() {
			c.setSubState(sh, addr, &e.subs[si], action.Next.Resolve(false), "silent-write", 0)
			putWord(e.subs[si].data, wordIdx, val)
			c.touch(sh, e)
			sh.stats.WriteHits++
			c.note(addr, wordIdx, val)
			sh.mu.Unlock()
			return nil
		}
	}
	sh.mu.Unlock()

	c.bus.Acquire(addr, c.id)
	defer c.bus.Release(addr)
	return c.writeHeld(addr, wordIdx, val)
}

// writeHeld re-examines and writes with the bus held.
func (c *SectorCache) writeHeld(addr bus.Addr, wordIdx int, val uint32) error {
	sh := c.shard(addr)
	sh.mu.Lock()
	e, si := c.lookup(addr)
	if e == nil || !e.subs[si].state.Valid() {
		sh.mu.Unlock()
		return c.writeMissHeld(addr, wordIdx, val)
	}
	state := e.subs[si].state
	action, ok := c.policy.ChooseLocal(state, core.LocalWrite)
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("sector cache %d: no write action for state %s", c.id, state)
	}
	sh.stats.WriteHits++
	if !action.NeedsBus() {
		c.setSubState(sh, addr, &e.subs[si], action.Next.Resolve(false), "write-hit", 0)
		putWord(e.subs[si].data, wordIdx, val)
		c.touch(sh, e)
		c.note(addr, wordIdx, val)
		sh.mu.Unlock()
		return nil
	}
	sh.mu.Unlock()

	tx := c.scratch.load(bus.Transaction{MasterID: c.id, Signals: action.Assert, Addr: addr, Op: action.Op})
	if action.Op == core.BusWrite {
		tx.Partial = c.scratch.word(wordIdx, val)
	}
	res, err := c.bus.ExecuteHeld(tx)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, si = c.lookup(addr)
	if e == nil {
		return fmt.Errorf("sector cache %d: sector of %#x vanished during upgrade", c.id, uint64(addr))
	}
	c.setSubState(sh, addr, &e.subs[si], action.Next.Resolve(res.CH), "write-upgrade", res.TxID)
	putWord(e.subs[si].data, wordIdx, val)
	c.touch(sh, e)
	c.noteStall(addr, res.StallCost())
	c.note(addr, wordIdx, val)
	return nil
}

// writeMissHeld handles a write to an absent sub-sector.
func (c *SectorCache) writeMissHeld(addr bus.Addr, wordIdx int, val uint32) error {
	action, ok := c.policy.ChooseLocal(core.Invalid, core.LocalWrite)
	if !ok {
		return fmt.Errorf("sector cache %d: no write-miss action", c.id)
	}
	sh := c.shard(addr)
	switch action.Op {
	case core.BusRead: // read-for-modify
		if _, err := c.fillSubWith(addr, action); err != nil {
			return err
		}
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e, si := c.lookup(addr)
		if e == nil {
			return fmt.Errorf("sector cache %d: RFO fill of %#x vanished", c.id, uint64(addr))
		}
		putWord(e.subs[si].data, wordIdx, val)
		c.touch(sh, e)
		c.note(addr, wordIdx, val)
		return nil
	case core.BusReadThenWrite:
		if _, err := c.fillSub(addr, core.LocalRead); err != nil {
			return err
		}
		return c.writeHeld(addr, wordIdx, val)
	case core.BusWrite:
		// Write past the cache (write-through / non-allocating): a
		// partial word write, nothing retained.
		res, err := c.bus.ExecuteHeld(c.scratch.load(bus.Transaction{
			MasterID: c.id,
			Signals:  action.Assert,
			Addr:     addr,
			Op:       core.BusWrite,
			Partial:  c.scratch.word(wordIdx, val),
		}))
		if err != nil {
			return err
		}
		c.noteStall(addr, res.StallCost())
		c.note(addr, wordIdx, val)
		return nil
	default:
		return fmt.Errorf("sector cache %d: unsupported write-miss op %v", c.id, action.Op)
	}
}

// fillSub fetches one sub-sector using the policy's read-miss action.
func (c *SectorCache) fillSub(addr bus.Addr, event core.LocalEvent) ([]byte, error) {
	action, ok := c.policy.ChooseLocal(core.Invalid, event)
	if !ok {
		return nil, fmt.Errorf("sector cache %d: no miss action", c.id)
	}
	return c.fillSubWith(addr, action)
}

// fillSubWith fetches addr's sub-sector with the bus held: ensure the
// sector is resident (evicting a victim sector wholesale if needed),
// then transfer just the one sub-sector.
func (c *SectorCache) fillSubWith(addr bus.Addr, action core.LocalAction) ([]byte, error) {
	if action.Op != core.BusRead {
		return nil, fmt.Errorf("sector cache %d: miss action %s is not a read", c.id, action)
	}
	sh := c.shard(addr)
	sh.mu.Lock()
	e, _ := c.lookup(addr)
	if e == nil {
		sh.stats.SectorMisses++
		sh.mu.Unlock()
		if err := c.allocateSector(addr); err != nil {
			return nil, err
		}
	} else {
		sh.stats.SubMisses++
		sh.mu.Unlock()
	}

	res, err := c.bus.ExecuteHeld(c.scratch.load(bus.Transaction{MasterID: c.id, Signals: action.Assert, Addr: addr, Op: core.BusRead}))
	if err != nil {
		return nil, err
	}
	next := action.Next.Resolve(res.CH)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.noteStall(addr, res.StallCost())
	e, si := c.lookup(addr)
	if e == nil {
		return nil, fmt.Errorf("sector cache %d: allocated sector of %#x vanished", c.id, uint64(addr))
	}
	c.setSubState(sh, addr, &e.subs[si], next, "fill", res.TxID)
	e.subs[si].data = append(e.subs[si].data[:0], res.Data...)
	c.touch(sh, e)
	return res.Data, nil // fresh (see Cache.fillLineWith)
}

// allocateSector makes a sector entry resident for addr, evicting the
// LRU sector of the set if necessary — pushing every owned sub-sector
// back to memory first (this is the sector organisation's cost: one
// conflict can write back several lines). Called with the bus held and
// the shard unlocked. The victim shares addr's set and so its home
// shard (the fabric interleaves at whole-sector granularity), keeping
// every push on the bus tenure already held.
func (c *SectorCache) allocateSector(addr bus.Addr) error {
	tag, _ := c.sectorOf(addr)
	sh := c.shard(addr)
	sh.mu.Lock()
	set := c.sets[tag%uint64(c.cfg.Sets)]
	var victim *sectorEntry
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if victim == nil || set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	var pushes []bus.Transaction
	if victim.valid {
		sh.stats.SectorEvictions++
		for si := range victim.subs {
			s := &victim.subs[si]
			subAddr := bus.Addr(victim.tag*uint64(c.cfg.SubSectors) + uint64(si))
			cause := "evict-clean"
			if s.state.OwnedCopy() {
				flush, ok := c.policy.ChooseLocal(s.state, core.Flush)
				if !ok {
					sh.mu.Unlock()
					return fmt.Errorf("sector cache %d: no flush action for state %s", c.id, s.state)
				}
				sh.stats.DirtySubEvictions++
				cause = "evict"
				pushes = append(pushes, bus.Transaction{
					MasterID: c.id,
					Signals:  flush.Assert,
					Addr:     subAddr,
					Op:       core.BusWrite,
					Data:     append([]byte(nil), s.data...),
				})
			}
			c.setSubState(sh, subAddr, s, core.Invalid, cause, 0)
		}
	}
	victim.valid = true
	victim.tag = tag
	// Every sub-sector is Invalid already: an evicted sector's were
	// invalidated above, through setSubState and so the presence
	// directory, and an entry never used before starts Invalid.
	for si := range victim.subs {
		if victim.subs[si].data == nil {
			victim.subs[si].data = make([]byte, c.bus.LineSize())
		}
	}
	c.touch(sh, victim)
	sh.mu.Unlock()

	for i := range pushes {
		res, err := c.bus.ExecuteHeld(&pushes[i])
		if err != nil {
			return err
		}
		c.noteStall(pushes[i].Addr, res.StallCost())
	}
	return nil
}

func (c *SectorCache) checkWord(wordIdx int) error {
	if wordIdx < 0 || (wordIdx+1)*4 > c.bus.LineSize() {
		return fmt.Errorf("sector cache %d: word %d outside %d-byte line", c.id, wordIdx, c.bus.LineSize())
	}
	return nil
}

func (c *SectorCache) note(addr bus.Addr, wordIdx int, val uint32) {
	if c.cfg.OnWrite != nil {
		c.cfg.OnWrite(addr, wordIdx, val)
	}
}
