package cache

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

const testLineSize = 32

// rig builds a bus + memory + n caches, all running the given protocol
// factory.
func rig(t *testing.T, n int, factory func() core.Policy, cfg Config) (*bus.Bus, *memory.Memory, []*Cache) {
	t.Helper()
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	caches := make([]*Cache, n)
	for i := range caches {
		caches[i] = New(i, b, factory(), cfg)
	}
	return b, mem, caches
}

func smallCfg() Config { return Config{Sets: 4, Ways: 2} }

func mustRead(t *testing.T, c *Cache, addr bus.Addr, word int) uint32 {
	t.Helper()
	v, err := c.ReadWord(addr, word)
	if err != nil {
		t.Fatalf("cache %d read %#x: %v", c.ID(), uint64(addr), err)
	}
	return v
}

func mustWrite(t *testing.T, c *Cache, addr bus.Addr, word int, val uint32) {
	t.Helper()
	if err := c.WriteWord(addr, word, val); err != nil {
		t.Fatalf("cache %d write %#x: %v", c.ID(), uint64(addr), err)
	}
}

// TestGeometryPanics: zero sets or ways is a construction error.
func TestGeometryPanics(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	New(0, b, protocols.MOESI(), Config{Sets: 0, Ways: 2})
}

// TestLRUReplacement: filling a 2-way set three times evicts the least
// recently used line.
func TestLRUReplacement(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	// Three addresses mapping to set 0 (sets=4).
	a, b2, c3 := bus.Addr(0), bus.Addr(4), bus.Addr(8)
	mustRead(t, c, a, 0)
	mustRead(t, c, b2, 0)
	mustRead(t, c, a, 0) // a is now MRU
	mustRead(t, c, c3, 0)
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b2) {
		t.Error("LRU line survived")
	}
	if !c.Contains(c3) {
		t.Error("new line not installed")
	}
	if st := c.Stats(); st.Replacements != 1 {
		t.Errorf("replacements = %d", st.Replacements)
	}
}

// TestDirtyEvictionWritesBack: evicting an M line pushes it to memory
// first (Table 1 Flush: I,W with no CA).
func TestDirtyEvictionWritesBack(t *testing.T) {
	_, mem, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	mustWrite(t, c, 0, 0, 0xD1147)
	// Force eviction of line 0 (set 0) with two more set-0 lines.
	mustRead(t, c, 4, 0)
	mustRead(t, c, 8, 0)
	if c.Contains(0) {
		t.Fatal("line 0 not evicted")
	}
	if got := mem.Peek(0); got[0] != 0x47 {
		t.Errorf("memory after eviction = %x", got[:4])
	}
	if st := c.Stats(); st.DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d", st.DirtyEvictions)
	}
	// The data survives the eviction round trip.
	if v := mustRead(t, c, 0, 0); v != 0xD1147 {
		t.Errorf("read back %#x", v)
	}
}

// TestCleanEvictionSilent: evicting E/S lines causes no bus write.
func TestCleanEvictionSilent(t *testing.T) {
	b, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	mustRead(t, c, 0, 0)
	mustRead(t, c, 4, 0)
	mustRead(t, c, 8, 0) // evicts one clean line
	if st := b.Stats(); st.Writes != 0 {
		t.Errorf("clean eviction wrote to the bus: %+v", st)
	}
	if st := c.Stats(); st.DirtyEvictions != 0 {
		t.Errorf("dirty evictions = %d", st.DirtyEvictions)
	}
}

// TestWordBounds: out-of-line word indexes are rejected on both paths.
func TestWordBounds(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	if _, err := c.ReadWord(0, testLineSize/4); err == nil {
		t.Error("read beyond line accepted")
	}
	if err := c.WriteWord(0, -1, 0); err == nil {
		t.Error("negative word accepted")
	}
}

// TestWouldUseBus: hits predict no bus, misses and shared-write
// upgrades predict bus.
func TestWouldUseBus(t *testing.T) {
	_, _, cs := rig(t, 2, protocols.MOESI, smallCfg())
	c0, c1 := cs[0], cs[1]
	if !c0.WouldUseBus(0, false) {
		t.Error("miss predicted as hit")
	}
	mustRead(t, c0, 0, 0)
	if c0.WouldUseBus(0, false) {
		t.Error("read hit predicted as bus access")
	}
	// E-state write is silent.
	if c0.WouldUseBus(0, true) {
		t.Error("E write predicted as bus access")
	}
	// Shared write must announce itself.
	mustRead(t, c1, 0, 0)
	if c0.State(0) != core.Shared {
		t.Fatalf("state = %s", c0.State(0))
	}
	if !c0.WouldUseBus(0, true) {
		t.Error("S write predicted as silent")
	}
}

// TestSnoopEpochIntervention: a snoop can turn a predicted bus access
// into a hit, and SnoopEpoch says so. A Dragon cache holding a line
// Owned must announce a write. An uncached master's read of the line is
// served by the owner (DI); with no other holder asserting CH the owner
// resolves CH:O/M to Modified, and the same write is now silent. The
// cache's own traffic and a snoop that misses leave the epoch alone.
func TestSnoopEpochIntervention(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	owner := New(0, b, protocols.Dragon(), smallCfg())
	io := NewUncached(1, b, false, nil)
	const line = bus.Addr(3)
	owner.forceLine(line, core.Owned, make([]byte, testLineSize))
	if !owner.WouldUseBus(line, true) {
		t.Fatal("write to an Owned line predicted silent")
	}
	before := owner.SnoopEpoch()
	mustRead(t, owner, line+1, 0)
	if _, err := io.ReadWord(line+2, 0); err != nil {
		t.Fatal(err)
	}
	if got := owner.SnoopEpoch(); got != before {
		t.Fatalf("own miss and a missed snoop moved the epoch %d -> %d", before, got)
	}
	if _, err := io.ReadWord(line, 0); err != nil {
		t.Fatal(err)
	}
	if owner.State(line) != core.Modified {
		t.Fatalf("owner in %s after serving the uncached read alone, want M", owner.State(line))
	}
	if owner.SnoopEpoch() == before {
		t.Error("the intervention changed the directory but not the epoch")
	}
	if owner.WouldUseBus(line, true) {
		t.Error("write to the now-Modified line still predicted to need the bus")
	}
}

// TestForEachLine reports exactly the valid lines with copied data.
func TestForEachLine(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	mustWrite(t, c, 1, 0, 42)
	mustRead(t, c, 2, 0)
	seen := map[bus.Addr]core.State{}
	c.ForEachLine(func(addr bus.Addr, s core.State, data []byte) {
		seen[addr] = s
		data[0] = 0xFF // must not affect the cache
	})
	if len(seen) != 2 || seen[1] != core.Modified || seen[2] != core.Exclusive {
		t.Errorf("seen = %v", seen)
	}
	if v := mustRead(t, c, 1, 0); v != 42 {
		t.Errorf("ForEachLine aliased cache data: %d", v)
	}
}

// TestRecentlyUsed: the MRU line of a full set is recent, the LRU line
// is not (§5.2's replacement-status notion).
func TestRecentlyUsed(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	mustRead(t, c, 0, 0)
	mustRead(t, c, 4, 0) // line 0 is now LRU in set 0
	sh := c.shard(0)     // both lines sit in set 0, hence one shard
	sh.mu.Lock()
	lru := c.lookup(0)
	mru := c.lookup(4)
	if c.recentlyUsed(lru) {
		t.Error("LRU line reported recent")
	}
	if !c.recentlyUsed(mru) {
		t.Error("MRU line reported stale")
	}
	sh.mu.Unlock()
}

// TestStateQueries: State and Contains track the directory.
func TestStateQueries(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	if c.State(9) != core.Invalid || c.Contains(9) {
		t.Error("absent line not invalid")
	}
	mustRead(t, c, 9, 0)
	if c.State(9) != core.Exclusive {
		t.Errorf("state = %s", c.State(9))
	}
}
