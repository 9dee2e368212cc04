package hierarchy

import (
	"strings"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/protocols"
	"futurebus/internal/workload"
)

func smallConfig(clusters, procs int) Config {
	return Config{
		Clusters:        clusters,
		ProcsPerCluster: procs,
		CacheSets:       8,
		CacheWays:       2,
		Shadow:          true,
	}
}

func mustNew(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// abGens builds per-processor generators; shared lines are shared
// ACROSS clusters, exercising the global level.
func abGens(t *testing.T, sys *System, pShared float64, seed uint64) [][]workload.Generator {
	t.Helper()
	out := make([][]workload.Generator, len(sys.Clusters))
	proc := 0
	for ci, cl := range sys.Clusters {
		for range cl.Caches {
			g, err := workload.NewModel(workload.Model{
				Proc:         proc,
				SharedLines:  24,
				PrivateLines: 32,
				WordsPerLine: sys.Global.LineSize() / 4,
				PShared:      pShared,
				PWrite:       0.3,
				Locality:     0.3,
			}, seed)
			if err != nil {
				t.Fatal(err)
			}
			out[ci] = append(out[ci], g)
			proc++
		}
	}
	return out
}

// TestBasicCrossClusterFlow walks one line across clusters by hand.
func TestBasicCrossClusterFlow(t *testing.T) {
	sys := mustNew(t, smallConfig(2, 2))
	a := sys.Proc(0, 0)
	b := sys.Proc(1, 0)
	const line = bus.Addr(0x100)

	// Cluster 0 writes: miss → Read>Write; the bridge's CH pins the
	// line to S, the broadcast write makes the writer O.
	if err := a.WriteWord(line, 0, 0xAA); err != nil {
		t.Fatal(err)
	}
	if st := a.State(line); st != core.Owned {
		t.Fatalf("writer state %s (cluster caches must never hold E/M)", st)
	}
	// The write was absorbed: bridge 0 owns the line globally.
	if st := sys.Clusters[0].Bridge.Store().State(line); !st.OwnedCopy() {
		t.Fatalf("bridge 0 state %s, want owned", st)
	}

	// Cluster 1 reads: its bridge fetches globally; bridge 0 intervenes.
	v, err := b.ReadWord(line, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAA {
		t.Fatalf("cross-cluster read got %#x", v)
	}
	if st := sys.Clusters[1].Bridge.Store().State(line); !st.Valid() {
		t.Fatalf("bridge 1 state %s", st)
	}

	// Cluster 1 writes: bridge 1 takes global M; bridge 0 must be
	// invalidated AND must clear cluster 0's copies synchronously.
	if err := b.WriteWord(line, 1, 0xBB); err != nil {
		t.Fatal(err)
	}
	if sys.Clusters[0].Bridge.Store().Contains(line) {
		t.Fatal("bridge 0 still holds the line after a foreign write")
	}
	if a.Contains(line) {
		t.Fatal("cluster 0 cache still holds the line (stale copy!)")
	}

	// Cluster 0 reads back: fresh fetch sees both words.
	if v, err := a.ReadWord(line, 1); err != nil || v != 0xBB {
		t.Fatalf("read back %#x, %v", v, err)
	}
	if v, err := a.ReadWord(line, 0); err != nil || v != 0xAA {
		t.Fatalf("read back word0 %#x, %v", v, err)
	}

	if err := sys.MustPass(); err != nil {
		t.Fatal(err)
	}
}

// TestBridgeReadLineOwnership: the bridge honours the bus.MemoryPort
// contract — the line its ReadLine returns belongs to the caller, on a
// store hit, on a global fetch from memory and on one another
// cluster's bridge supplies by intervention alike, so the local bus may
// hand it on and mutate it without touching any store or global memory.
func TestBridgeReadLineOwnership(t *testing.T) {
	sys := mustNew(t, smallConfig(2, 1))
	cl, other := sys.Clusters[0], sys.Clusters[1]
	const written, fetched, remote = bus.Addr(0x40), bus.Addr(0x48), bus.Addr(0x50)
	if err := cl.Caches[0].WriteWord(written, 0, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := other.Caches[0].WriteWord(remote, 0, 0xBB); err != nil {
		t.Fatal(err)
	}
	// The port is called with the bus held (one arbiter for the tree).
	cl.Local.Acquire(written, -1)
	defer cl.Local.Release(written)
	for _, addr := range []bus.Addr{written, fetched, remote} {
		var ownerCopy []byte
		if addr == remote {
			ownerCopy = other.Bridge.ReadLine(addr)
		}
		line := cl.Bridge.ReadLine(addr)
		want := append([]byte(nil), line...)
		for i := range line {
			line[i] = 0xEE
		}
		if again := cl.Bridge.ReadLine(addr); string(again) != string(want) {
			t.Errorf("%#x: mutating ReadLine's result changed the bridge store: %x, want %x", uint64(addr), again, want)
		}
		if mem := sys.Memory.Peek(addr); mem[1] == 0xEE {
			t.Errorf("%#x: mutating ReadLine's result changed global memory: %x", uint64(addr), mem)
		}
		if ownerCopy != nil {
			if got := other.Bridge.ReadLine(addr); string(got) != string(ownerCopy) {
				t.Errorf("%#x: mutating ReadLine's result changed the intervening owner: %x, want %x", uint64(addr), got, ownerCopy)
			}
		}
	}
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestIntraClusterSharingStaysLocal: two caches in one cluster sharing
// a line generate no global traffic beyond the initial fetch.
func TestIntraClusterSharingStaysLocal(t *testing.T) {
	sys := mustNew(t, smallConfig(2, 2))
	a, b := sys.Proc(0, 0), sys.Proc(0, 1)
	const line = bus.Addr(0x200)

	if err := a.WriteWord(line, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadWord(line, 0); err != nil {
		t.Fatal(err)
	}
	globalBefore := sys.Global.Stats().Transactions
	// A ping-pong burst inside the cluster.
	for i := 0; i < 50; i++ {
		if err := a.WriteWord(line, 0, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReadWord(line, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteWord(line, 1, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast writes inside the cluster reach the bridge (its copy
	// must stay current) but the bridge holds global M after the first
	// absorb, so nothing else appears on the global bus.
	globalAfter := sys.Global.Stats().Transactions
	if grew := globalAfter - globalBefore; grew != 0 {
		t.Errorf("intra-cluster sharing leaked %d global transactions", grew)
	}
	if err := sys.MustPass(); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyWorkloadConsistent: the full two-level machine stays
// consistent under a mixed shared workload.
func TestHierarchyWorkloadConsistent(t *testing.T) {
	sys := mustNew(t, smallConfig(3, 2))
	if err := Run(sys, abGens(t, sys, 0.4, 11), 1500); err != nil {
		t.Fatal(err)
	}
	st := sys.CollectStats()
	if st.LocalTransactions == 0 || st.GlobalTransactions == 0 {
		t.Errorf("stats: %+v", st)
	}
	// The tree's point: local work dominates global work.
	if st.LocalTransactions <= st.GlobalTransactions {
		t.Errorf("local %d not above global %d", st.LocalTransactions, st.GlobalTransactions)
	}
}

// TestHierarchyConcurrentConsistent: goroutine per processor across the
// tree (run with -race).
func TestHierarchyConcurrentConsistent(t *testing.T) {
	sys := mustNew(t, smallConfig(2, 2))
	if err := RunConcurrent(sys, abGens(t, sys, 0.4, 23), 1000); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPolicyValidation: invalidate-style protocols are rejected
// for clusters.
func TestClusterPolicyValidation(t *testing.T) {
	cfg := smallConfig(1, 1)
	for _, bad := range []string{"moesi-invalidate", "berkeley", "illinois", "moesi"} {
		cfg.ClusterProtocol = bad
		if _, err := New(cfg); err == nil {
			t.Errorf("cluster protocol %q accepted", bad)
		}
	}
	for _, good := range []string{"moesi-update", "dragon"} {
		cfg.ClusterProtocol = good
		if _, err := New(cfg); err != nil {
			t.Errorf("cluster protocol %q rejected: %v", good, err)
		}
	}
}

// TestBridgeInclusionEviction: when the bridge store evicts a line, the
// cluster's copies go with it.
func TestBridgeInclusionEviction(t *testing.T) {
	cfg := smallConfig(1, 1)
	cfg.BridgeSets = 2 // tiny bridge: 2 sets × 4 ways
	cfg.BridgeWays = 4
	cfg.CacheSets = 8
	cfg.CacheWays = 2
	sys := mustNew(t, cfg)
	c := sys.Proc(0, 0)

	// Touch more lines than one bridge set holds; all map to bridge
	// set 0 (addresses are multiples of 2 = BridgeSets).
	lines := []bus.Addr{0, 2, 4, 6, 8}
	for _, ln := range lines {
		if err := c.WriteWord(ln, 0, uint32(ln)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
	inclusions := sys.Clusters[0].Bridge.Stats().Inclusions
	if inclusions == 0 {
		t.Fatal("no inclusion evictions despite bridge pressure")
	}
	if err := sys.MustPass(); err != nil {
		t.Fatal(err)
	}
	// The evicted lines' data must still be correct when re-read.
	for _, ln := range lines {
		v, err := c.ReadWord(ln, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(ln)+1 {
			t.Fatalf("line %#x = %d after inclusion eviction", uint64(ln), v)
		}
	}
}

// TestClusterCheckerDetectsStaleCopy: corrupting a bridge line behind
// the system's back trips the currency invariant.
func TestClusterCheckerDetectsStaleCopy(t *testing.T) {
	sys := mustNew(t, smallConfig(1, 1))
	c := sys.Proc(0, 0)
	if err := c.WriteWord(3, 0, 7); err != nil {
		t.Fatal(err)
	}
	// Absorb a divergent line into the bridge directly.
	sys.Global.Acquire(3, -1)
	err := sys.Clusters[0].Bridge.Store().AbsorbLineHeld(3, make([]byte, sys.Global.LineSize()))
	sys.Global.Release(3)
	if err != nil {
		t.Fatal(err)
	}
	vs := sys.CheckClusters()
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "bridge stale") {
			found = true
		}
	}
	if !found {
		t.Errorf("stale bridge copy not detected: %v", vs)
	}
}

// TestMixedClusterProtocols: different clusters may run different
// update-style members; the tree stays consistent at both levels.
func TestMixedClusterProtocols(t *testing.T) {
	cfg := smallConfig(2, 2)
	cfg.ClusterProtocols = []string{"dragon", "moesi-update"}
	sys := mustNew(t, cfg)
	if err := Run(sys, abGens(t, sys, 0.4, 31), 1200); err != nil {
		t.Fatal(err)
	}
	// A wrong-length protocol list is rejected.
	cfg.ClusterProtocols = []string{"dragon"}
	if _, err := New(cfg); err == nil {
		t.Error("mismatched cluster protocol list accepted")
	}
}

// TestHierarchyAccessors: stats plumbing and the global checker.
func TestHierarchyAccessors(t *testing.T) {
	sys := mustNew(t, smallConfig(2, 1))
	if err := Run(sys, abGens(t, sys, 0.3, 5), 400); err != nil {
		t.Fatal(err)
	}
	st := sys.CollectStats()
	if st.GlobalFetches == 0 || st.Absorbs == 0 {
		t.Errorf("bridge stats empty: %+v", st)
	}
	bs := sys.Clusters[0].Bridge.Stats()
	if bs.LocalFills+bs.GlobalFetches == 0 {
		t.Errorf("bridge fill stats empty: %+v", bs)
	}
	if err := sys.GlobalChecker().MustPass(); err != nil {
		t.Fatal(err)
	}
	if sys.Proc(1, 0) != sys.Clusters[1].Caches[0] {
		t.Error("Proc accessor wrong")
	}
	if len(sys.Caches()) != 2 {
		t.Errorf("Caches() = %d", len(sys.Caches()))
	}
	// Generator count mismatches are rejected by both drivers.
	if err := Run(sys, nil, 1); err == nil {
		t.Error("mismatched generators accepted")
	}
	if err := RunConcurrent(sys, nil, 1); err == nil {
		t.Error("mismatched generators accepted (concurrent)")
	}
}

// TestHierarchyConfigErrors: invalid shapes are rejected.
func TestHierarchyConfigErrors(t *testing.T) {
	if _, err := New(Config{Clusters: 0, ProcsPerCluster: 1}); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := New(Config{Clusters: 1, ProcsPerCluster: 0}); err == nil {
		t.Error("zero processors accepted")
	}
}

// ownOnRead installs every read miss as Owned. An O snooper keeps its
// copy, so a second reader of a line makes a second owner.
type ownOnRead struct{ core.Policy }

func (p ownOnRead) ChooseLocal(s core.State, e core.LocalEvent) (core.LocalAction, bool) {
	if s == core.Invalid && e == core.LocalRead {
		a, err := core.ParseLocalAction("O,CA,R")
		return a, err == nil
	}
	return p.Policy.ChooseLocal(s, e)
}

// TestClusterCheckerDetectsDuplicateOwners: two cluster caches owning
// two lines give one single-owner violation per line, in address order.
func TestClusterCheckerDetectsDuplicateOwners(t *testing.T) {
	sys := mustNew(t, smallConfig(1, 1))
	cl := sys.Clusters[0]
	base, err := protocols.New("moesi-update")
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		c := cache.New(id, cl.Local, ownOnRead{base}, cache.Config{Sets: 8, Ways: 2})
		cl.Caches = append(cl.Caches, c)
		for _, addr := range []bus.Addr{9, 2} {
			if _, err := c.ReadWord(addr, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []string
	for _, v := range sys.CheckClusters() {
		if strings.Contains(v.Reason, string(core.InvSingleOwner)) {
			got = append(got, v.String())
		}
	}
	want := []string{
		"cluster 0 line 0x2: single-owner: 2 cluster caches own the line",
		"cluster 0 line 0x9: single-owner: 2 cluster caches own the line",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("single-owner violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
