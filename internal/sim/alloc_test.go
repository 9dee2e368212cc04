package sim

import (
	"runtime"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
	"futurebus/internal/workload"
)

// Deterministic allocation gates for the reference loop. Allocation
// counts do not depend on the host, so these are exact: a change that
// makes the hit path allocate, or adds a per-transaction allocation on
// the bus, fails here rather than only showing up as noise in a
// benchmark.

// skipUnderRace skips an allocation gate in a -race build.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
}

// repeatGen replays one reference forever.
type repeatGen struct{ ref workload.Ref }

func (g *repeatGen) Next() workload.Ref { return g.ref }

// engineStepAllocs returns the allocations of one deterministic-engine
// step — one board's reference — beyond the fixed cost of a Run: the
// difference between a Run of 1+steps references per board and a Run
// of 1, over the extra steps.
func engineStepAllocs(t *testing.T, eng *Engine) float64 {
	t.Helper()
	const steps = 500
	run := func(refs int) func() {
		return func() {
			if _, err := eng.Run(refs); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := testing.AllocsPerRun(10, run(1))
	many := testing.AllocsPerRun(10, run(1+steps))
	return (many - one) / float64(steps*len(eng.Gens))
}

func TestAllocsEngineHits(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name string
		ref  workload.Ref
		hit  func(m Metrics) int64
	}{
		{"read-hit", workload.Ref{Line: 5, Word: 1}, func(m Metrics) int64 { return m.Cache.ReadHits }},
		{"silent-write-hit", workload.Ref{Line: 5, Word: 1, Write: true, Val: 7}, func(m Metrics) int64 { return m.Cache.WriteHits }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(Homogeneous("moesi", 2))
			if err != nil {
				t.Fatal(err)
			}
			idle := workload.Ref{Line: 9}
			eng := &Engine{Sys: sys, Gens: []workload.Generator{&repeatGen{tc.ref}, &repeatGen{idle}}}
			if got := engineStepAllocs(t, eng); got != 0 {
				t.Errorf("%s: %.3f allocs per engine step, want 0", tc.name, got)
			}
			before := sys.Bus.Stats().Transactions
			m, err := eng.Run(10)
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.hit(m); got < 10 {
				t.Fatalf("%s: only %d hits in a 10-reference run: the step did not take the hit path", tc.name, got)
			}
			if txs := m.Bus.Transactions - before; txs != 0 {
				t.Fatalf("%s: warm run issued %d bus transactions", tc.name, txs)
			}
		})
	}
}

// TestAllocsLockedRMW: the bus-locked read-modify-write on a warm line
// allocates nothing. One MOESI cache on a default (atomic-tenure) bus;
// the warm-up FetchAdd seals the bus and brings the line in, so what is
// counted is the fast path alone: acquire the line's shard, read the
// local copy, write it, release.
func TestAllocsLockedRMW(t *testing.T) {
	skipUnderRace(t)
	bb := bus.New(memory.New(32), bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	rmw := func() {
		if _, err := c.FetchAdd(1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	rmw()
	before := bb.Stats().Transactions
	if got := testing.AllocsPerRun(200, rmw); got != 0 {
		t.Errorf("locked FetchAdd on a warm line: %.2f allocs, want 0", got)
	}
	if txs := bb.Stats().Transactions - before; txs != 0 {
		t.Fatalf("warm FetchAdds issued %d bus transactions: the line did not stay local", txs)
	}
}

// maxReadMissAllocs is the ceiling for one atomic-tenure read miss on a
// 16-snooper bus: the fresh line memory returns (bus.MemoryPort
// ReadLine), which becomes the master's Result.Data. The address
// cycle's responses, the Result and the Transaction are not allocated.
const maxReadMissAllocs = 1

func TestAllocsReadMiss16Snoopers(t *testing.T) {
	skipUnderRace(t)
	sys, err := New(Homogeneous("moesi", 16))
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Caches[0]
	// Fill every way once so victims are clean lines with buffers to
	// reuse: the steady state of a cache that has been running.
	next := bus.Addr(0)
	read := func() {
		if _, err := c.ReadWord(next, 0); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 4*64*2; i++ {
		read()
	}
	before := sys.Bus.Stats().Transactions
	const runs = 200
	got := testing.AllocsPerRun(runs, read)
	if txs := sys.Bus.Stats().Transactions - before; txs != runs+1 {
		t.Fatalf("%d transactions for %d read misses", txs, runs+1)
	}
	if got > maxReadMissAllocs {
		t.Errorf("read miss on a 16-snooper bus: %.0f allocs, ceiling %d", got, maxReadMissAllocs)
	}
}

// maxAbortRecoveryAllocs is the ceiling for one BS-abort-plus-recovery
// read miss, measured together with the owner's write that sets it up:
// the line memory returns on the retry. The aborted attempt, the nested
// recovery push (which runs one frame deeper and so uses its own
// response buffer) and the retry allocate nothing else.
const maxAbortRecoveryAllocs = 1

func TestAllocsAbortRecovery(t *testing.T) {
	skipUnderRace(t)
	sys, err := New(Homogeneous("illinois", 2))
	if err != nil {
		t.Fatal(err)
	}
	owner, reader := sys.Caches[0], sys.Caches[1]
	const line = bus.Addr(3)
	cycle := func() {
		// The owner's write leaves it Modified; the reader's miss then
		// finds a dirty owner, which asserts BS, pushes and lets the
		// read retry from memory (Table 6).
		if err := owner.WriteWord(line, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.ReadWord(line, 0); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	before := sys.Bus.Stats().Aborts
	const runs = 100
	got := testing.AllocsPerRun(runs, cycle)
	if aborts := sys.Bus.Stats().Aborts - before; aborts != runs+1 {
		t.Fatalf("%d BS aborts in %d cycles: the read miss did not take the abort path", aborts, runs+1)
	}
	if owner.State(line) == core.Modified {
		t.Fatal("owner still Modified after the recovery push")
	}
	if got > maxAbortRecoveryAllocs {
		t.Errorf("BS abort + recovery read miss: %.0f allocs, ceiling %d", got, maxAbortRecoveryAllocs)
	}
}

// mallocBoard counts the heap allocations made inside its board's Read
// and Write — the cache and bus work of a reference — and how often its
// prediction said the access must wait for the bus. It reaches the
// engine as a wrapper, so it also checks that PurePrediction and
// SnoopEpoch forward through one and keep the wait list in use.
type mallocBoard struct {
	Board
	ms      runtime.MemStats
	inside  uint64
	waiting int
}

func (b *mallocBoard) count(f func()) {
	runtime.ReadMemStats(&b.ms)
	m0 := b.ms.Mallocs
	f()
	runtime.ReadMemStats(&b.ms)
	b.inside += b.ms.Mallocs - m0
}

func (b *mallocBoard) Read(addr bus.Addr, word int) (v uint32, err error) {
	b.count(func() { v, err = b.Board.Read(addr, word) })
	return v, err
}

func (b *mallocBoard) Write(addr bus.Addr, word int, val uint32) (err error) {
	b.count(func() { err = b.Board.Write(addr, word, val) })
	return err
}

func (b *mallocBoard) UsesBusNext(addr bus.Addr, write bool) bool {
	r := b.Board.UsesBusNext(addr, write)
	if r {
		b.waiting++
	}
	return r
}

// TestAllocsDeferralPath: on a saturated 16-board system with bus-16's
// protocol mix, where most references wait behind the bus and park on
// the wait list, the engine's own per-reference work — scheduling,
// parking, re-deferral, the workload generator — allocates nothing.
// Only the boards' Read and Write (misses, interventions, memory
// buffers) may allocate, and those are subtracted.
func TestAllocsDeferralPath(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sys, err := New(Config{Boards: scheduleMixes[0].boards})
	if err != nil {
		t.Fatal(err)
	}
	boards := make([]*mallocBoard, len(sys.Boards))
	for i, b := range sys.Boards {
		boards[i] = &mallocBoard{Board: b}
		sys.Boards[i] = boards[i]
	}
	eng := &Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 1986)}
	var ms runtime.MemStats
	// engineAllocs runs refs references per board and returns the
	// allocations made outside the boards' Read and Write.
	engineAllocs := func(refs int) (uint64, Metrics) {
		var inside uint64
		for _, b := range boards {
			inside -= b.inside
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		m, err := eng.Run(refs)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		for _, b := range boards {
			inside += b.inside
		}
		return ms.Mallocs - m0 - inside, m
	}
	engineAllocs(200) // warm caches, memory and the generators
	const refs = 300
	// Run(0) pays everything a Run allocates apart from its references:
	// the engine state, including the wait lists, and the Metrics.
	// Another goroutine can allocate during a measurement but never
	// un-allocate, so the least of a few repetitions is the exact count.
	setup, total := ^uint64(0), ^uint64(0)
	var m Metrics
	waiting := 0
	for rep := 0; rep < 5; rep++ {
		empty, _ := engineAllocs(0)
		for _, b := range boards {
			waiting -= b.waiting
		}
		var full uint64
		full, m = engineAllocs(refs)
		setup, total = min(setup, empty), min(total, full)
		for _, b := range boards {
			waiting += b.waiting
		}
	}
	if u := m.BusUtilization(); u < 0.9 {
		t.Fatalf("bus utilization %.2f: the system is not saturated", u)
	}
	if waiting < 5*int(m.Refs)/2 {
		t.Fatalf("only %d deferrals in %d references: the deferral path is barely exercised", waiting, m.Refs)
	}
	if total != setup {
		t.Errorf("engine allocations outside the boards: %d for a Run of %d references per board, %d for an empty Run; the reference loop allocates",
			total, refs, setup)
	}
}

// TestSetupBytesBus16 pins what building the bus-16 mix allocates. The
// presence directory is sized once, when sim.New seals the bus after
// the last cache attached: one 64 KiB table. Growing it by doubling at
// each Attach allocated 256, 512, … 4,096-entry tables on the way, 60
// KiB more (345,206 B/op against 284,278 at Go 1.24 on linux/amd64);
// the gate sits between the two.
func TestSetupBytesBus16(t *testing.T) {
	skipUnderRace(t)
	mix := []string{"moesi", "moesi-invalidate", "berkeley", "dragon", "illinois", "synapse", "moesi-update", "write-through"}
	cfg := Config{Shadow: true}
	for _, p := range append(mix, mix...) {
		cfg.Boards = append(cfg.Boards, BoardSpec{Protocol: p})
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, limit := r.AllocedBytesPerOp(), int64(300_000); got > limit {
		t.Errorf("sim.New of the bus-16 mix allocates %d B/op, want at most %d: is the presence directory grown more than once?", got, limit)
	}
}
