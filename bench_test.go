// Benchmark harness: one benchmark per table and figure of the paper
// plus one per performance experiment (see DESIGN.md's index). The
// table benchmarks measure regeneration + diff of the paper artifact;
// the figure benchmarks measure the bus-level machinery the figure
// describes; the P* benchmarks each run a complete simulation of the
// corresponding experiment's configuration and report protocol-level
// metrics alongside ns/op.
package futurebus_test

import (
	"fmt"
	"io"
	"runtime"

	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/hierarchy"
	"futurebus/internal/litmus"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
	"futurebus/internal/protocols"
	"futurebus/internal/sim"
	"futurebus/internal/tablegen"
	"futurebus/internal/verify"
	"futurebus/internal/workload"
)

// benchArtifact regenerates and diffs one paper table per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	var artifact tablegen.Artifact
	for _, a := range tablegen.Artifacts() {
		if a.ID == id {
			artifact = a
		}
	}
	if artifact.ID == "" {
		b.Fatalf("no artifact %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if diffs := artifact.Diff(); len(diffs) != 0 {
			b.Fatalf("%s diverges: %v", id, diffs)
		}
		if artifact.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchArtifact(b, "T1") }
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "T2") }
func BenchmarkTable3(b *testing.B) { benchArtifact(b, "T3") }
func BenchmarkTable4(b *testing.B) { benchArtifact(b, "T4") }
func BenchmarkTable5(b *testing.B) { benchArtifact(b, "T5") }
func BenchmarkTable6(b *testing.B) { benchArtifact(b, "T6") }
func BenchmarkTable7(b *testing.B) { benchArtifact(b, "T7") }

// BenchmarkFigure1Handshake simulates the Figure 1 broadcast wired-OR
// handshake.
func BenchmarkFigure1Handshake(b *testing.B) {
	cfg := bus.DefaultHandshakeConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := bus.SimulateBroadcastHandshake(cfg)
		if tr.Complete == 0 {
			b.Fatal("no completion")
		}
	}
}

// BenchmarkFigure2AddressCycle measures one full Figure 2 address cycle
// on a live bus: broadcast snoop of 7 caches plus data phase.
func BenchmarkFigure2AddressCycle(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	for i := 0; i < 7; i++ {
		cache.New(i, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	}
	tx := &bus.Transaction{MasterID: 99, Signals: core.SigCA, Op: core.BusRead, Addr: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Execute(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Classify measures the attribute→state mapping of
// Figure 3.
func BenchmarkFigure3Classify(b *testing.B) {
	var sink core.State
	for i := 0; i < b.N; i++ {
		sink = core.StateFromAttributes(i&1 == 0, i&2 == 0, i&4 == 0)
	}
	_ = sink
}

// BenchmarkFigure4Pairs measures the state-pair predicates of Figure 4.
func BenchmarkFigure4Pairs(b *testing.B) {
	var sink bool
	for i := 0; i < b.N; i++ {
		s := core.States[i%5]
		sink = s.Intervenient() || s.MayModifySilently() || s.MustAnnounceWrite()
	}
	_ = sink
}

// benchSim runs one simulated system per iteration and reports
// transactions and bytes per reference.
func benchSim(b *testing.B, cfg sim.Config, gens func(sys *sim.System) []workload.Generator, refs int) {
	b.Helper()
	var lastTrans, lastBytes float64
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: gens(sys)}
		m, err := eng.Run(refs)
		if err != nil {
			b.Fatal(err)
		}
		lastTrans, lastBytes = m.TransPerRef(), m.BytesPerRef()
	}
	b.ReportMetric(lastTrans, "trans/ref")
	b.ReportMetric(lastBytes, "bytes/ref")
}

func abGens(pShared, pWrite float64) func(sys *sim.System) []workload.Generator {
	return func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 32, PrivateLines: 80,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      pShared, PWrite: pWrite, Locality: 0.5,
			}, 1986)
		})
	}
}

// BenchmarkP1 runs the protocol-comparison configuration for each
// protocol (experiment P1 / [Arch85]).
func BenchmarkP1(b *testing.B) {
	for _, name := range []string{
		"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
		"illinois", "write-once", "firefly", "write-through",
	} {
		b.Run(name, func(b *testing.B) {
			benchSim(b, sim.Homogeneous(name, 4), abGens(0.2, 0.3), 2000)
		})
	}
}

// BenchmarkP2 runs the update-vs-invalidate separator workloads.
func BenchmarkP2(b *testing.B) {
	pc := func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewProducerConsumer(proc, 16, sys.WordsPerLine(), 1986)
		})
	}
	b.Run("producer-consumer/moesi", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("moesi", 4), pc, 2000)
	})
	b.Run("producer-consumer/moesi-invalidate", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("moesi-invalidate", 4), pc, 2000)
	})
}

// BenchmarkP3 runs the heterogeneous mixed bus.
func BenchmarkP3(b *testing.B) {
	cfg := sim.Config{Boards: []sim.BoardSpec{
		{Protocol: "moesi"}, {Protocol: "moesi-invalidate"}, {Protocol: "berkeley"},
		{Protocol: "dragon"}, {Protocol: "write-through"}, {Protocol: "uncached"},
	}}
	benchSim(b, cfg, abGens(0.3, 0.3), 2000)
}

// BenchmarkP4 runs the random-choice boards of §3.4.
func BenchmarkP4(b *testing.B) {
	benchSim(b, sim.Homogeneous("random", 4), abGens(0.4, 0.4), 2000)
}

// BenchmarkP5 contrasts copy-back with write-through traffic.
func BenchmarkP5(b *testing.B) {
	b.Run("moesi", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("moesi", 4), abGens(0.2, 0.5), 2000)
	})
	b.Run("write-through", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("write-through", 4), abGens(0.2, 0.5), 2000)
	})
}

// BenchmarkP6 runs the §5.2 recency-adaptive refinement.
func BenchmarkP6(b *testing.B) {
	benchSim(b, sim.Homogeneous("moesi-adaptive", 4), abGens(0.3, 0.3), 2000)
}

// BenchmarkP7 sweeps line size on the spatial-locality workload.
func BenchmarkP7(b *testing.B) {
	for _, lineSize := range []int{16, 64} {
		b.Run(map[int]string{16: "line16", 64: "line64"}[lineSize], func(b *testing.B) {
			cfg := sim.Homogeneous("moesi", 4)
			cfg.LineSize = lineSize
			cfg.CacheSets = 4096 / lineSize / 2
			gens := func(sys *sim.System) []workload.Generator {
				return sys.Generators(func(proc int) workload.Generator {
					return workload.NewSequential(proc, 4096, sys.WordsPerLine(), 0.05, 1986)
				})
			}
			benchSim(b, cfg, gens, 2000)
		})
	}
}

// BenchmarkP8 measures the BS abort/retry cost on migratory sharing.
func BenchmarkP8(b *testing.B) {
	mig := func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), 1986)
		})
	}
	b.Run("illinois", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("illinois", 4), mig, 2000)
	})
	b.Run("berkeley", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("berkeley", 4), mig, 2000)
	})
}

// BenchmarkP9 runs the two-level hierarchy (§6 extension): one 4×4
// tree per iteration with cluster-heavy sharing.
func BenchmarkP9(b *testing.B) {
	var lastGlobal float64
	for i := 0; i < b.N; i++ {
		sys, err := hierarchy.New(hierarchy.Config{
			Clusters: 4, ProcsPerCluster: 4, CacheSets: 32, CacheWays: 2, Shadow: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		gens := make([][]workload.Generator, 4)
		for ci := 0; ci < 4; ci++ {
			for pi := 0; pi < 4; pi++ {
				m := hierarchy.ClusterModel{
					Cluster: ci, Proc: pi,
					GlobalSharedLines: 16, ClusterSharedLines: 24, PrivateLines: 48,
					PGlobal: 0.05, PCluster: 0.25, PWrite: 0.3,
					WordsPerLine: sys.Global.LineSize() / 4,
				}
				gens[ci] = append(gens[ci], m.NewGenerator(1986))
			}
		}
		if err := hierarchy.Run(sys, gens, 500); err != nil {
			b.Fatal(err)
		}
		st := sys.CollectStats()
		lastGlobal = float64(st.GlobalTransactions) / float64(500*16)
	}
	b.ReportMetric(lastGlobal, "globalTrans/ref")
}

// BenchmarkP10 runs the sector-cache organisation on the reuse
// workload.
func BenchmarkP10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mem := memory.New(16)
		bb := bus.New(mem, bus.Config{LineSize: 16})
		caches := make([]*cache.SectorCache, 4)
		for j := range caches {
			caches[j] = cache.NewSector(j, bb, protocols.MOESI(),
				cache.SectorConfig{Sets: 32, Ways: 2, SubSectors: 4})
		}
		gens := make([]workload.Generator, 4)
		for j := range gens {
			gens[j] = workload.NewSequential(j, 640, 4, 0.02, 1986)
		}
		for n := 0; n < 2000; n++ {
			for j, c := range caches {
				ref := gens[j].Next()
				var err error
				if ref.Write {
					err = c.WriteWord(bus.Addr(ref.Line), ref.Word, ref.Val)
				} else {
					_, err = c.ReadWord(bus.Addr(ref.Line), ref.Word)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkShardedFabric runs the concurrent engine over the
// address-interleaved backplane at 1/2/4/8 shards: 8 mostly-private
// MOESI boards whose working sets spread across the shards. The
// refs/simms metric is simulated throughput — references retired per
// simulated millisecond, with the backplane term taken from the
// busiest shard — and is the scaling signal to compare across the
// sub-benchmarks: it rises with shard count as transactions that
// would serialise on one Futurebus proceed on independent shards.
// (Wall-clock ns/op only shows parallel speedup when the host grants
// the goroutines multiple CPUs.)
func BenchmarkShardedFabric(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				cfg := sim.Homogeneous("moesi", 8)
				cfg.Shards = shards
				sys, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m, err = sim.RunConcurrent(sys, abGens(0.05, 0.3)(sys), 1500)
				if err != nil {
					b.Fatal(err)
				}
			}
			if m.ElapsedNanos > 0 {
				b.ReportMetric(float64(m.Refs)/(float64(m.ElapsedNanos)/1e6), "refs/simms")
			}
			b.ReportMetric(m.BusUtilization(), "busutil")
		})
	}
}

// BenchmarkConcurrentEngineHost measures the concurrent engine's host
// throughput — references per wall-second, reported as refs/s next to
// ns/op — across GOMAXPROCS 1, 2 and 4. Two systems: the perfbench
// bus-16 protocol mix on one bus, where every miss serialises on the
// single arbiter, and 8 MOESI boards on a 4-shard backplane, where
// goroutines on different shards need not contend. System construction
// is excluded from the timing; the end-of-run consistency check is
// part of RunConcurrent and included.
func BenchmarkConcurrentEngineHost(b *testing.B) {
	busMix := []string{"moesi", "moesi-invalidate", "berkeley", "dragon", "illinois", "synapse", "moesi-update", "write-through"}
	var bus16 sim.Config
	for i := 0; i < 2; i++ {
		for _, p := range busMix {
			bus16.Boards = append(bus16.Boards, sim.BoardSpec{Protocol: p})
		}
	}
	sharded := sim.Homogeneous("moesi", 8)
	sharded.Shards = 4
	model := workload.Model{SharedLines: 64, PrivateLines: 200, PShared: 0.3, PWrite: 0.3, Locality: 0.3}
	const refs = 1500
	for _, sys := range []struct {
		name string
		cfg  sim.Config
	}{{"bus16", bus16}, {"moesi8x4shards", sharded}} {
		for _, procs := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/procs%d", sys.name, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var total int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := sim.New(sys.cfg)
					if err != nil {
						b.Fatal(err)
					}
					gens := s.Generators(func(proc int) workload.Generator {
						m := model
						m.Proc, m.WordsPerLine = proc, s.WordsPerLine()
						return workload.MustModel(m, 1986)
					})
					b.StartTimer()
					m, err := sim.RunConcurrent(s, gens, refs)
					if err != nil {
						b.Fatal(err)
					}
					total += m.Refs
				}
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "refs/s")
			})
		}
	}
}

// BenchmarkArbitration runs the P11 cell configuration — 8 MOESI
// boards ping-ponging over 4 contested lines — for every bus tenure ×
// arbitration discipline, reporting the saturation signals alongside
// ns/op: p99 arbitration wait (simulated ns), the Jain fairness index
// over per-board cumulative wait, and split-mode NACKs. This is the
// BENCH_<date>.json capture of the discipline axis: fcfs/rr/bounded
// hold fairness at 1.0 and pay the long tail, priority trades the
// tail for starved high boards (fairness falls), and split tenure
// overlaps memory service with other masters' address cycles.
func BenchmarkArbitration(b *testing.B) {
	for _, tenure := range []string{"atomic", "split"} {
		for _, disc := range bus.DisciplineNames() {
			b.Run(tenure+"/"+disc, func(b *testing.B) {
				var p99, fair, nacks float64
				for i := 0; i < b.N; i++ {
					cfg := sim.Homogeneous("moesi", 8)
					cfg.Tenure, cfg.Discipline = tenure, disc
					rec := obs.New(perf.NewSink(0))
					cfg.Obs = rec
					sys, err := sim.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					gens := sys.Generators(func(proc int) workload.Generator {
						return workload.NewPingPong(proc, 4, sys.WordsPerLine(), 1986)
					})
					eng := sim.Engine{Sys: sys, Gens: gens}
					m, err := eng.Run(1200)
					_ = rec.Close()
					if err != nil {
						b.Fatal(err)
					}
					if m.Perf != nil {
						p99 = float64(m.Perf.Latency[perf.MetricArbWait].P99)
						fair = m.Perf.ArbFairness
					}
					nacks = float64(m.Bus.Nacks)
				}
				b.ReportMetric(p99, "p99arb_ns")
				b.ReportMetric(fair, "fairness")
				b.ReportMetric(nacks, "nacks")
			})
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkBusLockedRMW measures the atomic FetchAdd round trip.
func BenchmarkBusLockedRMW(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.FetchAdd(1, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleanCommand measures the §6 CmdClean cycle against a dirty
// owner (abort + push + retry).
func BenchmarkCleanCommand(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.WriteWord(5, 0, uint32(i)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cache.CleanLine(bb, 99, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnoopFanout measures one bus read by an unattached master
// on a bus of k MOESI caches, with 0 or 2 of them holding the line.
// The presence directory queries only the holders, so ns/op no longer
// grows with k: the per-snooper slope of the address cycle is flat.
func BenchmarkSnoopFanout(b *testing.B) {
	const lines = 64 // fits every cache's 128 lines: holders stay holders
	for _, k := range []int{4, 8, 16} {
		for _, holders := range []int{0, 2} {
			b.Run(fmt.Sprintf("snoopers=%d/holders=%d", k, holders), func(b *testing.B) {
				sys, err := sim.New(sim.Homogeneous("moesi", k))
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range sys.Caches[:holders] {
					for a := 0; a < lines; a++ {
						if _, err := c.ReadWord(bus.Addr(a), 0); err != nil {
							b.Fatal(err)
						}
					}
				}
				tx := bus.Transaction{MasterID: k, Op: core.BusRead}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx.Addr = bus.Addr(i % lines)
					if _, err := sys.Bus.Execute(&tx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCacheReadHit is the pure processor-side fast path.
func BenchmarkCacheReadHit(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	if _, err := c.ReadWord(1, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadWord(1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSilentWrite is the E/M silent write path.
func BenchmarkCacheSilentWrite(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	if err := c.WriteWord(1, 0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteWord(1, 0, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastUpdate is the full update-protocol write: bus
// broadcast, three SL snoopers merging the word.
func BenchmarkBroadcastUpdate(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	caches := make([]*cache.Cache, 4)
	for i := range caches {
		caches[i] = cache.New(i, bb, protocols.MOESIUpdate(), cache.Config{Sets: 64, Ways: 2})
	}
	for _, c := range caches {
		if _, err := c.ReadWord(1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := caches[i%4].WriteWord(1, 0, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomPolicyChoice measures the §3.4 dynamic chooser.
func BenchmarkRandomPolicyChoice(b *testing.B) {
	p := protocols.NewRandom(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.ChooseLocal(core.Shared, core.LocalWrite); !ok {
			b.Fatal("no choice")
		}
	}
}

// BenchmarkWorkloadModel measures reference generation.
func BenchmarkWorkloadModel(b *testing.B) {
	g := workload.MustModel(workload.Model{
		SharedLines: 32, PrivateLines: 80, WordsPerLine: 8,
		PShared: 0.3, PWrite: 0.3, Locality: 0.5,
	}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkClassValidation measures validating a full protocol table
// against the class.
func BenchmarkClassValidation(b *testing.B) {
	p := protocols.MOESI()
	tbl := p.Table()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := core.Validate(tbl, core.CopyBack); rep.Verdict != core.InClass {
			b.Fatal(rep)
		}
	}
}

// BenchmarkLitmus runs the coherence litmus test (one full multi-
// schedule pass per iteration).
func BenchmarkLitmus(b *testing.B) {
	src := `
name: bench
boards: moesi, dragon
addr X = 0x10
proc P0:
  write X[0] 1
  read  X[0] -> a
proc P1:
  write X[0] 2
  read  X[0] -> c
schedules: 8
assert never a == 0
assert never final mem X[0] == 0
assert consistent
`
	test, err := litmus.ParseString(src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := litmus.Run(test)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatalf("%s", res)
		}
	}
}

// BenchmarkModelChecker runs the exhaustive three-board class
// exploration per iteration.
func BenchmarkModelChecker(b *testing.B) {
	boards := []verify.Chooser{
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.CopyBack},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := verify.Explore(boards)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatalf("%s", res)
		}
	}
}

// BenchmarkObsRecordingOverhead measures the steady-state wall-clock
// cost of recording the default fbsim workload (moesi, 4 boards) to a
// binary .fbt trace: "off" runs with no recorder, "fbt" runs with a
// process-lifetime recorder feeding a RecordSink, the way fbsim
// -record-out attaches one. The recorder is created outside the timed
// loop because its ring is a one-time allocation, not per-run cost.
// scripts/bench-compare.sh reports the fbt/off ratio and warns when it
// drifts: on a single-core container the drain goroutine cannot
// overlap the simulation, so the ratio is dominated by the emission
// pipeline (event construction, ring push, varint encode), not disk.
func BenchmarkObsRecordingOverhead(b *testing.B) {
	const refs = 2000
	cfg := sim.Homogeneous("moesi", 4)
	run := func(b *testing.B, rec *obs.Recorder) {
		b.Helper()
		c := cfg
		c.Obs = rec
		sys, err := sim.New(c)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}
		if _, err := eng.Run(refs); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("fbt", func(b *testing.B) {
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCoherenceSinkOverhead measures what live coherence
// analytics add on top of recording: "record" is the
// BenchmarkObsRecordingOverhead/fbt configuration, "record+coherence"
// attaches an obshttp.CoherenceSink beside the RecordSink the way
// fbsim -serve does. The delta between the two sub-benchmarks is the
// per-run telemetry cost the /coherence endpoint pays for; BENCH json
// tracks both so drift is visible.
func BenchmarkCoherenceSinkOverhead(b *testing.B) {
	const refs = 2000
	cfg := sim.Homogeneous("moesi", 4)
	run := func(b *testing.B, rec *obs.Recorder) {
		b.Helper()
		c := cfg
		c.Obs = rec
		sys, err := sim.New(c)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}
		if _, err := eng.Run(refs); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("record", func(b *testing.B) {
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("record+coherence", func(b *testing.B) {
		sink := &obshttp.CoherenceSink{}
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}), sink)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		if sink.Totals().StateEvents == 0 {
			b.Fatal("coherence sink saw no state events")
		}
	})
}

// BenchmarkWatchSinkOverhead measures what live runtime verification
// adds on top of recording: "record" is the plain RecordSink
// configuration, "record+watch" attaches an obshttp.WatchSink beside
// it the way fbsim -watch -serve does. bench-compare.sh gates the
// ratio at 10% — a monitored run must stay within a tenth of an
// unmonitored one.
func BenchmarkWatchSinkOverhead(b *testing.B) {
	const refs = 2000
	cfg := sim.Homogeneous("moesi", 4)
	run := func(b *testing.B, rec *obs.Recorder) {
		b.Helper()
		c := cfg
		c.Obs = rec
		sys, err := sim.New(c)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}
		if _, err := eng.Run(refs); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("record", func(b *testing.B) {
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("record+watch", func(b *testing.B) {
		sink := obshttp.NewWatchSink(watch.Config{}, nil)
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}), sink)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		rep := sink.Report()
		if rep.States == 0 {
			b.Fatal("watch sink saw no state events")
		}
		if rep.Total != 0 {
			b.Fatalf("clean benchmark run flagged %d violations; first: %v", rep.Total, rep.First)
		}
	})
}

// BenchmarkPerfSinkOverhead measures what saturation telemetry adds on
// top of recording: "record" is the plain RecordSink configuration,
// "record+perf" attaches an obshttp.PerfSink beside it the way fbsim
// -perf does (nil registry: the sink's own histograms and queue
// reconstruction, no exposition cost). bench-compare.sh gates the
// ratio at 10% — a perf-monitored run must stay within a tenth of a
// record-only one.
func BenchmarkPerfSinkOverhead(b *testing.B) {
	const refs = 2000
	cfg := sim.Homogeneous("moesi", 4)
	run := func(b *testing.B, rec *obs.Recorder) {
		b.Helper()
		c := cfg
		c.Obs = rec
		sys, err := sim.New(c)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}
		if _, err := eng.Run(refs); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("record", func(b *testing.B) {
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("record+perf", func(b *testing.B) {
		sink := obshttp.NewPerfSink(nil)
		rec := obs.New(obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"}), sink)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, rec)
		}
		b.StopTimer()
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		snap := sink.Snapshot()
		if snap.Events == 0 || snap.Latency[perf.MetricTenure].Count == 0 {
			b.Fatal("perf sink saw no events")
		}
	})
}
