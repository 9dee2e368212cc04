package bus_test

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// TestSnoopQueriesPerAttempt counts the snoop queries of a 16-board,
// 8-protocol run (the bus-16 workload of perfbench at seed 1986). Every
// board is a cache, so a bus that queried every snooper would make 15
// queries per address-cycle attempt; the presence directory asks only
// the holders of the line.
func TestSnoopQueriesPerAttempt(t *testing.T) {
	mix := []string{"moesi", "moesi-invalidate", "berkeley", "dragon", "illinois", "synapse", "moesi-update", "write-through"}
	var cfg sim.Config
	for i := 0; i < 2; i++ {
		for _, p := range mix {
			cfg.Boards = append(cfg.Boards, sim.BoardSpec{Protocol: p})
		}
	}
	cfg.Shadow = true
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var queries int64
	bus.CountQueries(sys.Bus.Shard(0), &queries)
	var gens []workload.Generator
	for i := range sys.Boards {
		g, err := workload.NewModel(workload.Model{
			Proc: i, WordsPerLine: sys.WordsPerLine(),
			SharedLines: 64, PrivateLines: 200, PShared: 0.3, PWrite: 0.3, Locality: 0.3,
		}, 1986)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	m, err := (&sim.Engine{Sys: sys, Gens: gens}).Run(3000)
	if err != nil {
		t.Fatal(err)
	}
	attempts := m.Bus.Transactions + m.Bus.Aborts
	perAttempt := float64(queries) / float64(attempts)
	t.Logf("%d queries over %d attempts: %.3f per attempt (%d snoopers each)", queries, attempts, perAttempt, len(sys.Boards)-1)
	if perAttempt >= 1 {
		t.Errorf("%.3f queries per attempt, want under 1: the address cycle asks more than the holders", perAttempt)
	}
}
