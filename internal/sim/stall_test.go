package sim

import "testing"

// TestStallHasOneDefinition: the lock-free Board.Stall counter the
// engines read per reference and the StallNanos a board's Stats
// snapshot reports are one number, for every kind of board, after a
// run on either engine.
func TestStallHasOneDefinition(t *testing.T) {
	for _, engine := range []string{"det", "conc"} {
		t.Run(engine, func(t *testing.T) {
			sys, err := New(Config{
				Boards: []BoardSpec{
					{Protocol: "moesi"},
					{Protocol: "write-through"},
					{Protocol: "berkeley", SectorSubs: 2},
					{Protocol: "uncached"},
				},
				Shards: 2, Shadow: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			gens := abGens(sys, 0.4, 0.3, 11)
			if engine == "det" {
				eng := Engine{Sys: sys, Gens: gens}
				_, err = eng.Run(1500)
			} else {
				_, err = RunConcurrent(sys, gens, 1500)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range sys.Boards {
				var stats int64
				switch b := b.(type) {
				case *cachedBoard:
					stats = b.Stats().StallNanos
				case *sectorBoard:
					stats = b.Stats().StallNanos
				case *uncachedBoard:
					stats = b.Stats().StallNanos
				default:
					t.Fatalf("board %d: unexpected board type %T", b.ID(), b)
				}
				if stats == 0 {
					t.Errorf("board %d (%s): no stall recorded; the run does not exercise it", b.ID(), b.Describe())
				}
				if got := b.Stall(); got != stats {
					t.Errorf("board %d (%s): Stall() = %d, Stats().StallNanos = %d", b.ID(), b.Describe(), got, stats)
				}
			}
		})
	}
}
