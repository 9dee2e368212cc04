package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// presenceMixes are the board sets the presence-directory tests run:
// invalidation, update, BS-abort, write-through and random-choice
// members of the class, with sector and uncached boards beside them.
var presenceMixes = map[string][]BoardSpec{
	"class": {
		{Protocol: "moesi"}, {Protocol: "dragon"}, {Protocol: "berkeley", SectorSubs: 4},
		{Protocol: "write-through"}, {Protocol: "uncached"}, {Protocol: "illinois"},
		{Protocol: "moesi-update"}, {Protocol: "synapse", SectorSubs: 2},
	},
	"dynamic": {
		{Protocol: "random"}, {Protocol: "moesi-adaptive"}, {Protocol: "uncached-broadcast"},
		{Protocol: "round-robin"}, {Protocol: "moesi-invalidate", SectorSubs: 4},
	},
}

// runEngine drives the system on the named engine.
func runEngine(t *testing.T, engine string, sys *System, seed uint64, refs int) {
	t.Helper()
	gens := abGens(sys, 0.4, 0.3, seed)
	var err error
	if engine == "det" {
		_, err = (&Engine{Sys: sys, Gens: gens}).Run(refs)
	} else {
		_, err = RunConcurrent(sys, gens, refs)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Checker().MustPass(); err != nil {
		t.Fatal(err)
	}
}

// checkPresence compares every shard's presence directory with the
// caches' own directories: each line's recorded holders must be exactly
// the caches whose ForEachLine reports it valid. Caches beyond the 64th
// snooper slot have no directory bit and are left out.
func checkPresence(t *testing.T, sys *System) {
	t.Helper()
	want := map[bus.Addr][]int{}
	slot := 0
	for _, b := range sys.Boards {
		var src interface {
			ForEachLine(func(bus.Addr, core.State, []byte))
		}
		switch cb := b.(type) {
		case *cachedBoard:
			src = cb.Cache
		case *sectorBoard:
			src = cb.SectorCache
		default:
			continue // uncached boards do not snoop
		}
		if slot < 64 {
			id := b.ID()
			src.ForEachLine(func(addr bus.Addr, _ core.State, _ []byte) {
				want[addr] = append(want[addr], id)
			})
		}
		slot++
	}
	if len(want) == 0 {
		t.Fatal("no cache holds a line: the comparison would prove nothing")
	}
	got := map[bus.Addr][]int{}
	for i := 0; i < sys.Bus.Shards(); i++ {
		for addr, ids := range sys.Bus.Shard(i).PresenceSnapshot() {
			if home := sys.Bus.HomeShard(addr); home != i {
				t.Errorf("line %#x recorded on shard %d, homed on %d", uint64(addr), i, home)
			}
			got[addr] = ids
		}
	}
	for _, m := range []map[bus.Addr][]int{want, got} {
		for _, ids := range m {
			sort.Ints(ids)
		}
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for addr, ids := range want {
		if !reflect.DeepEqual(got[addr], ids) {
			t.Errorf("line %#x: directory lists holders %v, caches hold it in %v", uint64(addr), got[addr], ids)
		}
	}
	for addr, ids := range got {
		if _, ok := want[addr]; !ok {
			t.Errorf("line %#x: directory lists holders %v, no cache holds it", uint64(addr), ids)
		}
	}
}

// TestPresenceDirectoryExact: across protocol mixes, 1/2/4 shards,
// atomic and split tenure and both engines, the presence directory is
// exact. During the run the paranoid bus fails any address cycle in
// which a recorded holder answers without the line (a stale bit); at
// quiesce every line's holders equal the caches that hold it.
func TestPresenceDirectoryExact(t *testing.T) {
	for name, mix := range presenceMixes {
		for _, shards := range []int{1, 2, 4} {
			for _, tenure := range []string{"atomic", "split"} {
				for _, engine := range []string{"det", "conc"} {
					t.Run(fmt.Sprintf("%s/shards%d/%s/%s", name, shards, tenure, engine), func(t *testing.T) {
						sys, err := New(Config{
							Boards: mix, Shadow: true, Paranoid: true,
							Shards: shards, Tenure: tenure, PendingTable: 2,
						})
						if err != nil {
							t.Fatal(err)
						}
						runEngine(t, engine, sys, 41, 1500)
						checkPresence(t, sys)
					})
				}
			}
		}
	}
}

// TestPresenceBeyond64Boards: a system of more than 64 caches runs
// clean on both engines. Snoopers past the 64th slot have no directory
// bit and are asked on every address cycle, so they stay coherent.
func TestPresenceBeyond64Boards(t *testing.T) {
	for _, engine := range []string{"det", "conc"} {
		t.Run(engine, func(t *testing.T) {
			cfg := Homogeneous("moesi", 70)
			cfg.Shadow, cfg.Paranoid = true, true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runEngine(t, engine, sys, 5, 200)
			checkPresence(t, sys)
		})
	}
}
