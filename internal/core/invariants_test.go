package core

import (
	"math/rand"
	"strings"
	"testing"
)

// forEachVector calls fn with every vector of n board states.
func forEachVector(n int, fn func([]State)) {
	v := make([]State, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(v)
			return
		}
		for _, s := range States {
			v[i] = s
			rec(i + 1)
		}
	}
	rec(0)
}

// oracle judges a vector straight from the paper's sentences, by the
// state letters and without counting, so it shares no code with
// Census.
func oracle(v []State, memCurrent bool) map[Invariant]bool {
	owns := func(s State) bool { return strings.ContainsAny(s.Letter(), "MO") }
	out := map[Invariant]bool{}
	// "All data is said to be owned uniquely either by one and only one
	// cache or by main memory."
	cacheOwned := false
	for i, a := range v {
		if owns(a) {
			cacheOwned = true
		}
		for _, b := range v[i+1:] {
			if owns(a) && owns(b) {
				out[InvSingleOwner] = true
			}
		}
	}
	if !cacheOwned && !memCurrent {
		out[InvMemoryOwner] = true // memory is the owner, yet stale
	}
	// "Exclusive data is cached data that is contained in one and only
	// one cache."
	for i, a := range v {
		if !strings.ContainsAny(a.Letter(), "ME") {
			continue
		}
		for j, b := range v {
			if j != i && b.Letter() != "I" {
				out[InvExclusivity] = true
			}
		}
	}
	return out
}

// TestCensusMatchesPaper judges every state vector of 1–4 boards, with
// memory current and stale, and compares the verdict with the oracle.
func TestCensusMatchesPaper(t *testing.T) {
	judged := 0
	for n := 1; n <= 4; n++ {
		forEachVector(n, func(v []State) {
			var c Census
			for _, s := range v {
				c.Add(s, 1)
			}
			for _, mem := range []bool{true, false} {
				got, want := c.Breaches(mem), oracle(v, mem)
				for _, inv := range Invariants {
					if got.Has(inv) != want[inv] {
						t.Errorf("%v mem current=%t: %s breached=%t, paper says %t",
							v, mem, inv, got.Has(inv), want[inv])
					}
				}
				judged++
			}
		})
	}
	if judged != 2*(5+25+125+625) {
		t.Fatalf("judged %d vectors", judged)
	}
	if (Census{Owners: 2}).Breaches(false).Has("legal-local-action") {
		t.Error("a name outside §3.1 reported as breached")
	}
}

// TestCensusIncremental: removing a copy's old state and adding its new
// one, step by step, always equals a census rebuilt from scratch — the
// property the runtime monitor relies on.
func TestCensusIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(1986))
	v := make([]State, 4)
	var c Census
	for step := 0; step < 20000; step++ {
		i, s := r.Intn(len(v)), States[r.Intn(len(States))]
		c.Add(v[i], -1)
		c.Add(s, +1)
		v[i] = s
		var rebuilt Census
		for _, s := range v {
			rebuilt.Add(s, 1)
		}
		if c != rebuilt {
			t.Fatalf("step %d %v: incremental %+v, rebuilt %+v", step, v, c, rebuilt)
		}
	}
}

// TestCensusBreachesDoesNotAllocate: the runtime monitor judges every
// state event.
func TestCensusBreachesDoesNotAllocate(t *testing.T) {
	c := Census{Valid: 2, Owners: 2, Exclusive: 1}
	if n := testing.AllocsPerRun(100, func() {
		if !c.Breaches(false).Has(InvExclusivity) {
			t.Fatal("breach missed")
		}
	}); n != 0 {
		t.Errorf("Breaches allocates %.1f times", n)
	}
}
