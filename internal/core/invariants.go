package core

import "slices"

// Invariant names one checked property of the consistency criterion.
// The names are stable: they are metric label values, fbwatch output
// and CI grep targets. Checkers of further properties (Table 1–2
// legality, trace integrity) declare more names of this type.
type Invariant string

// The three §3.1 rules every line's cached copies obey. Census.Breaches
// is their one executable definition.
const (
	// InvSingleOwner (§3.1.3): at most one cache owns (M or O) a line.
	// "All data is said to be owned uniquely either by one and only one
	// cache or by main memory."
	InvSingleOwner Invariant = "single-owner"
	// InvExclusivity (§3.1.2): a copy in an exclusive state (M or E) is
	// the only valid cached copy. "Exclusive data is cached data that is
	// contained in one and only one cache."
	InvExclusivity Invariant = "real-exclusivity"
	// InvMemoryOwner (§3.1.3, the same ownership sentence): main memory
	// is the default owner, so it holds the line's image when no cache
	// owns the line.
	InvMemoryOwner Invariant = "memory-valid-iff-no-owner"
)

// Invariants lists the §3.1 rules in the order Breaches judges them.
var Invariants = [...]Invariant{InvSingleOwner, InvExclusivity, InvMemoryOwner}

// Census counts one line's cached copies by the attributes the §3.1
// rules are stated over. The zero value is a line no cache holds.
type Census struct{ Valid, Owners, Exclusive int }

// Add counts a copy in state s d times; d = -1 removes one. Removing a
// copy's old state and adding its new one keeps a census equal to one
// rebuilt from every copy.
func (c *Census) Add(s State, d int) {
	if s.Valid() {
		c.Valid += d
	}
	if s.OwnedCopy() {
		c.Owners += d
	}
	if s.ExclusiveCopy() {
		c.Exclusive += d
	}
}

// Breaches is a set of §3.1 rules, one bit per rule in Invariants order.
type Breaches uint8

// Has reports whether inv is in the set.
func (b Breaches) Has(inv Invariant) bool {
	i := slices.Index(Invariants[:], inv)
	return i >= 0 && b&(1<<i) != 0
}

// Breaches judges the census against the §3.1 rules. memCurrent
// reports whether main memory holds the line's image.
func (c Census) Breaches(memCurrent bool) Breaches {
	var b Breaches
	if c.Owners > 1 {
		b |= 1 << 0
	}
	if c.Exclusive > 0 && c.Valid > 1 {
		b |= 1 << 1
	}
	if c.Owners == 0 && !memCurrent {
		b |= 1 << 2
	}
	return b
}
