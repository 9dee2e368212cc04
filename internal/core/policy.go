package core

// Policy is the decision procedure of one board: for each (state, event)
// cell it picks the action the board takes. §3.4 of the paper allows any
// board to pick any action permitted by the class, statically or
// dynamically ("it would introduce no errors if a board were to select
// an action at each instant from the available set using a random number
// generator or a selection algorithm such as round robin") — so a Policy
// may return a different legal choice on every call.
//
// Implementations must be safe for concurrent use: a cache's snoop path
// (driven by the bus) and its processor path may consult the policy from
// different goroutines.
type Policy interface {
	// Name identifies the protocol for reports and tables.
	Name() string
	// Variant describes the kind of client the policy drives.
	Variant() Variant
	// Table returns the protocol's transition table: every alternative
	// the policy may ever choose, in preference order. Used for class
	// validation and table regeneration.
	Table() *Table
	// ChooseLocal picks the action for a local event. ok is false for
	// the tables' "—" (not a legal case).
	ChooseLocal(s State, e LocalEvent) (LocalAction, bool)
	// ChooseSnoop picks the action for a snooped bus event.
	ChooseSnoop(s State, e BusEvent) (SnoopAction, bool)
}

// RecencyAware is an optional Policy refinement from §5.2: "have a
// cache examine the replacement status of a line written by another
// cache. If the line is quite recently used (e.g. most recently used
// element of two element set), it can be updated, and if it is nearing
// time for replacement (e.g. least recently used element of two element
// set), it can be discarded." A cache consults ChooseSnoopRecency
// instead of ChooseSnoop when the policy implements it, passing whether
// the snooped line is recently used within its set.
type RecencyAware interface {
	ChooseSnoopRecency(s State, e BusEvent, recentlyUsed bool) (SnoopAction, bool)
}

// PureChooser is an optional Policy property. A policy whose ChooseLocal
// is a function of its arguments alone — calling it advances no
// generator, counter or other state — reports true, so a caller may ask
// it ahead of an access (to predict bus use) as often as it likes
// without changing what the policy later chooses. A policy that does
// not implement PureChooser is taken to consume state on every call, as
// the §3.4 random and round-robin choosers do.
type PureChooser interface {
	PureLocalChoice() bool
}

// PureLocalChoice reports whether p's ChooseLocal is free of side
// effects (see PureChooser).
func PureLocalChoice(p Policy) bool {
	pc, ok := p.(PureChooser)
	return ok && pc.PureLocalChoice()
}
