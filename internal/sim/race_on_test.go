//go:build race

package sim

// raceEnabled reports a -race build: the race runtime allocates on its
// own, so exact allocation gates do not apply.
const raceEnabled = true
