// Package faults injects protocol bugs for runtime-verification tests.
//
// It promotes the test-only evilPolicy pattern from internal/check into
// a reusable mutation layer: each fault is a policy wrapper that embeds
// a correct core.Policy and corrupts exactly one class of action — drop
// an invalidation, keep stale ownership, corrupt a snoop transition,
// skip a copy-back, refuse to intervene, or claim exclusivity on a
// shared miss. The Catalog names, for every fault, the invariant the
// runtime monitor (internal/obs/watch) must report when the fault runs
// under a shared workload; internal/sim's watch tests assert the full
// matrix across engines and shard counts.
//
// Fault wrappers are deliberately *not* validated against the class —
// they exist to be outside it.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"futurebus/internal/core"
	"futurebus/internal/obs/watch"
)

// Fault describes one injectable protocol bug.
type Fault struct {
	// Name selects the fault in Wrap and in the "proto+fault" CLI
	// syntax of fbsim.
	Name string
	// Expect is the invariant the monitor must report when this fault
	// is exercised by a workload with read/write sharing.
	Expect core.Invariant
	// Description says what the wrapper corrupts.
	Description string
}

type wrapper func(core.Policy) core.Policy

var catalog = []struct {
	Fault
	wrap wrapper
}{
	{
		Fault{
			Name:   "drop-inv",
			Expect: core.InvExclusivity,
			Description: "unowned snoopers ignore read-for-ownership invalidations " +
				"(column 6), leaving stale readers next to the new exclusive owner",
		},
		func(p core.Policy) core.Policy { return &dropInv{base{p}} },
	},
	{
		Fault{
			Name:   "stale-owner",
			Expect: core.InvSingleOwner,
			Description: "an owner snooping a read-for-ownership supplies the data " +
				"but refuses to invalidate, so two caches end up owning the line",
		},
		func(p core.Policy) core.Policy { return &staleOwner{base{p}} },
	},
	{
		Fault{
			Name:   "corrupt-snoop",
			Expect: watch.InvLegalSnoop,
			Description: "an owner snooping a cache read demotes itself to S instead " +
				"of O — a transition outside its Table 2 column that silently " +
				"abandons ownership of a line memory no longer has",
		},
		func(p core.Policy) core.Policy { return &corruptSnoop{base{p}} },
	},
	{
		Fault{
			Name:   "skip-copyback",
			Expect: watch.InvLegalLocal,
			Description: "dirty evictions drop the line silently instead of " +
				"writing it back, losing the only up-to-date copy",
		},
		func(p core.Policy) core.Policy { return &skipCopyback{base{p}} },
	},
	{
		Fault{
			Name:   "mute-owner",
			Expect: core.InvMemoryOwner,
			Description: "an owner snooping a read miss keeps its state but does " +
				"not intervene (no DI), so stale memory serves the reader",
		},
		func(p core.Policy) core.Policy { return &muteOwner{base{p}} },
	},
	{
		Fault{
			Name:   "phantom-fill",
			Expect: watch.InvLegalLocal,
			Description: "read misses always install M, even when CH shows other " +
				"caches hold the line",
		},
		func(p core.Policy) core.Policy { return &phantomFill{base{p}} },
	},
}

// Catalog returns every fault, sorted by name.
func Catalog() []Fault {
	out := make([]Fault, 0, len(catalog))
	for _, c := range catalog {
		out = append(out, c.Fault)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the fault names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for _, c := range catalog {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// Wrap returns p with the named fault injected. An empty name returns p
// unchanged; an unknown name is an error.
func Wrap(name string, p core.Policy) (core.Policy, error) {
	if name == "" {
		return p, nil
	}
	for _, c := range catalog {
		if c.Name == name {
			return c.wrap(p), nil
		}
	}
	return nil, fmt.Errorf("unknown fault %q (have %s)", name, strings.Join(Names(), ", "))
}

// Split parses fbsim's "protocol+fault" syntax into its parts; a bare
// protocol name returns an empty fault.
func Split(spec string) (proto, fault string) {
	if i := strings.IndexByte(spec, '+'); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return spec, ""
}

// base embeds the wrapped policy. An embedded interface promotes only
// core.Policy's own methods, so base forwards the optional properties a
// fault leaves intact: every fault here rewrites fixed cells, so its
// local choice is as pure as the wrapped policy's.
type base struct{ core.Policy }

// PureLocalChoice implements core.PureChooser.
func (b base) PureLocalChoice() bool { return core.PureLocalChoice(b.Policy) }

func mustLocal(cell string) core.LocalAction {
	a, err := core.ParseLocalAction(cell)
	if err != nil {
		panic(err)
	}
	return a
}

func mustSnoop(cell string) core.SnoopAction {
	a, err := core.ParseSnoopAction(cell)
	if err != nil {
		panic(err)
	}
	return a
}

// dropInv: unowned valid snoopers keep their copy on column 6.
type dropInv struct{ base }

func (p *dropInv) Name() string { return p.Policy.Name() + "+drop-inv" }

func (p *dropInv) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	if e == core.BusCacheRFO && s.Valid() && !s.OwnedCopy() {
		return mustSnoop(s.Letter() + ",CH"), true
	}
	return p.Policy.ChooseSnoop(s, e)
}

// staleOwner: owners intervene on column 6 but keep their state.
type staleOwner struct{ base }

func (p *staleOwner) Name() string { return p.Policy.Name() + "+stale-owner" }

func (p *staleOwner) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	if e == core.BusCacheRFO && s.OwnedCopy() {
		return mustSnoop(s.Letter() + ",CH?,DI"), true
	}
	return p.Policy.ChooseSnoop(s, e)
}

// corruptSnoop: owners snooping a cache read land in S instead of O.
// S keeps every later table cell defined, so the bug survives long
// enough for the monitor — not a substrate panic — to call it out.
type corruptSnoop struct{ base }

func (p *corruptSnoop) Name() string { return p.Policy.Name() + "+corrupt-snoop" }

func (p *corruptSnoop) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	if e == core.BusCacheRead && s.OwnedCopy() {
		return mustSnoop("S,CH,DI"), true
	}
	return p.Policy.ChooseSnoop(s, e)
}

// skipCopyback: dirty flushes discard the line silently.
type skipCopyback struct{ base }

func (p *skipCopyback) Name() string { return p.Policy.Name() + "+skip-copyback" }

func (p *skipCopyback) ChooseLocal(s core.State, e core.LocalEvent) (core.LocalAction, bool) {
	if e == core.Flush && s.OwnedCopy() {
		return mustLocal("I"), true
	}
	return p.Policy.ChooseLocal(s, e)
}

// muteOwner: owners snooping a cache read keep quiet ownership — CH but
// no DI — so memory (stale) supplies the reader.
type muteOwner struct{ base }

func (p *muteOwner) Name() string { return p.Policy.Name() + "+mute-owner" }

func (p *muteOwner) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	if e == core.BusCacheRead && s.OwnedCopy() {
		return mustSnoop("O,CH"), true
	}
	return p.Policy.ChooseSnoop(s, e)
}

// phantomFill: every read miss installs M regardless of CH.
type phantomFill struct{ base }

func (p *phantomFill) Name() string { return p.Policy.Name() + "+phantom-fill" }

func (p *phantomFill) ChooseLocal(s core.State, e core.LocalEvent) (core.LocalAction, bool) {
	if s == core.Invalid && e == core.LocalRead {
		return mustLocal("M,CA,R"), true
	}
	return p.Policy.ChooseLocal(s, e)
}
