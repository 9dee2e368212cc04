package check

import (
	"bytes"
	"fmt"
	"sort"

	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// LineSource is any directory the checker can inspect: a plain cache, a
// sector cache, or a hierarchy bridge store.
type LineSource interface {
	ID() int
	ForEachLine(fn func(addr bus.Addr, s core.State, data []byte))
}

// Violation is one detected breach of the consistency criterion.
type Violation struct {
	Addr   bus.Addr
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("line %#x: %s", uint64(v.Addr), v.Reason)
}

// copyInfo is one cache's view of a line.
type copyInfo struct {
	cacheID int
	state   core.State
	data    []byte
}

// MemoryImage is the checker's view of main memory: any store that can
// produce the current image of a line — a single module
// (*memory.Memory) or an interleaved set of shards (*memory.Sharded),
// which routes the Peek to the line's home module.
type MemoryImage interface {
	Peek(addr bus.Addr) []byte
}

// Checker verifies the MOESI invariants over a quiesced system — no
// transactions may be in flight while Check runs (run it at barriers or
// after all processors stop).
type Checker struct {
	Caches []LineSource
	Memory MemoryImage
	// Shadow, when non-nil, additionally checks the image against the
	// golden record of every store performed.
	Shadow *Shadow
}

// Check runs all invariants and returns every violation found: the
// three §3.1 rules of core.Census, judged with memory current when every
// valid copy equals it (on the Futurebus broadcast writes update memory,
// which is what makes this stronger-than-Dragon form hold; see §4.2),
// plus two data rules:
//
//   - the image is single-valued: every valid cached copy of a line is
//     identical (a write either updates or invalidates all other
//     copies, so divergent copies mean a lost update);
//   - golden: the image (owner's copy, or memory) equals the value the
//     program last wrote (Shadow).
func (c *Checker) Check() []Violation {
	var out []Violation
	byLine := make(map[bus.Addr][]copyInfo)
	for _, ca := range c.Caches {
		id := ca.ID()
		ca.ForEachLine(func(addr bus.Addr, s core.State, data []byte) {
			byLine[addr] = append(byLine[addr], copyInfo{cacheID: id, state: s, data: data})
		})
	}

	addrs := make([]bus.Addr, 0, len(byLine))
	for addr := range byLine {
		addrs = append(addrs, addr)
	}
	if c.Shadow != nil {
		for _, addr := range c.Shadow.Lines() {
			if _, ok := byLine[addr]; !ok {
				addrs = append(addrs, addr)
			}
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, addr := range addrs {
		copies := byLine[addr]
		out = append(out, c.checkLine(addr, copies)...)
	}
	return out
}

func (c *Checker) checkLine(addr bus.Addr, copies []copyInfo) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Addr: addr, Reason: fmt.Sprintf(format, args...)})
	}

	memLine := c.Memory.Peek(addr)
	var census core.Census
	owner, memCurrent := -1, true
	for i, cp := range copies {
		census.Add(cp.state, 1)
		if owner < 0 && cp.state.OwnedCopy() {
			owner = i
		}
		memCurrent = memCurrent && bytes.Equal(cp.data, memLine)
	}
	breaches := census.Breaches(memCurrent)
	for _, inv := range core.Invariants {
		if breaches.Has(inv) {
			bad("%s: %s", inv, describe(copies, memLine))
		}
	}
	for _, cp := range copies[min(1, len(copies)):] {
		if !bytes.Equal(cp.data, copies[0].data) {
			bad("caches %d and %d hold divergent copies", copies[0].cacheID, cp.cacheID)
			break
		}
	}
	if c.Shadow != nil {
		image, source := memLine, "memory"
		if owner >= 0 {
			image, source = copies[owner].data, fmt.Sprintf("owner cache %d", copies[owner].cacheID)
		}
		if !bytes.Equal(image, c.Shadow.Line(addr)) {
			bad("image (%s) differs from golden record of writes", source)
		}
	}
	return out
}

// describe lists a line's copies, marking those that differ from memory.
func describe(copies []copyInfo, memLine []byte) string {
	var b bytes.Buffer
	for i, cp := range copies {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "cache %d=%s", cp.cacheID, cp.state.Letter())
		if !bytes.Equal(cp.data, memLine) {
			b.WriteString(" (differs from memory)")
		}
	}
	return b.String()
}

// MustPass runs Check and returns an error summarising any violations.
func (c *Checker) MustPass() error {
	return Failure("consistency check failed with", c.Check())
}

// Failure returns nil when vs is empty, and otherwise an error headed
// "<header> <n> violations:" that lists the first 20 of them.
func Failure[V fmt.Stringer](header string, vs []V) error {
	if len(vs) == 0 {
		return nil
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d violations:", header, len(vs))
	for i, v := range vs {
		if i == 20 {
			fmt.Fprintf(&b, "\n  … and %d more", len(vs)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}
