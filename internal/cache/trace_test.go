package cache

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/faults"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/protocols"
)

// TestTracedTransitionAllocs: a traced state transition under a fault
// wrapper, whose Name builds a fresh string on every call, allocates
// nothing — the cache resolved its protocol name symbol once, when it
// was built.
func TestTracedTransitionAllocs(t *testing.T) {
	policy, err := faults.Wrap("corrupt-snoop", protocols.MOESI())
	if err != nil {
		t.Fatal(err)
	}
	var last obs.Event
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) { last = *e }))
	b := bus.New(memory.New(testLineSize), bus.Config{LineSize: testLineSize, Obs: rec})
	c := New(0, b, policy, smallCfg())
	const addr = bus.Addr(3)
	c.forceLine(addr, core.Exclusive, make([]byte, testLineSize))
	sh := c.shard(addr)
	l := c.lookup(addr)
	allocs := testing.AllocsPerRun(200, func() {
		sh.mu.Lock()
		c.setStateTx(sh, l, core.Modified, obs.CauseSilentWrite, 0)
		c.setStateTx(sh, l, core.Exclusive, obs.CauseSnoopClean, 0)
		sh.mu.Unlock()
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a traced transition allocates %.1f times, want 0", allocs/2)
	}
	if last.Kind != obs.KindState || last.Proto.String() != "MOESI+corrupt-snoop" || last.To != obs.StateE {
		t.Errorf("last traced transition = %+v (proto %q)", last, last.Proto)
	}
}
