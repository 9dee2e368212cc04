package cache

import (
	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// forceLine installs a line directly in the directory (tests only): the
// conformance harness uses it to place a cache in an exact MOESI state
// before firing one event at it. Like every state change it reports the
// line's valid↔invalid flips to the presence directory.
func (c *Cache) forceLine(addr bus.Addr, s core.State, data []byte) {
	sh := c.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.Valid() {
		if l := c.lookup(addr); l != nil {
			l.state = core.Invalid
			c.presence[c.home(addr)].Note(addr, false)
		}
		return
	}
	v := c.victim(addr)
	if v.state.Valid() {
		c.presence[c.home(v.addr)].Note(v.addr, false)
	}
	c.presence[c.home(addr)].Note(addr, true)
	v.addr = addr
	v.state = s
	v.data = append(v.data[:0], data...)
	c.touch(sh, v)
}
