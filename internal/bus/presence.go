package bus

import (
	"fmt"
	"math/bits"
)

// Holder is a Snooper that keeps its shard's presence directory exact,
// so the bus queries it only on address cycles for lines it holds. A
// cache that does not hold a line answers a snoop with the Invalid row
// of Table 2 — no assertion, no state change — so leaving it out of the
// cycle changes nothing but host work; the simulated address cycle is
// still charged the full broadcast handshake of §2.1.
//
// The directory needs no lock of its own: a line enters a cache only by
// that cache's own transaction on the line's home shard, and it leaves
// by an eviction, a snoop commit or a BS recovery push on the same
// shard. Every report therefore runs under the shard's tenure, the lock
// every address cycle that reads the directory also holds.
type Holder interface {
	Snooper
	// TrackPresence is called once by each shard the holder attaches
	// to in one of its first 64 slots, with the holder's handle on that
	// shard's directory. It returns
	// the most lines the holder can keep valid at once among the lines
	// homed on the shard; the directory is sized from the sum. From then
	// on the holder reports, through p, every valid↔invalid flip of such
	// a line.
	TrackPresence(p Presence) int
}

// Presence is a holder's handle on one shard's presence directory. The
// zero value records nothing; a holder beyond the 64th slot never gets
// a handle, and the bus asks it on every address cycle.
type Presence struct {
	dir   *presence
	bit   uint64
	shard int
}

// Shard is the index of the fabric shard whose directory the handle
// writes (0 on a single bus).
func (p Presence) Shard() int { return p.shard }

// Note records that the holder's copy of addr became valid (true) or
// invalid (false). The caller holds addr's home-shard tenure.
func (p Presence) Note(addr Addr, valid bool) {
	if p.dir == nil {
		return
	}
	if valid {
		p.dir.add(addr, p.bit)
	} else {
		p.dir.remove(addr, p.bit)
	}
}

// presenceEntry is one line of the directory: its address and the mask
// of snooper slots holding a valid copy. holders == 0 marks a free
// entry; a line whose last holder leaves is deleted.
type presenceEntry struct {
	addr    Addr
	holders uint64
}

// presence is an exact duplicate-tag directory: for every line some
// tracked holder keeps valid on this shard, the set of holder slots.
// It is an open-addressing table with linear probing, sized at setup to
// at least twice the holders' summed capacity, so its load never
// exceeds ½ and a probe stays short.
type presence struct {
	table []presenceEntry
	// shift maps a hash to a table index: the table has 2^(64-shift)
	// entries.
	shift uint
	// lines counts occupied entries; capacity sums the tracked holders'
	// line capacities.
	lines, capacity int
}

// reserve accounts for a holder of n more lines. It runs at Attach and
// allocates nothing: seal sizes the table once the last holder is in.
func (d *presence) reserve(n int) { d.capacity += n }

// seal sizes the table for every reserved line at a load of at most ½:
// one allocation, made before traffic. Sealing again costs a compare.
func (d *presence) seal() { d.grow(2 * d.capacity) }

// grow resizes the table to the smallest power of two of at least
// want entries, rehashing whatever it holds.
func (d *presence) grow(want int) {
	if want <= len(d.table) {
		return
	}
	size := 1 << bits.Len(uint(want-1))
	old := d.table
	d.table = make([]presenceEntry, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	d.lines = 0
	for _, e := range old {
		if e.holders != 0 {
			d.add(e.addr, e.holders)
		}
	}
}

// slot is addr's home index (Fibonacci hashing: sequential line
// addresses spread over the whole table).
func (d *presence) slot(addr Addr) int {
	return int((uint64(addr) * 0x9E3779B97F4A7C15) >> d.shift)
}

// holders returns the mask of slots holding addr (0 if none).
func (d *presence) holders(addr Addr) uint64 {
	if len(d.table) == 0 {
		return 0
	}
	mask := len(d.table) - 1
	for i := d.slot(addr); ; i = (i + 1) & mask {
		e := &d.table[i]
		if e.holders == 0 {
			return 0
		}
		if e.addr == addr {
			return e.holders
		}
	}
}

// add sets bit in addr's holder mask, inserting the line if absent.
func (d *presence) add(addr Addr, bit uint64) {
	if 2*(d.lines+1) > len(d.table) {
		// Before the bus is sealed, this seals it. Past that,
		// unreachable while holders report within their capacity; a
		// holder that overruns it costs a rehash, never a lost line.
		d.grow(max(2*d.capacity, 2*(d.lines+1)))
	}
	mask := len(d.table) - 1
	for i := d.slot(addr); ; i = (i + 1) & mask {
		e := &d.table[i]
		if e.holders == 0 {
			*e = presenceEntry{addr: addr, holders: bit}
			d.lines++
			return
		}
		if e.addr == addr {
			e.holders |= bit
			return
		}
	}
}

// remove clears bit from addr's holder mask and deletes the line when
// its last holder leaves, shifting later entries of its probe run back
// so that lookups never need tombstones.
func (d *presence) remove(addr Addr, bit uint64) {
	if len(d.table) == 0 {
		return
	}
	mask := len(d.table) - 1
	i := d.slot(addr)
	for {
		e := &d.table[i]
		if e.holders == 0 {
			return
		}
		if e.addr == addr {
			break
		}
		i = (i + 1) & mask
	}
	if d.table[i].holders &^= bit; d.table[i].holders != 0 {
		return
	}
	d.lines--
	// Backward-shift deletion: move each later entry of the run into
	// the hole unless its home lies cyclically in (hole, j].
	hole := i
	for j := (i + 1) & mask; d.table[j].holders != 0; j = (j + 1) & mask {
		home := d.slot(d.table[j].addr)
		if (j-home)&mask >= (j-hole)&mask {
			d.table[hole] = d.table[j]
			hole = j
		}
	}
	d.table[hole] = presenceEntry{}
}

// ask appends to buf, in slot order, the snoopers an address cycle for
// addr queries: the holders the directory records, the snoopers that
// keep no presence (always), and every slot from 64 up — never master,
// the issuer's own slot (-1 when the issuer is not attached).
func (b *Bus) ask(buf []answer, addr Addr, master int) []answer {
	m := b.dir.holders(addr) | b.always
	if uint(master) < 64 {
		m &^= 1 << uint(master)
	}
	for ; m != 0; m &= m - 1 {
		buf = append(buf, answer{slot: bits.TrailingZeros64(m)})
	}
	for i := 64; i < len(b.snoopers); i++ {
		if i != master {
			buf = append(buf, answer{slot: i})
		}
	}
	return buf
}

// filtered reports whether slot i is reached only through the
// directory: a holder below slot 64.
func (b *Bus) filtered(i int) bool { return i < 64 && b.always&(1<<uint(i)) == 0 }

// slotOf returns the snooper slot of the unit with the given id, or -1
// if no such unit is attached (an uncached master, or a bridge).
func (b *Bus) slotOf(id int) int {
	if uint(id) < uint(len(b.ids)) && b.ids[id] == id {
		return id
	}
	for i, v := range b.ids {
		if v == id {
			return i
		}
	}
	return -1
}

// PresenceSnapshot returns the presence directory's contents: for
// every line a tracked holder keeps valid, the ids of its holders in
// slot order. It takes the shard's arbiter lock, so it is meant for a
// quiesced system (tests compare it with the caches' own directories).
func (b *Bus) PresenceSnapshot() map[Addr][]int {
	b.arb.mu.Lock(-1)
	defer b.arb.mu.Unlock()
	out := make(map[Addr][]int, b.dir.lines)
	for _, e := range b.dir.table {
		for m := e.holders; m != 0; m &= m - 1 {
			out[e.addr] = append(out[e.addr], b.ids[bits.TrailingZeros64(m)])
		}
	}
	return out
}

// staleHolder is the paranoid-mode failure for a directory bit whose
// holder answered the address cycle without the line.
func staleHolder(id int, tx *Transaction) error {
	return fmt.Errorf("bus: presence directory lists snooper %d as a holder but it missed %s (stale presence bit)", id, tx)
}
