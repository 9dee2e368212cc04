package bus

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"futurebus/internal/core"
)

// TestPresenceTableMatchesMap drives one directory with random
// add/remove traffic over a small, collision-heavy address range and
// checks every lookup against a map, so backward-shift deletion never
// loses a line that shares a probe run with the one deleted.
func TestPresenceTableMatchesMap(t *testing.T) {
	var d presence
	d.reserve(40)
	model := map[Addr]uint64{}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200000; step++ {
		addr := Addr(rng.Intn(300)) * 97
		bit := uint64(1) << uint(rng.Intn(4))
		if rng.Intn(2) == 0 && len(model) < d.capacity {
			d.add(addr, bit)
			model[addr] |= bit
		} else {
			d.remove(addr, bit)
			if model[addr] &^= bit; model[addr] == 0 {
				delete(model, addr)
			}
		}
		if d.lines != len(model) {
			t.Fatalf("step %d: %d lines, model has %d", step, d.lines, len(model))
		}
		if step%97 == 0 {
			for a := Addr(0); a < 300*97; a += 97 {
				if got, want := d.holders(a), model[a]; got != want {
					t.Fatalf("step %d: holders(%d) = %b, want %b", step, a, got, want)
				}
			}
		}
	}
	if len(d.table) != 128 {
		t.Errorf("table grew to %d entries; capacity 40 fits in 128 at load ½", len(d.table))
	}
}

// fakeHolder is a scripted Holder: it holds the lines in held, reports
// them through its presence handle, and counts the queries it gets.
type fakeHolder struct {
	fakeSnooper
	p       Presence
	held    map[Addr]bool
	queries int
}

func newFakeHolder(id int) *fakeHolder {
	h := &fakeHolder{fakeSnooper: fakeSnooper{id: id}, held: map[Addr]bool{}}
	keep, err := core.ParseSnoopAction("S,CH")
	if err != nil {
		panic(err)
	}
	h.resp = func(tx *Transaction) SnoopResponse {
		h.queries++
		if h.held[tx.Addr] {
			return SnoopResponse{Action: keep, State: core.Shared, Hit: true}
		}
		return SnoopResponse{}
	}
	return h
}

func (h *fakeHolder) TrackPresence(p Presence) int { h.p = p; return 8 }

func (h *fakeHolder) hold(addr Addr) {
	h.held[addr] = true
	h.p.Note(addr, true)
}

// TestSnoopFanout: on a 16-snooper bus an address cycle reaches
// exactly the holders of its line other than the master, plus every
// snooper that keeps no presence.
func TestSnoopFanout(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16, Paranoid: true})
	var holders []*fakeHolder
	var plain []*fakeSnooper
	counted := map[*fakeSnooper]int{}
	for id := 0; id < 16; id++ {
		if id == 5 || id == 11 {
			s := &fakeSnooper{id: id}
			s.resp = func(*Transaction) SnoopResponse { counted[s]++; return SnoopResponse{} }
			plain = append(plain, s)
			b.Attach(s)
			continue
		}
		h := newFakeHolder(id)
		holders = append(holders, h)
		b.Attach(h)
	}
	queried := func() (n int) {
		for _, h := range holders {
			n += h.queries
			h.queries = 0
		}
		return n
	}
	master := holders[0]
	for k := 0; k <= 5; k++ {
		addr := Addr(100 + k)
		// The master holds every line too: it must never be asked.
		master.hold(addr)
		for _, h := range holders[1 : 1+k] {
			h.hold(addr)
		}
		res, err := b.Execute(&Transaction{MasterID: master.id, Signals: core.SigCA, Op: core.BusRead, Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		if got := queried(); got != k {
			t.Errorf("line held by %d other caches: %d holders queried, want %d", k, got, k)
		}
		if res.CH != (k > 0) {
			t.Errorf("line held by %d other caches: CH = %t", k, res.CH)
		}
		for _, s := range plain {
			if counted[s] != k+1 {
				t.Errorf("non-holder snooper %d queried %d times in %d cycles", s.id, counted[s], k+1)
			}
		}
	}
	// A read of a line nobody holds, by a master that is not attached.
	if _, err := b.Execute(&Transaction{MasterID: 99, Op: core.BusRead, Addr: 7}); err != nil {
		t.Fatal(err)
	}
	if got := queried(); got != 0 {
		t.Errorf("all-miss read queried %d holders, want 0", got)
	}
	if got := b.PresenceSnapshot()[105]; len(got) != 6 || got[0] != master.id {
		t.Errorf("snapshot of line 105 = %v, want the master and 5 others", got)
	}
}

// TestSnoopFanoutBeyond64: slots from 64 up have no directory bit, so
// they are asked on every address cycle, holders or not.
func TestSnoopFanoutBeyond64(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16})
	var holders []*fakeHolder
	for id := 0; id < 70; id++ {
		h := newFakeHolder(id)
		holders = append(holders, h)
		b.Attach(h)
	}
	for _, master := range []int{3, 66, 99} {
		if _, err := b.Execute(&Transaction{MasterID: master, Op: core.BusRead, Addr: 9}); err != nil {
			t.Fatal(err)
		}
		for i, h := range holders {
			want := 0
			if i >= 64 && i != master {
				want = 1
			}
			if h.queries != want {
				t.Errorf("master %d: slot %d queried %d times, want %d", master, i, h.queries, want)
			}
			h.queries = 0
		}
	}
	if got := len(b.dir.table); got != 2*64*8 {
		t.Errorf("directory sized to %d entries, want %d for 64 holders of 8 lines", got, 2*64*8)
	}
}

// TestStaleHolderFailsParanoid: a directory bit whose holder does not
// hold the line fails a paranoid bus, releasing every directory.
func TestStaleHolderFailsParanoid(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16, Paranoid: true})
	stale, bystander := newFakeHolder(1), &fakeSnooper{id: 2}
	b.Attach(stale)
	b.Attach(bystander)
	stale.p.Note(4, true) // reported, but not held
	_, err := b.Execute(&Transaction{MasterID: 0, Op: core.BusRead, Addr: 4})
	if err == nil || !strings.Contains(err.Error(), "stale presence bit") {
		t.Fatalf("stale bit: err = %v", err)
	}
	if stale.locked || bystander.locked || stale.cancels != 1 || bystander.cancels != 1 {
		t.Error("a queried directory was not released")
	}
}

// TestSnoopErrFailsTransaction: a snooper answering with Err (a "—"
// cell) fails the transaction with that error after every queried
// directory is cancelled; nothing commits.
func TestSnoopErrFailsTransaction(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16})
	illegal := errors.New("illegal bus event")
	first := &fakeSnooper{id: 1, resp: respond("S,CH", nil)}
	bad := &fakeSnooper{id: 2, resp: func(*Transaction) SnoopResponse { return SnoopResponse{Hit: true, Err: illegal} }}
	b.Attach(first)
	b.Attach(bad)
	if _, err := b.Execute(&Transaction{MasterID: 0, Op: core.BusRead, Addr: 4}); !errors.Is(err, illegal) {
		t.Fatalf("err = %v, want the snooper's", err)
	}
	for _, s := range []*fakeSnooper{first, bad} {
		if s.locked || s.cancels != 1 || len(s.commits) != 0 {
			t.Errorf("snooper %d: locked=%t cancels=%d commits=%d", s.id, s.locked, s.cancels, len(s.commits))
		}
	}
}
