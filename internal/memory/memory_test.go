package memory

import (
	"bytes"
	"testing"
	"testing/quick"

	"futurebus/internal/bus"
)

// TestPowerOnDefault: unwritten lines read as zero — "in the absence of
// information to the contrary, data in shared memory is defined to be
// valid (e.g. at power-on)" (§3.1.1).
func TestPowerOnDefault(t *testing.T) {
	m := New(32)
	line := m.ReadLine(0x123)
	if len(line) != 32 || !bytes.Equal(line, make([]byte, 32)) {
		t.Errorf("power-on line = %x", line)
	}
}

// TestWriteReadPeek: writes persist; Peek does not count as a read.
func TestWriteReadPeek(t *testing.T) {
	m := New(16)
	data := bytes.Repeat([]byte{0xAB}, 16)
	m.WriteLine(7, data)
	if got := m.ReadLine(7); !bytes.Equal(got, data) {
		t.Errorf("read back %x", got)
	}
	if got := m.Peek(7); !bytes.Equal(got, data) {
		t.Errorf("peek %x", got)
	}
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats %+v (Peek must not count)", st)
	}
	if m.PopulatedLines() != 1 {
		t.Errorf("populated = %d", m.PopulatedLines())
	}
}

// TestReturnedSlicesAreCopies: callers cannot alias memory's storage.
func TestReturnedSlicesAreCopies(t *testing.T) {
	m := New(8)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteLine(1, data)
	got := m.ReadLine(1)
	got[0] = 0xFF
	data[1] = 0xEE
	if fresh := m.ReadLine(1); fresh[0] == 0xFF || fresh[1] == 0xEE {
		t.Errorf("memory aliased caller slices: %x", fresh)
	}
}

// TestReadLineOwnership pins the bus.MemoryPort contract the bus relies
// on to skip copies: ReadLine returns a fresh slice the caller owns
// (the bus merges partial writes into it in place), and WriteLine keeps
// no reference to its argument even when it reuses the stored buffer.
func TestReadLineOwnership(t *testing.T) {
	m := New(8)
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteLine(2, orig)
	got := m.ReadLine(2)
	got[0] = 0xFF
	if peek := m.Peek(2); !bytes.Equal(peek, orig) {
		t.Fatalf("mutating ReadLine's result changed memory: %x", peek)
	}
	// A second write reuses the stored buffer: neither an earlier Peek
	// nor the caller's buffer may alias it.
	before := m.Peek(2)
	next := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	m.WriteLine(2, next)
	next[0] = 0
	if !bytes.Equal(before, orig) {
		t.Fatalf("rewrite changed an earlier Peek: %x", before)
	}
	if peek := m.Peek(2); !bytes.Equal(peek, []byte{9, 9, 9, 9, 9, 9, 9, 9}) {
		t.Fatalf("memory aliased the writer's buffer: %x", peek)
	}
	if a, b := m.ReadLine(3), m.ReadLine(3); &a[0] == &b[0] {
		t.Fatal("power-on reads share one buffer")
	}
}

// TestWriteSizePanics: the §5.1 standard line size is enforced.
func TestWriteSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short write accepted")
		}
	}()
	New(32).WriteLine(0, make([]byte, 16))
}

// TestBadLineSizePanics: a memory module needs a positive line size.
func TestBadLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero line size accepted")
		}
	}()
	New(0)
}

// TestLastWriteWinsProperty: memory is a map of lines — the last write
// to an address is what any later read returns.
func TestLastWriteWinsProperty(t *testing.T) {
	f := func(writes []uint16) bool {
		m := New(8)
		last := map[bus.Addr][]byte{}
		for i, w := range writes {
			addr := bus.Addr(w % 16)
			line := bytes.Repeat([]byte{byte(i)}, 8)
			m.WriteLine(addr, line)
			last[addr] = line
		}
		for addr, want := range last {
			if !bytes.Equal(m.ReadLine(addr), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
