package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"futurebus/internal/core"
)

// TestEventLayout pins the compact event: at most 152 bytes and no
// pointer anywhere in it, so rings and buffers of events are memory the
// garbage collector never scans.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 152 {
		t.Errorf("Sizeof(Event) = %d bytes, want <= 152", n)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint16, reflect.Uint64:
		default:
			t.Errorf("Event.%s is a %s; the event must hold only fixed-size scalars", f.Name, f.Type)
		}
	}
}

// TestWellKnownSymbols: every well-known name interns to its constant,
// the names are distinct, symbol 0 is the empty name, and the state
// letter symbols follow core.State.
func TestWellKnownSymbols(t *testing.T) {
	seen := map[string]Sym{}
	for i, name := range symNames {
		s := Sym(i)
		if prev, dup := seen[name]; dup {
			t.Errorf("name %q is both symbol %d and %d", name, prev, s)
		}
		seen[name] = s
		if got := Intern(name); got != s {
			t.Errorf("Intern(%q) = %d, want %d", name, got, s)
		}
		if s.String() != name {
			t.Errorf("Sym(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
	if Sym(0).String() != "" || Intern("") != 0 {
		t.Error("symbol 0 must be the empty name")
	}
	for _, c := range []struct {
		s    Sym
		name string
	}{{KindTx, "tx"}, {KindRetryExhausted, "retry-exhausted"}, {OpAddrOnly, "A"},
		{CauseEvict, "evict"}, {CauseSnoopClean, "snoop-clean"}, {SymUnknown, "unknown"}} {
		if c.s.String() != c.name {
			t.Errorf("%d.String() = %q, want %q", c.s, c.s.String(), c.name)
		}
	}
	for _, st := range core.States {
		sym := StateSym(st)
		if sym.String() != st.Letter() {
			t.Errorf("StateSym(%s) = %q, want %q", st, sym, st.Letter())
		}
		if back, ok := SymState(sym); !ok || back != st {
			t.Errorf("SymState(%q) = %v, %t", sym, back, ok)
		}
	}
	if st, ok := SymState(StateV); !ok || st != core.Shared {
		t.Errorf("SymState(V) = %v, %t; §3.3 equates V with S", st, ok)
	}
	if _, ok := SymState(CauseFill); ok {
		t.Error("a cause symbol read as a state letter")
	}
	for s := Sym(0); s < numWellKnown; s++ {
		if got, want := s.SnoopCause(), strings.HasPrefix(s.String(), "snoop-"); got != want {
			t.Errorf("%q.SnoopCause() = %t, want %t", s, got, want)
		}
	}
	if !Intern("snoop-novel-column").SnoopCause() || Intern("snoopish").SnoopCause() {
		t.Error("SnoopCause must follow the snoop- prefix for interned names")
	}
}

// TestSymJSON: a symbol marshals as its name, an empty one is omitted,
// and an unseen name decodes to a fresh symbol with that name.
func TestSymJSON(t *testing.T) {
	e := Event{Kind: KindState, Proc: 2, From: StateI, To: StateM, Cause: CauseFill, Proto: Intern("moesi")}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"ts":0,"kind":"state","bus":0,"proc":2,"addr":0,"from":"I","to":"M","cause":"fill","proto":"moesi"}`
	if string(b) != want {
		t.Errorf("JSON = %s\nwant   %s", b, want)
	}
	var back Event
	if err := json.Unmarshal([]byte(`{"kind":"json-only-kind","op":"R"}`), &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind.String() != "json-only-kind" || back.Op != OpRead {
		t.Errorf("decoded %+v", back)
	}
}

// TestSymbolTableBound: once the table holds its bound, a decoder that
// meets a new name fails with an error naming the event, the field and
// the bound, while known names and program-defined names still work.
func TestSymbolTableBound(t *testing.T) {
	known := encodeFBT(t, TraceMeta{}, []Event{
		{Kind: KindState, From: StateI, To: StateS, Cause: Intern("bound-test-cause")},
	})
	// A hand-written trace whose only event introduces a kind no one in
	// this process has named yet.
	fresh := append([]byte(TraceMagic), TraceVersion, 0, 0) // no fingerprint, no seed kinds
	fresh = append(fresh, 0)                                // kind ref 0: a new entry follows
	fresh = appendString(fresh, "bound-test-fresh-kind")
	fresh = append(fresh, 0, 0, 0, 0, 0, 0) // flags, seq, ts, bus, proc, addr

	symtab.mu.Lock()
	old := symtab.limit
	symtab.limit = len(*symtab.names.Load())
	symtab.mu.Unlock()
	defer func() {
		symtab.mu.Lock()
		symtab.limit = old
		symtab.mu.Unlock()
	}()

	if _, n, err := ReplayTrace(bytes.NewReader(known)); err != nil || n != 1 {
		t.Fatalf("replay of known names: n=%d err=%v", n, err)
	}
	_, _, err := ReplayTrace(bytes.NewReader(fresh))
	if err == nil || !strings.Contains(err.Error(), "fbt event 0 kind") || !strings.Contains(err.Error(), "symbol table full") {
		t.Errorf("decode past the bound: err = %v, want the event, the field and the bound", err)
	}
	if err := json.Unmarshal([]byte(`{"cause":"bound-test-json"}`), new(Event)); err == nil {
		t.Error("a JSONL decode past the bound must fail")
	}
	if s := Intern("bound-test-program-name"); s.String() != "bound-test-program-name" {
		t.Errorf("Intern past the decode bound = %q", s)
	}
}
