package faults

import (
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/protocols"
)

func TestWrapUnknown(t *testing.T) {
	if _, err := Wrap("time-travel", protocols.MOESI()); err == nil {
		t.Fatal("unknown fault should error")
	}
}

func TestWrapEmptyIsIdentity(t *testing.T) {
	p := protocols.MOESI()
	got, err := Wrap("", p)
	if err != nil || got != p {
		t.Fatalf("empty fault should return the policy unchanged (%v, %v)", got, err)
	}
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct{ in, proto, fault string }{
		{"moesi", "moesi", ""},
		{"moesi+drop-inv", "moesi", "drop-inv"},
		{"berkeley+skip-copyback", "berkeley", "skip-copyback"},
	} {
		p, f := Split(tc.in)
		if p != tc.proto || f != tc.fault {
			t.Errorf("Split(%q) = %q,%q want %q,%q", tc.in, p, f, tc.proto, tc.fault)
		}
	}
}

func TestCatalogCoversEveryWrapper(t *testing.T) {
	cat := Catalog()
	if len(cat) != len(Names()) || len(cat) == 0 {
		t.Fatalf("catalog/names mismatch: %d vs %d", len(cat), len(Names()))
	}
	for _, f := range cat {
		p, err := Wrap(f.Name, protocols.MOESI())
		if err != nil {
			t.Fatalf("Wrap(%s): %v", f.Name, err)
		}
		if want := protocols.MOESI().Name() + "+" + f.Name; p.Name() != want {
			t.Errorf("wrapped name %q, want %q", p.Name(), want)
		}
		if f.Expect == "" || f.Description == "" {
			t.Errorf("fault %s missing Expect/Description", f.Name)
		}
	}
}

// TestWrappersCorruptOnlyTheirCell: each wrapper changes the targeted
// decision and delegates everything else to the base policy.
func TestWrappersCorruptOnlyTheirCell(t *testing.T) {
	base := protocols.MOESI()

	p, _ := Wrap("drop-inv", base)
	a, ok := p.ChooseSnoop(core.Shared, core.BusCacheRFO)
	if !ok || a.Next.NoCH != core.Shared {
		t.Errorf("drop-inv should keep S on col 6: %v", a)
	}
	if a, _ := p.ChooseSnoop(core.Shared, core.BusCacheRead); a.Next.NoCH != core.Shared {
		t.Errorf("drop-inv should not touch col 5: %v", a)
	}

	p, _ = Wrap("stale-owner", base)
	if a, _ := p.ChooseSnoop(core.Modified, core.BusCacheRFO); a.Next.NoCH != core.Modified || !a.AssertDI {
		t.Errorf("stale-owner should keep M with DI on col 6: %v", a)
	}

	p, _ = Wrap("corrupt-snoop", base)
	if a, _ := p.ChooseSnoop(core.Modified, core.BusCacheRead); a.Next.NoCH != core.Shared {
		t.Errorf("corrupt-snoop should land in S on col 5: %v", a)
	}

	p, _ = Wrap("skip-copyback", base)
	if a, _ := p.ChooseLocal(core.Modified, core.Flush); a.NeedsBus() || a.Next.NoCH != core.Invalid {
		t.Errorf("skip-copyback should drop M silently: %v", a)
	}
	if a, _ := p.ChooseLocal(core.Shared, core.Flush); a.NeedsBus() {
		t.Errorf("clean flush should stay silent: %v", a)
	}

	p, _ = Wrap("mute-owner", base)
	if a, _ := p.ChooseSnoop(core.Modified, core.BusCacheRead); a.AssertDI {
		t.Errorf("mute-owner must not intervene: %v", a)
	}

	p, _ = Wrap("phantom-fill", base)
	if a, _ := p.ChooseLocal(core.Invalid, core.LocalRead); a.Next.OnCH != core.Modified {
		t.Errorf("phantom-fill should install M: %v", a)
	}
}

// TestWrapKeepsPurity: a fault rewrites fixed cells, so a wrapped
// policy chooses as purely as the policy it wraps — a wrapper that hid
// the property would send a correct board's predictions through the
// deterministic engine's re-poll path, and one that claimed it for a
// dynamic chooser would let the engine skip polls that consume choices.
func TestWrapKeepsPurity(t *testing.T) {
	for _, name := range Names() {
		for proto, want := range map[string]bool{"moesi": true, "random": false} {
			p, err := protocols.New(proto)
			if err != nil {
				t.Fatal(err)
			}
			w, err := Wrap(name, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := core.PureLocalChoice(w); got != want {
				t.Errorf("%s+%s: PureLocalChoice = %v, want %v", proto, name, got, want)
			}
		}
	}
}
