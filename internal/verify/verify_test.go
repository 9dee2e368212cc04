package verify

import (
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/protocols"
)

// explore runs Explore on a valid board count.
func explore(t *testing.T, boards []Chooser) Result {
	t.Helper()
	res, err := Explore(boards)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClassExhaustivelyConsistent is the compatibility theorem, proved
// by exhaustion in the abstract model: two and three copy-back boards,
// each free to take ANY class action at every instant, never reach a
// state violating the §3.1 invariants.
func TestClassExhaustivelyConsistent(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		boards := make([]Chooser, n)
		for i := range boards {
			boards[i] = ClassChooser{Variant: core.CopyBack}
		}
		res := explore(t, boards)
		if !res.Ok() {
			t.Fatalf("%d copy-back boards:\n%s", n, res)
		}
		if res.States < 10 {
			t.Fatalf("suspiciously small exploration: %s", res)
		}
		t.Logf("%d boards: %s", n, res)
	}
}

// TestClassWithWriteThroughAndUncached adds the * and ** variants of
// Table 1 to the mix — still exhaustively consistent.
func TestClassWithWriteThroughAndUncached(t *testing.T) {
	res := explore(t, []Chooser{
		ClassChooser{Variant: core.CopyBack},
		ClassChooser{Variant: core.CopyBack},
		ClassChooser{Variant: core.WriteThrough},
		ClassChooser{Variant: core.NonCaching},
	})
	if !res.Ok() {
		t.Fatalf("mixed variants:\n%s", res)
	}
	t.Logf("%s", res)
}

// TestProtocolsSelfConsistent: each concrete protocol (its full
// extended table, including the BS cells of the adapted ones) is
// exhaustively consistent in a protocol-pure three-board system.
func TestProtocolsSelfConsistent(t *testing.T) {
	for _, name := range []string{
		"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
		"illinois", "write-once", "firefly", "write-through", "synapse",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := protocols.New(name)
			if err != nil {
				t.Fatal(err)
			}
			boards := []Chooser{
				TableChooser{Table: p.Table()},
				TableChooser{Table: p.Table()},
				TableChooser{Table: p.Table()},
			}
			res := explore(t, boards)
			if !res.Ok() {
				t.Fatalf("%s:\n%s", name, res)
			}
			t.Logf("%s: %s", name, res)
		})
	}
}

// TestClassMembersMixExhaustively: true class members mix freely — the
// central claim of the paper, for every pair drawn from the in-class
// protocols plus a write-through board.
func TestClassMembersMixExhaustively(t *testing.T) {
	members := []string{"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon"}
	for i, a := range members {
		for _, b := range members[i:] {
			pa, err := protocols.New(a)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := protocols.New(b)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := protocols.New("write-through")
			if err != nil {
				t.Fatal(err)
			}
			res := explore(t, []Chooser{
				TableChooser{Table: pa.Table()},
				TableChooser{Table: pb.Table()},
				TableChooser{Table: wt.Table()},
			})
			if !res.Ok() {
				t.Errorf("%s + %s + write-through:\n%s", a, b, res)
			}
		}
	}
}

// TestWriteOnceHazardFound: the checker rediscovers why Write-Once's
// §4.3 adaptation is protocol-pure-only — mixed with an O-capable class
// member, its write-through-and-invalidate can leave the only current
// copy unowned with stale memory.
func TestWriteOnceHazardFound(t *testing.T) {
	wo, err := protocols.New("write-once")
	if err != nil {
		t.Fatal(err)
	}
	moesi, err := protocols.New("moesi")
	if err != nil {
		t.Fatal(err)
	}
	res := explore(t, []Chooser{
		TableChooser{Table: wo.Table()},
		TableChooser{Table: moesi.Table()},
	})
	if res.Ok() {
		t.Fatal("the Write-Once × MOESI hazard was not found — either the adaptation is safe (it is not) or the model lost precision")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Reason, string(core.InvMemoryOwner)) {
			found = true
			t.Logf("hazard witness:\n%s", v)
			break
		}
	}
	if !found {
		t.Errorf("expected a stale-memory violation, got:\n%s", res)
	}
}

// TestFireflyHazardFound: same for Firefly's §4.5 unowned broadcast
// write.
func TestFireflyHazardFound(t *testing.T) {
	ff, err := protocols.New("firefly")
	if err != nil {
		t.Fatal(err)
	}
	berk, err := protocols.New("berkeley")
	if err != nil {
		t.Fatal(err)
	}
	res := explore(t, []Chooser{
		TableChooser{Table: ff.Table()},
		TableChooser{Table: berk.Table()},
	})
	if res.Ok() {
		t.Fatal("the Firefly × Berkeley hazard was not found")
	}
	t.Logf("found %d violations (first: %s)", len(res.Violations), res.Violations[0].Reason)
}

// TestSynapseMixesSafely: Synapse (BS, no §4 adapted actions) shares a
// bus with any class member, unlike Write-Once/Firefly.
func TestSynapseMixesSafely(t *testing.T) {
	syn, err := protocols.New("synapse")
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"moesi", "berkeley", "dragon"} {
		p, err := protocols.New(other)
		if err != nil {
			t.Fatal(err)
		}
		res := explore(t, []Chooser{
			TableChooser{Table: syn.Table()},
			TableChooser{Table: p.Table()},
			ClassChooser{Variant: core.NonCaching},
		})
		if !res.Ok() {
			t.Errorf("synapse × %s:\n%s", other, res)
		}
	}
}

// TestSynapseRefetchVariantSafe: the historically faithful Synapse
// write hit ("M,CA,IM,R" from S) is NotInClass under the letter of
// Table 1 but exhaustively safe — the model checker extends the
// validator's reach.
func TestSynapseRefetchVariantSafe(t *testing.T) {
	refetch := protocols.SynapseRefetchTable()
	if core.Validate(refetch, core.CopyBack).Verdict == core.RequiresBS {
		t.Log("note: refetch write-hit unexpectedly entered the class")
	}
	moesi, err := protocols.New("moesi")
	if err != nil {
		t.Fatal(err)
	}
	res := explore(t, []Chooser{
		TableChooser{Table: refetch},
		TableChooser{Table: refetch},
		TableChooser{Table: moesi.Table()},
	})
	if !res.Ok() {
		t.Fatalf("refetch variant:\n%s", res)
	}
	t.Logf("refetch variant: %s", res)
}

// brokenChooser adds a silent shared write to an otherwise-legal class
// chooser — the textbook coherence bug.
type brokenChooser struct{ ClassChooser }

func (b brokenChooser) Name() string { return "broken" }

func (b brokenChooser) LocalChoices(s core.State, e core.LocalEvent) []core.LocalAction {
	out := b.ClassChooser.LocalChoices(s, e)
	if s == core.Shared && e == core.LocalWrite {
		out = append(out, core.LocalAction{Next: core.Uncond(core.Modified)})
	}
	return out
}

// TestBrokenPolicyCaught: the silent shared write produces a stale-copy
// violation with a usable trace.
func TestBrokenPolicyCaught(t *testing.T) {
	res := explore(t, []Chooser{
		brokenChooser{ClassChooser{Variant: core.CopyBack}},
		ClassChooser{Variant: core.CopyBack},
	})
	if res.Ok() {
		t.Fatal("silent shared write not caught")
	}
	v := res.Violations[0]
	if len(v.Trace) == 0 {
		t.Error("violation has no trace")
	}
	t.Logf("caught:\n%s", v)
}

// TestIllegalCellReachedCaught: the partial paper tables (Berkeley as
// printed, columns 5–6 only) reach "—" cells on a full bus; the checker
// reports exactly that instead of guessing.
func TestIllegalCellReachedCaught(t *testing.T) {
	res := explore(t, []Chooser{
		TableChooser{Table: core.PaperTable3()}, // partial: no col 7, no Flush
		ClassChooser{Variant: core.NonCaching},  // generates col 7/9
	})
	if res.Ok() {
		t.Fatal("partial table against a non-caching master should reach an undefined cell")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Reason, "—") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a \"—\"-reached violation:\n%s", res)
	}
}

// TestResultRendering: Result and Violation format usefully.
func TestResultRendering(t *testing.T) {
	res := explore(t, []Chooser{ClassChooser{Variant: core.CopyBack}})
	if !strings.Contains(res.String(), "verified") {
		t.Errorf("ok result renders %q", res.String())
	}
	s := sysState{n: 2, memCurrent: true}
	s.boards[0] = boardView{state: core.Modified, current: true}
	s.boards[1] = boardView{state: core.Invalid}
	if got := s.String(); !strings.Contains(got, "[0:M+]") || !strings.Contains(got, "mem+") {
		t.Errorf("state renders %q", got)
	}
}

// TestWriteThroughMixesWithProtocolTables: a write-through board (a
// class member) mixes with every concrete protocol's full table —
// including the BS-adapted Illinois and Synapse, whose aborts are
// class-safe, but NOT the §4-adapted pure-only protocols.
func TestWriteThroughMixesWithProtocolTables(t *testing.T) {
	wt, err := protocols.New("write-through-broadcast")
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"moesi", "berkeley", "dragon", "illinois", "synapse"} {
		p, err := protocols.New(other)
		if err != nil {
			t.Fatal(err)
		}
		res := explore(t, []Chooser{
			TableChooser{Table: p.Table()},
			TableChooser{Table: p.Table()},
			TableChooser{Table: wt.Table()},
		})
		if !res.Ok() {
			t.Errorf("%s × write-through:\n%s", other, res)
		}
	}
}

// TestFourWayProtocolMix: the widest tractable exploration — four
// different class members on one bus, every choice branch taken.
func TestFourWayProtocolMix(t *testing.T) {
	names := []string{"moesi", "berkeley", "dragon", "write-through-broadcast"}
	boards := make([]Chooser, len(names))
	for i, n := range names {
		p, err := protocols.New(n)
		if err != nil {
			t.Fatal(err)
		}
		boards[i] = TableChooser{Table: p.Table()}
	}
	res := explore(t, boards)
	if !res.Ok() {
		t.Fatalf("four-way mix:\n%s", res)
	}
	t.Logf("four-way mix: %s", res)
}

// TestExplorePinned pins every exploration moesi-verify runs at 2, 3
// and 4 boards: reachable states, transitions, the number of distinct
// violating states and the event path to the first violation. A
// refactor of the checker must reach the same states and blame the same
// ones.
func TestExplorePinned(t *testing.T) {
	class := func(n int) []Chooser {
		boards := make([]Chooser, n)
		for i := range boards {
			boards[i] = ClassChooser{Variant: core.CopyBack}
		}
		return boards
	}
	tables := func(names ...string) []Chooser {
		var boards []Chooser
		for _, name := range names {
			p, err := protocols.New(name)
			if err != nil {
				t.Fatal(err)
			}
			boards = append(boards, TableChooser{Table: p.Table()})
		}
		return boards
	}
	pure := func(name string) []Chooser { return tables(name, name, name) }
	for _, tc := range []struct {
		name                string
		boards              []Chooser
		states, transitions int
		violatingStates     int
		witness             []string
	}{
		{"class-2", class(2), 18, 229, 0, nil},
		{"class-3", class(3), 41, 1000, 0, nil},
		{"class-4", class(4), 92, 4097, 0, nil},
		{"class+wt+nc", []Chooser{
			ClassChooser{Variant: core.CopyBack},
			ClassChooser{Variant: core.CopyBack},
			ClassChooser{Variant: core.WriteThrough},
			ClassChooser{Variant: core.NonCaching},
		}, 30, 858, 0, nil},
		{"berkeley", pure("berkeley"), 23, 169, 0, nil},
		{"dragon", pure("dragon"), 41, 253, 0, nil},
		{"firefly", pure("firefly"), 14, 67, 0, nil},
		{"illinois", pure("illinois"), 14, 91, 0, nil},
		{"moesi", pure("moesi"), 41, 307, 0, nil},
		{"moesi-adaptive", pure("moesi-adaptive"), 41, 400, 0, nil},
		{"moesi-invalidate", pure("moesi-invalidate"), 26, 187, 0, nil},
		{"moesi-update", pure("moesi-update"), 41, 253, 0, nil},
		{"synapse", pure("synapse"), 11, 73, 0, nil},
		{"write-once", pure("write-once"), 14, 97, 0, nil},
		{"write-through", pure("write-through"), 8, 49, 0, nil},
		{"write-through-broadcast", pure("write-through-broadcast"), 8, 49, 0, nil},
		{"write-once×moesi", tables("write-once", "moesi"), 26, 129, 13, []string{
			"board 1 write miss RFO (M,CA,IM,R)",
			"board 0 read miss (S,CA,R, col 5)",
			"board 0 write (E,CA,IM,W, col 6)",
		}},
		{"firefly×berkeley", tables("firefly", "berkeley"), 21, 93, 12, []string{
			"board 1 write miss RFO (M,CA,IM,R)",
			"board 0 read miss (CH:S/E,CA,R, col 5)",
			"board 0 write (CH:S/E,CA,IM,BC,W, col 8)",
		}},
	} {
		res := explore(t, tc.boards)
		violating := map[uint32]bool{}
		for _, v := range res.Violations {
			violating[v.State.key()] = true
		}
		var witness []string
		if len(res.Violations) > 0 {
			witness = res.Violations[0].Trace
		}
		if res.States != tc.states || res.Transitions != tc.transitions ||
			len(violating) != tc.violatingStates ||
			strings.Join(witness, "\n") != strings.Join(tc.witness, "\n") {
			t.Errorf("%s: %d states, %d transitions, %d violating states, witness %q; want %d, %d, %d, %q",
				tc.name, res.States, res.Transitions, len(violating), witness,
				tc.states, tc.transitions, tc.violatingStates, tc.witness)
		}
	}
}

// TestExploreRejectsBoardCount: a board count outside 1–4 is an error,
// not a panic.
func TestExploreRejectsBoardCount(t *testing.T) {
	for _, n := range []int{0, 5} {
		boards := make([]Chooser, n)
		for i := range boards {
			boards[i] = ClassChooser{Variant: core.CopyBack}
		}
		if _, err := Explore(boards); err == nil {
			t.Errorf("%d boards: no error", n)
		}
	}
}
