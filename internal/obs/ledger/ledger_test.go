package ledger

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sampleRecord(label string, metrics map[string]float64) Record {
	return Record{
		Schema: Schema,
		Kind:   KindPerf,
		Label:  label,
		Source: "test.json",
		Meta: Meta{
			GitSHA:     "abc1234",
			Go:         "go1.22.0",
			GOMAXPROCS: 8,
			CPUs:       8,
			DateUTC:    "2026-08-08T00:00:00Z",
		},
		Metrics: metrics,
	}
}

// TestLedgerSchemaAppendOnly pins the JSON field names of the ledger
// record, mirroring TestFbtSchemaAppendOnly: the ledger is an
// append-only file format read across many commits, so renaming or
// removing a field silently orphans every existing ledger line. If
// this test fails, the only acceptable fix is restoring the old names
// and ADDING new fields (bumping Schema if a field genuinely must
// change meaning).
func TestLedgerSchemaAppendOnly(t *testing.T) {
	rec := sampleRecord("battery/atomic/p8", map[string]float64{"perf.arb_wait_ns.p99": 4200})
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"schema", "kind", "label", "source", "_meta", "metrics"} {
		if _, ok := got[field]; !ok {
			t.Errorf("record is missing field %q — ledger field names are append-only", field)
		}
	}
	var meta map[string]json.RawMessage
	if err := json.Unmarshal(got["_meta"], &meta); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"git_sha", "go", "gomaxprocs", "cpus", "date_utc"} {
		if _, ok := meta[field]; !ok {
			t.Errorf("_meta is missing field %q — ledger field names are append-only", field)
		}
	}
	if Schema != 1 {
		t.Errorf("Schema = %d, want 1 — bump only when an existing field changes meaning", Schema)
	}
	for name, kind := range map[string]string{
		"KindBench": KindBench, "KindPerf": KindPerf, "KindCausal": KindCausal,
		"KindLens": KindLens, "KindSweep": KindSweep,
	} {
		want := map[string]string{
			"KindBench": "bench", "KindPerf": "fbperf", "KindCausal": "fbcausal",
			"KindLens": "fblens", "KindSweep": "fbsweep",
		}[name]
		if kind != want {
			t.Errorf("%s = %q, want %q — kind strings are part of the on-disk format", name, kind, want)
		}
	}
}

// TestHostMeta: the _meta block fbperf and fbsweep embed names the
// toolchain, the scheduler width, the CPU count and an RFC 3339 UTC
// date (the git SHA is best-effort and may be empty).
func TestHostMeta(t *testing.T) {
	m := HostMeta()
	if m.Go != runtime.Version() || m.GOMAXPROCS != runtime.GOMAXPROCS(0) || m.CPUs != runtime.NumCPU() {
		t.Errorf("HostMeta() = %+v, want go %s, gomaxprocs %d, cpus %d",
			m, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if _, err := time.Parse(time.RFC3339, m.DateUTC); err != nil || !strings.HasSuffix(m.DateUTC, "Z") {
		t.Errorf("date_utc %q is not an RFC 3339 UTC time (%v)", m.DateUTC, err)
	}
}

// TestAppendReadRoundTrip: records survive Append/Read bit-exact, and
// appending again extends the file instead of rewriting it.
func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	r1 := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 4200, "queue.peak_depth": 3})
	r2 := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 4300, "queue.peak_depth": 3})
	if err := Append(path, r1); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, r2); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	if !reflect.DeepEqual(recs[0], r1) || !reflect.DeepEqual(recs[1], r2) {
		t.Errorf("round-trip mismatch:\n got %+v\n     %+v\nwant %+v\n     %+v", recs[0], recs[1], r1, r2)
	}
}

// TestTruncatedTrailingRecordTolerated: a crashed writer leaves a
// partial last line; the reader must keep everything before it and
// report exactly one dropped record.
func TestTruncatedTrailingRecordTolerated(t *testing.T) {
	r1 := sampleRecord("a", map[string]float64{"m": 1})
	full, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	line := string(full)
	input := line + "\n" + line[:len(line)/2]
	recs, dropped, err := Decode(strings.NewReader(input))
	if err != nil {
		t.Fatalf("truncated tail must be tolerated, got %v", err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], r1) {
		t.Errorf("history before the truncation lost: got %d records", len(recs))
	}
}

// TestMidFileCorruptionIsAnError: a bad line FOLLOWED by more records
// is damage, not an interrupted append — refusing to guess beats
// silently skipping history.
func TestMidFileCorruptionIsAnError(t *testing.T) {
	r1 := sampleRecord("a", map[string]float64{"m": 1})
	full, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	line := string(full)
	for _, input := range []string{
		line + "\n{garbage\n" + line + "\n",               // bad then valid
		line + "\n{garbage\n{more garbage\n",              // bad then bad
		line + "\n" + `{"schema":1}` + "\n" + line + "\n", // kind-less then valid
	} {
		if _, _, err := Decode(strings.NewReader(input)); err == nil {
			t.Errorf("mid-file corruption not rejected for input %q", input)
		}
	}
}

// TestBlankLinesIgnored: blank separator lines (hand-edited ledgers)
// are not records and not corruption.
func TestBlankLinesIgnored(t *testing.T) {
	r1 := sampleRecord("a", map[string]float64{"m": 1})
	full, _ := json.Marshal(r1)
	recs, dropped, err := Decode(strings.NewReader("\n" + string(full) + "\n\n" + string(full) + "\n\n"))
	if err != nil || dropped != 0 || len(recs) != 2 {
		t.Errorf("blank lines mishandled: recs=%d dropped=%d err=%v", len(recs), dropped, err)
	}
}

func TestFilterAndKeys(t *testing.T) {
	recs := []Record{
		sampleRecord("a", map[string]float64{"x": 1, "y": 2}),
		sampleRecord("b", map[string]float64{"y": 3, "z": 4}),
		{Schema: Schema, Kind: KindBench, Metrics: map[string]float64{"w": 5}},
	}
	if got := Filter(recs, KindPerf, ""); len(got) != 2 {
		t.Errorf("Filter(kind=fbperf) = %d records, want 2", len(got))
	}
	if got := Filter(recs, KindPerf, "b"); len(got) != 1 || got[0].Label != "b" {
		t.Errorf("Filter(kind=fbperf,label=b) wrong: %+v", got)
	}
	if got := Filter(recs, "", ""); len(got) != 3 {
		t.Errorf("Filter(all) = %d records, want 3", len(got))
	}
	if got := Keys(recs); !reflect.DeepEqual(got, []string{"w", "x", "y", "z"}) {
		t.Errorf("Keys = %v, want [w x y z]", got)
	}
}

func TestSeries(t *testing.T) {
	recs := []Record{
		sampleRecord("a", map[string]float64{"m": 1}),
		sampleRecord("a", map[string]float64{"other": 9}),
		sampleRecord("a", map[string]float64{"m": 2}),
		sampleRecord("a", map[string]float64{"m": 3}),
	}
	if got := Series(recs, "m"); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("Series = %v, want [1 2 3]", got)
	}
}

// gateHistory builds n history records of one flat metric value. The
// p99 level is chosen well above the 1µs absolute ns floor so a 20%
// step is a genuine move, not floor-sized wobble.
func gateHistory(n int, v float64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = sampleRecord("a", map[string]float64{
			"perf.arb_wait_ns.p99":     v,
			"host.alloc_bytes_per_ref": 100,
			"host.wall_ns":             1e9 * float64(1+i%3), // noisy advisory
		})
	}
	return recs
}

// TestGateCleanOnRepeat is the acceptance contract's clean half: a
// candidate identical to a 5-run flat baseline gates ok — including
// wildly noisy advisory metrics, which must never flip the verdict.
func TestGateCleanOnRepeat(t *testing.T) {
	hist := gateHistory(5, 42000)
	cand := sampleRecord("a", map[string]float64{
		"perf.arb_wait_ns.p99":     42000,
		"host.alloc_bytes_per_ref": 100,
		"host.wall_ns":             9e9, // 3-9x the history: advisory, must not gate
	})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "ok" {
		t.Fatalf("verdict = %q, want ok (report %+v)", rep.Verdict, rep)
	}
	if rep.Regressions != 0 {
		t.Errorf("regressions = %d, want 0", rep.Regressions)
	}
}

// TestGateCatchesInjectedRegression is the acceptance contract's other
// half: a ≥20% p99 step against a 5-run rolling baseline exits the
// gate regressed, and an allocation step is caught the same way.
func TestGateCatchesInjectedRegression(t *testing.T) {
	hist := gateHistory(5, 42000)
	cand := sampleRecord("a", map[string]float64{
		"perf.arb_wait_ns.p99":     42000 * 1.20,
		"host.alloc_bytes_per_ref": 100 * 1.25,
	})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "regressed" {
		t.Fatalf("verdict = %q, want regressed (report %+v)", rep.Verdict, rep)
	}
	if rep.Regressions != 2 {
		t.Errorf("regressions = %d, want 2 (p99 and alloc_bytes)", rep.Regressions)
	}
	for _, row := range rep.Rows {
		if row.Key == "perf.arb_wait_ns.p99" && row.Direction != "regressed" {
			t.Errorf("p99 row direction = %q, want regressed", row.Direction)
		}
	}
}

// TestGateBetterUpMetricImprovement: a big jump in a better-up metric
// (fairness) classifies improved, not regressed.
func TestGateBetterUpMetricImprovement(t *testing.T) {
	hist := make([]Record, 5)
	for i := range hist {
		hist[i] = sampleRecord("a", map[string]float64{"queue.arb_fairness": 0.5})
	}
	cand := sampleRecord("a", map[string]float64{"queue.arb_fairness": 0.9})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "ok" || rep.Improvements != 1 {
		t.Errorf("fairness jump: verdict=%q improvements=%d, want ok/1 (%+v)", rep.Verdict, rep.Improvements, rep.Rows)
	}
	// And the bad direction still trips.
	worse := sampleRecord("a", map[string]float64{"queue.arb_fairness": 0.2})
	if rep := Gate(hist, worse, GateOpts{}); rep.Verdict != "regressed" {
		t.Errorf("fairness drop: verdict=%q, want regressed", rep.Verdict)
	}
}

// TestGateNoBaseline: a single prior run is a pairwise diff, not a
// baseline — the gate must refuse a verdict rather than invent one.
func TestGateNoBaseline(t *testing.T) {
	hist := gateHistory(1, 42000)
	cand := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 9000})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "no-baseline" {
		t.Errorf("verdict = %q, want no-baseline", rep.Verdict)
	}
	if rep := Gate(nil, cand, GateOpts{}); rep.Verdict != "no-baseline" {
		t.Errorf("empty history verdict = %q, want no-baseline", rep.Verdict)
	}
}

// TestGateWindowSlides: only the trailing Window runs form the
// baseline, so an old bad era scrolls out of judgment.
func TestGateWindowSlides(t *testing.T) {
	hist := append(gateHistory(10, 90000), gateHistory(5, 42000)...)
	cand := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 42000})
	rep := Gate(hist, cand, GateOpts{Window: 5})
	if rep.Verdict != "ok" {
		t.Fatalf("verdict = %q, want ok — the 90000ns era must have scrolled out", rep.Verdict)
	}
	for _, row := range rep.Rows {
		if row.Key == "perf.arb_wait_ns.p99" && row.Baseline.Median != 42000 {
			t.Errorf("baseline median = %v, want 42000 (window did not slide)", row.Baseline.Median)
		}
	}
}
