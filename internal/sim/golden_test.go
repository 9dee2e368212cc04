package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
)

// Determinism goldens: the SHA-256 of the .fbt event stream and of the
// JSON-encoded Metrics for two seeded deterministic runs. The hashes
// were captured before the reference loop was made allocation-free and
// must never need regenerating for a host-performance change — they
// pin "byte-identical same-seed traces" across refactors of the hot
// path. A change that alters simulated behaviour on purpose updates
// them and says why.
const (
	goldenMixedTrace   = "75f129c403e465616842537bdab5fd52290557e140fb908a083a104c69fa71df"
	goldenMixedMetrics = "cfa8b4f8c4593aff7ff2bd19f8d15d3a8f12df303b8b7fd1d7b984a1805ce0b2"
	goldenCellTrace    = "505ce21d4a3b84a91cd4bf7e0b162a30772041d836d45e885bdf1dd65ccb7ee7"
	goldenCellMetrics  = "9b33f2edb19b4ff207ed8d1c8db68d93cf6876657bec7ffd0f4077eddc1d10ef"
)

// Export and analyzer goldens of the mixed run: every byte the event
// stream turns into outside the .fbt — the JSONL and Chrome exports,
// the audit text of every line, and the JSON of the watch report, the
// perf snapshot and the coherence analysis. They were captured before
// the event layout and the drain were reworked, and pin that the
// sinks' output did not move with them.
const (
	goldenMixedJSONL     = "674487bdeb637769b689263f2a66c15c60aac81f896fe70cb23bb1eb1eab7af7"
	goldenMixedChrome    = "b4c6ceebc997ab9a8a49a2af091c5a547eb344e2b2811e722739d375831c5030"
	goldenMixedAudit     = "db14ac6e82a6c8e52905a437c131bd3dc5f6bb572dec0622054acde540c1b2b3"
	goldenMixedWatch     = "e44b7fdb7a58a917c41ca26e12f826b08de9e996b51e6c06f887cdb9cc2017d5"
	goldenMixedPerf      = "e5838d38cac76313bdabe1cf74b0c337d8a99ec4da8adb6ef7a68499945aea96"
	goldenMixedCoherence = "5779c65a0bb736ea0e692e20304904c3c878438501a5214e04ae56356923f402"
)

func sha(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

func jsonSHA(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sha(b)
}

// goldenDigests returns the hex SHA-256 of a recorded stream and of the
// run's Metrics.
func goldenDigests(t *testing.T, raw []byte, m Metrics) (trace, metrics string) {
	t.Helper()
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	ts, ms := sha256.Sum256(raw), sha256.Sum256(js)
	return hex.EncodeToString(ts[:]), hex.EncodeToString(ms[:])
}

func checkGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest changed: got %s, want %s", what, got, want)
	}
}

// TestDeterminismGoldenMixed: a mixed 8-board system — invalidate,
// update, BS-abort, write-through, sector and uncached members — on a
// 4-shard fabric with split tenure and round-robin arbitration, traced
// through the record, watch and perf sinks.
func TestDeterminismGoldenMixed(t *testing.T) {
	var buf, jsonl, chrome bytes.Buffer
	mon := watch.New(watch.Config{})
	ps := perf.NewSink(0)
	var an coherence.Analyzer
	audit := obs.NewLineAuditSink(0)
	addrs := map[uint64]bool{}
	rec := obs.New(obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "golden mixed"}), mon, ps,
		obs.NewJSONLSink(&jsonl), obs.NewChromeTraceSink(&chrome), audit, &an,
		obs.SinkFunc(func(e *obs.Event) { addrs[e.Addr] = true }))
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"}, {Protocol: "dragon"}, {Protocol: "berkeley"}, {Protocol: "illinois"},
			{Protocol: "write-through"}, {Protocol: "moesi-invalidate", SectorSubs: 2},
			{Protocol: "moesi-update"}, {Protocol: "uncached"},
		},
		Shadow: true, Obs: rec,
		Shards: 4, Tenure: "split", Discipline: "rr", PendingTable: 2,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 1986)}
	m, err := eng.Run(1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Checker().MustPass(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := mon.Report(); rep.Total != 0 {
		t.Fatalf("watch monitor flagged %d violations (first: %v)", rep.Total, rep.First)
	}
	if m.Bus.Nacks == 0 || m.Bus.Aborts == 0 {
		t.Fatalf("run exercises neither NACKs (%d) nor BS aborts (%d); the golden would not cover them",
			m.Bus.Nacks, m.Bus.Aborts)
	}
	tr, mt := goldenDigests(t, buf.Bytes(), m)
	checkGolden(t, "mixed .fbt", tr, goldenMixedTrace)
	checkGolden(t, "mixed Metrics", mt, goldenMixedMetrics)

	lines := make([]uint64, 0, len(addrs))
	for a := range addrs {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	var trail bytes.Buffer
	for _, a := range lines {
		trail.WriteString(audit.Explain(a))
	}
	checkGolden(t, "mixed JSONL", sha(jsonl.Bytes()), goldenMixedJSONL)
	checkGolden(t, "mixed Chrome trace", sha(chrome.Bytes()), goldenMixedChrome)
	checkGolden(t, "mixed audit text", sha(trail.Bytes()), goldenMixedAudit)
	checkGolden(t, "mixed watch report", jsonSHA(t, mon.Report()), goldenMixedWatch)
	checkGolden(t, "mixed perf snapshot", jsonSHA(t, ps.Snapshot()), goldenMixedPerf)
	checkGolden(t, "mixed coherence analysis", jsonSHA(t, an.Analyze(0)), goldenMixedCoherence)
}

// TestDeterminismGoldenBatteryCell: one P1 cell (4×moesi on the
// Archibald–Baer workload) as the battery runs it, with the shared
// recorder a traced sweep hands every experiment.
func TestDeterminismGoldenBatteryCell(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.New(obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "golden P1"}), perf.NewSink(0))
	opts := ExperimentOpts{RefsPerProc: 3000, Seed: 1986, Obs: rec}
	m, err := runHomogeneous("moesi", 4, 0.1, 0.3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, mt := goldenDigests(t, buf.Bytes(), m)
	checkGolden(t, "P1 cell .fbt", tr, goldenCellTrace)
	checkGolden(t, "P1 cell Metrics", mt, goldenCellMetrics)
}
