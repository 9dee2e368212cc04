package sim

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
)

// scheduleDigests pins the deterministic engine's schedule across the
// axes that steer it: board mix × shard count × tenure × arbitration
// discipline. Each cell's .fbt stream (record, watch and perf sinks
// attached) and Metrics JSON are hashed and compared with
// testdata/schedule_digests.txt. The digests were captured before the
// engine parked deferred boards on per-shard wait lists; a host-side
// change to the engine must leave every one of them unchanged.
//
// The cell golden-mixed/2/split/none is the one a wait list without
// the snoop-epoch re-check breaks: dragon board 1 parks a write to a
// line it holds Owned, then the uncached board reads that line. The
// owner serves the read (DI) and, with no other holder asserting CH,
// resolves CH:O/M to Modified. The parked write no longer needs the bus
// and must run where the heap re-poll would have run it.
const scheduleDigestFile = "testdata/schedule_digests.txt"

// scheduleMixes are the board sets of the digest table. They cover
// invalidate, update, BS-abort, write-through, sector, uncached and
// faulty members, and the dynamic policies whose predictions consume
// state.
var scheduleMixes = []struct {
	name   string
	boards []BoardSpec
}{
	{"bus-16", specs(
		"moesi", "moesi-invalidate", "berkeley", "dragon", "illinois", "synapse", "moesi-update", "write-through",
		"moesi", "moesi-invalidate", "berkeley", "dragon", "illinois", "synapse", "moesi-update", "write-through")},
	{"golden-mixed", []BoardSpec{
		{Protocol: "moesi"}, {Protocol: "dragon"}, {Protocol: "berkeley"}, {Protocol: "illinois"},
		{Protocol: "write-through"}, {Protocol: "moesi-invalidate", SectorSubs: 2},
		{Protocol: "moesi-update"}, {Protocol: "uncached"},
	}},
	{"dynamic", specs("random", "round-robin", "moesi-adaptive", "moesi")},
	{"write-once", specs("write-once", "write-once", "write-once", "write-once")},
	{"moesi-fault", []BoardSpec{
		{Protocol: "moesi", Fault: "corrupt-snoop"}, {Protocol: "moesi"}, {Protocol: "moesi"}, {Protocol: "moesi"},
	}},
	{"update-uncached", specs("dragon", "moesi-update", "uncached", "uncached")},
}

func specs(protocols ...string) []BoardSpec {
	out := make([]BoardSpec, len(protocols))
	for i, p := range protocols {
		out[i] = BoardSpec{Protocol: p}
	}
	return out
}

// scheduleCell runs one cell and returns its trace and Metrics digests.
func scheduleCell(t *testing.T, boards []BoardSpec, shards int, tenure, disc string) (trace, metrics string) {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.New(obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "schedule"}), watch.New(watch.Config{}), perf.NewSink(0))
	cfg := Config{
		Boards: boards, Shadow: true, Obs: rec,
		Shards: shards, Tenure: tenure, Discipline: disc,
	}
	if tenure == "split" {
		cfg.PendingTable = 2
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 1986)}
	m, err := eng.Run(800)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return goldenDigests(t, buf.Bytes(), m)
}

func TestScheduleDigests(t *testing.T) {
	// The race detector slows the table tenfold; under it, every mix
	// runs at 2 shards with no discipline and with rr — the cells that
	// exercise the wait list's re-check and rank paths.
	sliced := raceEnabled
	got := map[string]string{}
	var names []string
	for _, mix := range scheduleMixes {
		for _, shards := range []int{1, 2, 4} {
			for _, tenure := range []string{"atomic", "split"} {
				for _, disc := range []string{"", "fcfs", "rr", "priority", "bounded"} {
					if sliced && (shards != 2 || (disc != "" && disc != "rr")) {
						continue
					}
					d := disc
					if d == "" {
						d = "none"
					}
					name := fmt.Sprintf("%s/%d/%s/%s", mix.name, shards, tenure, d)
					tr, mt := scheduleCell(t, mix.boards, shards, tenure, disc)
					got[name] = tr + " " + mt
					names = append(names, name)
				}
			}
		}
	}
	if *updateGolden && !sliced {
		var b strings.Builder
		b.WriteString("# cell  trace-sha256  metrics-sha256 (see schedule_test.go)\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(scheduleDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readScheduleDigests(scheduleDigestFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestScheduleDigests -args -update)", err)
	}
	if !sliced && len(want) != len(got) {
		t.Errorf("%s has %d cells, the table runs %d", filepath.Base(scheduleDigestFile), len(want), len(got))
	}
	var diverged []string
	for _, n := range names {
		if want[n] != got[n] {
			diverged = append(diverged, n)
		}
	}
	sort.Strings(diverged)
	for _, n := range diverged {
		t.Errorf("%s: digests %s, want %s", n, got[n], want[n])
	}
}

// readScheduleDigests parses "cell trace metrics" lines, skipping
// comments.
func readScheduleDigests(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[0]] = fields[1] + " " + fields[2]
	}
	return out, sc.Err()
}
