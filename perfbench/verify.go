package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/memory"
	"futurebus/internal/sim"
)

// defaultSeed is the seed the golden counters were taken at.
const defaultSeed = 1986

// heldOutSeed was never run while the workloads and the benchmark were
// tuned; a claim should be re-checked on it.
const heldOutSeed = 7031

// counters is the simulated outcome of one repetition: what a
// host-side change must leave bit-identical.
type counters struct {
	Refs         int64
	ElapsedNanos int64
	Bus          bus.Stats
	Cache        cache.Stats
	Memory       memory.Stats
}

func countersOf(m sim.Metrics) counters {
	return counters{Refs: m.Refs, ElapsedNanos: m.ElapsedNanos, Bus: m.Bus, Cache: m.Cache, Memory: m.Memory}
}

//go:embed golden.json
var goldenJSON []byte

// golden maps each workload to its counters at
// defaultSeed.
func golden() (map[string]counters, error) {
	g := map[string]counters{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// verify checks one finished repetition: the engine's error, the
// quiesced-image Checker, the live watch monitor, and the counters
// against want (nil = no reference: the first repetition at a seed
// without golden counters). It returns "" when the repetition is
// correct.
func verify(in *instance, m sim.Metrics, runErr error, want *counters) string {
	if runErr != nil {
		return fmt.Sprintf("engine: %v", runErr)
	}
	if err := in.sys.Checker().MustPass(); err != nil {
		return err.Error()
	}
	if in.mon != nil {
		if rep := in.mon.Report(); rep.Total > 0 {
			return "watch: " + rep.Summary()
		}
	}
	if got := countersOf(m); want != nil && got != *want {
		return fmt.Sprintf("simulated counters differ from the reference:\n got  %+v\n want %+v", got, *want)
	}
	return ""
}

// writeGolden runs one repetition of every workload at defaultSeed and
// writes the counters to path.
func writeGolden(path string) error {
	g := map[string]counters{}
	for _, s := range specs {
		r := s.rep(defaultSeed, "", nil, nil)
		if r.failure != "" {
			return fmt.Errorf("%s: %s", s.name, r.failure)
		}
		g[s.name] = r.counters
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
