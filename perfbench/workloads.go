package main

import (
	"fmt"
	"io"

	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// spec is one benchmark workload: a system and a reference model, run
// on the deterministic engine, whose simulated counters repeat exactly
// for a seed. Every repetition builds it afresh, so caches start empty.
type spec struct {
	name string
	// refs is the references per board in one repetition, sized so a
	// repetition takes a few hundred milliseconds on a 2-vCPU host.
	refs   int
	boards []string
	shards int
	tenure string
	disc   string
	// pending is the split-mode pending table per shard, small enough
	// that it fills and NACKs.
	pending int
	model   workload.Model
	// sinks attaches the fbsim -record-out -watch -perf recorder plus a
	// coherence analyzer.
	sinks bool
}

// busMix is bus-16's protocol mix: invalidation, update, BS-abort and
// write-through members of the class. write-once and firefly are left
// out because a moesi-family owner loses their writes (README.md,
// "Known defect"); TestKnownDefectWriteOnceMix keeps that visible.
var busMix = []string{"moesi", "moesi-invalidate", "berkeley", "dragon", "illinois", "synapse", "moesi-update", "write-through"}

// The workloads and why each was chosen are documented in README.md.
var specs = []*spec{
	{
		name: "hits-4", refs: 100000,
		boards: repeat(4, "moesi"),
		model:  workload.Model{SharedLines: 32, PrivateLines: 100, PShared: 0.02, PWrite: 0.3, Locality: 0.5},
	},
	{
		name: "bus-16", refs: 3000,
		boards: repeat(2, busMix...),
		model:  workload.Model{SharedLines: 64, PrivateLines: 200, PShared: 0.3, PWrite: 0.3, Locality: 0.3},
	},
	{
		name: "traced-split-8", refs: 8000,
		boards: []string{"moesi", "dragon", "berkeley", "moesi-invalidate", "moesi", "dragon", "berkeley", "moesi-invalidate"},
		shards: 4, tenure: "split", disc: "rr", pending: 2, sinks: true,
		model: workload.Model{SharedLines: 64, PrivateLines: 200, PShared: 0.3, PWrite: 0.3, Locality: 0.3},
	},
}

// repeat returns n copies of the protocol list, interleaved per copy.
func repeat(n int, protos ...string) []string {
	var out []string
	for i := 0; i < n; i++ {
		for _, p := range protos {
			out = append(out, p)
		}
	}
	return out
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is one built system with its inputs and observers.
type instance struct {
	sys  *sim.System
	gens []workload.Generator
	rec  *obs.Recorder
	mon  *watch.Monitor
}

// build assembles the workload's system for one repetition. fault, if
// non-empty, is an internal/faults policy injected into board 0; wrap,
// if non-nil, wraps every sink before the recorder sees it.
func (s *spec) build(seed uint64, fault string, wrap func(name string, sk obs.Sink) obs.Sink) (*instance, error) {
	in := &instance{}
	if s.sinks {
		in.mon = watch.New(watch.Config{})
		named := []struct {
			name string
			sink obs.Sink
		}{
			{"record", obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "perfbench " + s.name})},
			{"watch", in.mon},
			{"perf", perf.NewSink(0)},
			{"coherence", &coherence.Analyzer{}},
		}
		var sinks []obs.Sink
		for _, n := range named {
			sk := n.sink
			if wrap != nil {
				sk = wrap(n.name, sk)
			}
			sinks = append(sinks, sk)
		}
		in.rec = obs.New(sinks...)
	}
	cfg := sim.Config{
		Shadow: true, Obs: in.rec,
		Shards: s.shards, Tenure: s.tenure, Discipline: s.disc, PendingTable: s.pending,
	}
	for _, p := range s.boards {
		cfg.Boards = append(cfg.Boards, sim.BoardSpec{Protocol: p})
	}
	cfg.Boards[0].Fault = fault
	sys, err := sim.New(cfg)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	in.sys = sys
	for i := range sys.Boards {
		m := s.model
		m.Proc, m.WordsPerLine = i, sys.WordsPerLine()
		g, err := workload.NewModel(m, seed)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		in.gens = append(in.gens, g)
	}
	return in, nil
}

// run drives the system through the deterministic engine. A panic,
// which is how a cache reports a state no correct protocol reaches,
// comes back as an error so the repetition is counted as failed.
func (s *spec) run(in *instance) (m sim.Metrics, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	eng := sim.Engine{Sys: in.sys, Gens: in.gens}
	return eng.Run(s.refs)
}

// close stops the recorder's drain goroutine and flushes its sinks.
func (in *instance) close() error { return in.rec.Close() }
