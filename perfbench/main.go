// Command perfbench is the repository's benchmark: the host cost of
// one simulated reference on four workloads, checked against the
// simulator's own correctness gates. See README.md.
//
//	perfbench --workload hits-4 --seed 1986 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"futurebus/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below fix the order
// of the printed table and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_ns_per_ref", "ns/ref"},
	{"cpu_ns_per_ref", "ns/ref"},
	{"allocs_per_ref", "allocs/ref"},
	{"alloc_bytes_per_ref", "B/ref"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"verified_ratio", "fraction"},
}

var perLayer = []metricDef{
	{"workload.next_ns", "ns"},
	{"sim.engine_self_ns_per_ref", "ns/ref"},
	{"sim.usesbus_calls_per_ref", "calls/ref"},
	{"sim.usesbus_ns", "ns"},
	{"sim.refs_per_simms", "refs/sim-ms"},
	{"cache.stall_ns", "ns"},
	{"cache.stall_calls_per_ref", "calls/ref"},
	{"cache.hit_ns", "ns"},
	{"cache.hit_ratio", "fraction"},
	{"bus.miss_ns", "ns"},
	{"bus.tx_per_ref", "tx/ref"},
	{"bus.bytes_per_ref", "B/ref"},
	{"bus.snoop_queries_per_tx", "queries/tx"},
	{"bus.snoop_hit_ratio", "fraction"},
	{"bus.aborts_per_tx", "aborts/tx"},
	{"bus.nacks_per_tx", "nacks/tx"},
	{"bus.interventions_per_tx", "intv/tx"},
	{"bus.execute_ns.s4", "ns"},
	{"bus.execute_ns.s8", "ns"},
	{"bus.execute_ns.s16", "ns"},
	{"memory.reads_per_tx", "reads/tx"},
	{"memory.readline_ns", "ns"},
	{"obs.events_per_ref", "events/ref"},
	{"obs.emit_ns", "ns"},
	{"obs.consume_ns.record", "ns"},
	{"obs.consume_ns.watch", "ns"},
	{"obs.consume_ns.perf", "ns"},
	{"obs.consume_ns.coherence", "ns"},
	{"obs.drain_busy_share", "fraction"},
	{"obs.dropped", "count"},
	{"trace.clock_ns", "ns"},
	{"trace.overhead", "ratio"},
	{"trace.residual_share", "fraction"},
}

// repResult is one repetition: build the workload, run it, verify it.
type repResult struct {
	refs     int64  // references attempted
	failure  string // "" when every check passed
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	counters counters
	dropped  int64
	// peakRSS is the resident high-water mark over setup and run, in
	// MiB; 0 where it cannot be measured per repetition.
	peakRSS float64
	// kernelWall and kernelCPU time speedKernel just before the
	// repetition.
	kernelWall, kernelCPU time.Duration
}

func (r *repResult) perRef(v float64) float64 { return v / float64(r.refs) }

// rep runs one repetition. want is the reference counters
// (nil = none); t, if non-nil, traces the run.
func (s *spec) rep(seed uint64, fault string, want *counters, t *tracer) repResult {
	r := repResult{refs: int64(s.refs * len(s.boards))}
	// Every repetition starts from the same heap, so allocation and GC
	// work repeat from one to the next.
	runtime.GC()
	k0, kc0 := time.Now(), cpuTime()
	speedKernel()
	r.kernelWall, r.kernelCPU = time.Since(k0), cpuTime()-kc0
	var wrap func(string, obs.Sink) obs.Sink
	if t != nil {
		wrap = t.wrapSink
	}
	hwm := resetPeakRSS()
	t0 := time.Now()
	in, err := s.build(seed, fault, wrap)
	r.setup = time.Since(t0)
	if err != nil {
		r.failure = err.Error()
		return r
	}
	if t != nil {
		t.install(in)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	if t != nil {
		t.open(nanotime())
	}
	m, runErr := s.run(in)
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	closeErr := in.close()
	if hwm {
		r.peakRSS, _ = peakRSSMiB()
	}
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.counters = countersOf(m)
	r.dropped = in.rec.Dropped()
	r.failure = verify(in, m, runErr, want)
	switch {
	case r.failure != "":
	case closeErr != nil:
		r.failure = fmt.Sprintf("recorder: %v", closeErr)
	case t != nil && t.txTraced.Load() != m.Bus.Transactions:
		r.failure = fmt.Sprintf("trace hook saw %d transactions, bus counted %d", t.txTraced.Load(), m.Bus.Transactions)
	}
	return r
}

// tally adds the repetitions to a result's attempted/failed counts: a
// repetition that fails any check fails all its references.
func tally(res *result, reps []repResult) {
	for _, r := range reps {
		res.Attempted += r.refs
		if r.failure != "" {
			res.Failed += r.refs
			fmt.Fprintf(os.Stderr, "perfbench: repetition failed: %s\n", r.failure)
		}
	}
	res.Correct = res.Failed == 0
}

// reference returns the counters every repetition must
// reproduce: the golden ones at defaultSeed, otherwise none until the
// first repetition supplies them.
func (s *spec) reference(seed uint64) (*counters, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	g, err := golden()
	if err != nil {
		return nil, err
	}
	c, ok := g[s.name]
	if !ok {
		return nil, fmt.Errorf("golden.json has no counters for %s", s.name)
	}
	return &c, nil
}

// endToEndRun repeats the untraced workload until the deadline and
// reports the median of each per-repetition figure. Host times are
// scaled by the speed kernel timed beside each repetition: the shared
// host's speed drifts by a quarter within minutes, and the kernel
// drifts with it.
func endToEndRun(s *spec, seed uint64, deadline time.Time, host *hostContext) (result, error) {
	want, err := s.reference(seed)
	if err != nil {
		return result{}, err
	}
	var reps []repResult
	for len(reps) < 3 || time.Now().Before(deadline) {
		r := s.rep(seed, "", want, nil)
		if want == nil && r.failure == "" {
			c := r.counters
			want = &c
		}
		reps = append(reps, r)
	}
	res := result{Metrics: map[string]metric{}}
	tally(&res, reps)
	med := func(f func(r *repResult) float64) float64 {
		v := make([]float64, len(reps))
		for i := range reps {
			v[i] = f(&reps[i])
		}
		return median(v)
	}
	scaled := func(t, kernel time.Duration) float64 { return float64(t) * kernelNominal / float64(kernel) }
	host.Reps = len(reps)
	host.SpeedIndex = med(func(r *repResult) float64 { return float64(r.kernelWall) / kernelNominal })
	host.RawWallNS = med(func(r *repResult) float64 { return r.perRef(float64(r.wall)) })
	host.RawCPUNS = med(func(r *repResult) float64 { return r.perRef(float64(r.cpu)) })
	host.RawSetupS = med(func(r *repResult) float64 { return r.setup.Seconds() })
	set(&res, endToEnd, map[string]float64{
		"wall_ns_per_ref":     med(func(r *repResult) float64 { return r.perRef(scaled(r.wall, r.kernelWall)) }),
		"cpu_ns_per_ref":      med(func(r *repResult) float64 { return r.perRef(scaled(r.cpu, r.kernelCPU)) }),
		"allocs_per_ref":      med(func(r *repResult) float64 { return r.perRef(float64(r.mallocs)) }),
		"alloc_bytes_per_ref": med(func(r *repResult) float64 { return r.perRef(float64(r.bytes)) }),
		"max_rss_mb":          peakRSS(reps),
		"setup_s":             med(func(r *repResult) float64 { return scaled(r.setup, r.kernelWall) / 1e9 }),
		"verified_ratio":      float64(res.Attempted-res.Failed) / float64(res.Attempted),
	})
	return res, nil
}

// peakRSS is the median over the repetitions of each one's resident
// high-water mark. One peak over the whole process is set by the single
// worst GC cycle of a run and spread by a tenth from seed to seed. Where
// the mark cannot be reset, it falls back to that process peak.
func peakRSS(reps []repResult) float64 {
	v := make([]float64, 0, len(reps))
	for i := range reps {
		if reps[i].peakRSS > 0 {
			v = append(v, reps[i].peakRSS)
		}
	}
	if len(v) < len(reps) {
		return maxRSSMiB()
	}
	return median(v)
}

// set fills res.Metrics from values in the order and units of defs.
func set(res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun alternates untraced and traced repetitions until the
// deadline, after the isolated calibrations, and reports the
// per-layer metrics.
func tracedRun(s *spec, seed uint64, deadline time.Time, host *hostContext) (result, error) {
	cal, err := calibrate()
	if err != nil {
		return result{}, fmt.Errorf("calibration: %w", err)
	}
	want, err := s.reference(seed)
	if err != nil {
		return result{}, err
	}
	var plain, traced []repResult
	var tracers []*tracer
	for i := 0; len(traced) < 2 || time.Now().Before(deadline); i++ {
		// Alternate which side of a pair runs first.
		var u, tr repResult
		t := &tracer{}
		if i%2 == 0 {
			u = s.rep(seed, "", want, nil)
			tr = s.rep(seed, "", tracedWant(want, &u), t)
		} else {
			tr = s.rep(seed, "", want, t)
			u = s.rep(seed, "", tracedWant(want, &tr), nil)
		}
		if want == nil && u.failure == "" {
			c := u.counters
			want = &c
		}
		plain, traced, tracers = append(plain, u), append(traced, tr), append(tracers, t)
	}
	host.Reps = len(plain) + len(traced)
	res := result{Metrics: map[string]metric{}}
	tally(&res, plain)
	tally(&res, traced)

	// Simulated counters, summed over the untraced repetitions.
	var refs, tx, aborts, nacks, intv, bytes, memReads, snoopHits, hits, accesses, elapsed float64
	var overhead []float64
	var dropped int64
	for i := range plain {
		c := plain[i].counters
		refs += float64(c.Refs)
		tx += float64(c.Bus.Transactions)
		aborts += float64(c.Bus.Aborts)
		nacks += float64(c.Bus.Nacks)
		intv += float64(c.Bus.Interventions)
		bytes += float64(c.Bus.BytesTransferred)
		memReads += float64(c.Memory.Reads)
		snoopHits += float64(c.Cache.SnoopHits)
		hits += float64(c.Cache.ReadHits + c.Cache.WriteHits)
		accesses += float64(c.Cache.Reads + c.Cache.Writes)
		elapsed += float64(c.ElapsedNanos)
		overhead = append(overhead, ratio(float64(traced[i].wall), float64(plain[i].wall)))
		dropped += plain[i].dropped + traced[i].dropped
	}
	// Every address cycle, aborted or not, queries every snooper but
	// the master; every board in these workloads is a snooping cache.
	queries := float64(len(s.boards)-1) * (tx + aborts)

	// Spans and sink times, summed over the traced repetitions.
	var sp spans
	var tracedRefs, tracedWall float64
	sinkEvents, sinkN, sinkNS := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for i, t := range tracers {
		sp.add(&t.spans)
		tracedRefs += float64(traced[i].refs)
		tracedWall += float64(traced[i].wall.Nanoseconds())
		for _, sk := range t.sinks {
			sinkEvents[sk.name] += float64(sk.events)
			sinkN[sk.name] += float64(sk.n)
			sinkNS[sk.name] += float64(sk.ns) - float64(sk.n)*cal.clock
		}
	}
	// The layer times exclude the tracer's own clock reads, so the time
	// they must add up to does too.
	budgetNS := tracedWall - float64(sp.reads)*cal.clock
	consume := func(name string) float64 { return ratio(sinkNS[name], sinkN[name]) }
	var drainNS float64
	for name := range sinkEvents {
		drainNS += consume(name) * sinkEvents[name]
	}

	set(&res, perLayer, map[string]float64{
		"workload.next_ns":           sp.mean(lNext, cal.clock),
		"sim.engine_self_ns_per_ref": ratio(sp.engineSelf(cal.clock), tracedRefs),
		"sim.usesbus_calls_per_ref":  ratio(float64(sp.calls[lUsesBus]), tracedRefs),
		"sim.usesbus_ns":             sp.mean(lUsesBus, cal.clock),
		"sim.refs_per_simms":         ratio(refs, elapsed/1e6),
		"cache.stall_ns":             sp.mean(lStall, cal.clock),
		"cache.stall_calls_per_ref":  ratio(float64(sp.calls[lStall]), tracedRefs),
		"cache.hit_ns":               sp.mean(lHit, cal.clock),
		"cache.hit_ratio":            ratio(hits, accesses),
		"bus.miss_ns":                sp.mean(lMiss, cal.clock),
		"bus.tx_per_ref":             ratio(tx, refs),
		"bus.bytes_per_ref":          ratio(bytes, refs),
		"bus.snoop_queries_per_tx":   ratio(queries, tx),
		"bus.snoop_hit_ratio":        ratio(snoopHits, queries),
		"bus.aborts_per_tx":          ratio(aborts, tx),
		"bus.nacks_per_tx":           ratio(nacks, tx),
		"bus.interventions_per_tx":   ratio(intv, tx),
		"bus.execute_ns.s4":          cal.execute[4],
		"bus.execute_ns.s8":          cal.execute[8],
		"bus.execute_ns.s16":         cal.execute[16],
		"memory.reads_per_tx":        ratio(memReads, tx),
		"memory.readline_ns":         cal.readLine,
		"obs.events_per_ref":         ratio(sinkEvents["record"], tracedRefs),
		"obs.emit_ns":                cal.emit,
		"obs.consume_ns.record":      consume("record"),
		"obs.consume_ns.watch":       consume("watch"),
		"obs.consume_ns.perf":        consume("perf"),
		"obs.consume_ns.coherence":   consume("coherence"),
		"obs.drain_busy_share":       ratio(drainNS, tracedWall),
		"obs.dropped":                float64(dropped),
		"trace.clock_ns":             cal.clock,
		"trace.overhead":             median(overhead),
		"trace.residual_share":       1 - ratio(sp.layered(cal.clock), budgetNS),
	})
	if r := res.Metrics["trace.residual_share"].Value; r > 0.15 || r < -0.15 {
		fmt.Fprintf(os.Stderr, "perfbench: open finding: the layer budget leaves %.1f%% of traced wall time unexplained (limit 15%%)\n", 100*r)
	}
	return res, nil
}

// tracedWant is the reference for the second run of a pair: the first
// run's counters, so tracing provably leaves the model unchanged.
func tracedWant(want *counters, first *repResult) *counters {
	if first.failure != "" {
		return want
	}
	return &first.counters
}

func main() {
	name := flag.String("workload", "hits-4", "workload to run: hits-4, bus-16, traced-split-8, or all")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement time per workload")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics of a traced run")
	goldenOut := flag.String("write-golden", "", "write the workloads' simulated counters at the default seed to this file and exit")
	flag.Parse()

	// One P: the engine and the recorder's drain goroutine share it, so
	// sink work shows in wall time, and a 2-vCPU guest can run the
	// benchmark on whichever vCPU the hypervisor is not stealing.
	runtime.GOMAXPROCS(1)

	if *goldenOut != "" {
		if err := writeGolden(*goldenOut); err != nil {
			fail(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	run := endToEndRun
	defs := endToEnd
	if *trace == 1 {
		run, defs = tracedRun, perLayer
	}
	todo := specs
	if *name != "all" {
		s, err := findSpec(*name)
		if err != nil {
			fail(err)
		}
		todo = []*spec{s}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range todo {
		host := newHostContext(s.name, *seed, *trace)
		steal := startSteal()
		res, err := run(s, *seed, time.Now().Add(time.Duration(*seconds)*time.Second), &host)
		if err != nil {
			fail(fmt.Errorf("%s: %w", s.name, err))
		}
		host.StealShare = steal.share()
		hj, _ := json.Marshal(host) // plain struct of numbers and strings
		fmt.Printf("host %s\n", hj)
		for _, d := range defs {
			fmt.Printf("%-16s %-28s %14.6g %s\n", s.name, d.name, res.Metrics[d.name].Value, d.unit)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = s.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
