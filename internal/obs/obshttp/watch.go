package obshttp

import (
	"fmt"
	"sync"

	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
)

// WatchSink adapts watch.Monitor (single-goroutine, like
// coherence.Analyzer) for concurrent snapshotting from HTTP handlers:
// the drain hands the monitor every event, a whole run under one lock,
// and Report/Total take the same lock on any handler goroutine. It also
// syncs the monitor's per-(invariant, proto) counters into the metrics
// registry after every run, exposing futurebus_invariant_violations_total
// on /metrics.
type WatchSink struct {
	mu  sync.Mutex
	mon *watch.Monitor

	// Metric sync state (drain goroutine only): the registered counter
	// and last pushed value per (invariant, proto) label pair.
	reg    *Registry
	ctrs   map[watchLabel]*Counter
	pushed map[watchLabel]int64
}

type watchLabel struct {
	inv   watch.Invariant
	proto string
}

// NewWatchSink builds a watch sink; zero cfg fields take the monitor's
// defaults. reg may be nil (no metrics export).
func NewWatchSink(cfg watch.Config, reg *Registry) *WatchSink {
	return &WatchSink{
		mon:    watch.New(cfg),
		reg:    reg,
		ctrs:   make(map[watchLabel]*Counter),
		pushed: make(map[watchLabel]int64),
	}
}

// Consume implements obs.Sink.
func (s *WatchSink) Consume(e *obs.Event) {
	s.mu.Lock()
	s.mon.Consume(e)
	s.unlockAndSync()
}

// ConsumeBatch implements obs.BatchSink.
func (s *WatchSink) ConsumeBatch(events []obs.Event) {
	s.mu.Lock()
	s.mon.ConsumeBatch(events)
	s.unlockAndSync()
}

// unlockAndSync releases the lock its caller took and pushes counter
// deltas to the registry. Drain goroutine only.
func (s *WatchSink) unlockAndSync() {
	var counts []watch.Count
	if s.reg != nil && s.mon.Total() > 0 {
		counts = s.mon.Counts()
	}
	s.mu.Unlock()
	for _, c := range counts {
		key := watchLabel{c.Invariant, c.Proto}
		ctr, ok := s.ctrs[key]
		if !ok {
			ctr = s.reg.Counter(MetricInvariantViolations,
				fmt.Sprintf("invariant=%q,proto=%q", c.Invariant, c.Proto),
				"Runtime invariant violations by invariant and protocol.")
			s.ctrs[key] = ctr
		}
		if d := c.N - s.pushed[key]; d > 0 {
			ctr.Add(d)
			s.pushed[key] = c.N
		}
	}
}

// Flush implements obs.Sink.
func (s *WatchSink) Flush() error { return nil }

// Report snapshots the monitor (the /violations document).
func (s *WatchSink) Report() *watch.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mon.Report()
}

// Total returns the violations detected so far (cheap; pulled on every
// /metrics scrape by the first-violation latch).
func (s *WatchSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mon.Total()
}

// First returns the first violation, or nil while the run is clean.
func (s *WatchSink) First() *watch.Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mon.First()
}
