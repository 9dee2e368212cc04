package obshttp

import (
	"sync"

	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
)

// CoherenceSink adapts coherence.Analyzer (which assumes the recorder's
// single drain goroutine) for concurrent snapshotting from HTTP
// handlers: the drain folds each run of events into the analyzer under
// one lock, and Analyze and Totals take the same lock on any handler
// goroutine. The /coherence endpoint snapshots per request, so the
// simulation never pays for report construction.
type CoherenceSink struct {
	mu sync.Mutex
	a  coherence.Analyzer
}

// Consume implements obs.Sink.
func (s *CoherenceSink) Consume(e *obs.Event) {
	s.mu.Lock()
	s.a.Consume(e)
	s.mu.Unlock()
}

// ConsumeBatch implements obs.BatchSink.
func (s *CoherenceSink) ConsumeBatch(events []obs.Event) {
	s.mu.Lock()
	s.a.ConsumeBatch(events)
	s.mu.Unlock()
}

// Flush implements obs.Sink.
func (s *CoherenceSink) Flush() error { return nil }

// Analyze snapshots the coherence aggregates of the run so far.
func (s *CoherenceSink) Analyze() *coherence.Analysis {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Analyze(0)
}

// Totals returns the cheap running totals (for CounterFunc metrics,
// which are pulled on every /metrics scrape).
func (s *CoherenceSink) Totals() coherence.Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Totals()
}
