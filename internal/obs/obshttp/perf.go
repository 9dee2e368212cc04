package obshttp

import (
	"fmt"
	"sync/atomic"

	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
)

// Perf metric families exposed on /metrics when a PerfSink is
// attached. All four latency families are native Prometheus histograms
// (cumulative _bucket/_sum/_count over the log buckets); the queue
// families are gauges per fabric shard.
const (
	MetricArbWaitHist = "futurebus_arb_wait_ns"
	MetricTenureHist  = "futurebus_bus_tenure_ns"
	MetricRetryHist   = "futurebus_retry_backoff_ns"
	MetricMemSvcHist  = "futurebus_mem_service_ns"
	MetricQueueDepth  = "futurebus_arb_queue_depth"
	MetricQueuePeak   = "futurebus_arb_queue_peak"
)

// perfHelp maps the perf.Sink metric names to registry families.
var perfFamilies = []struct {
	metric string // perf.Metric* key
	name   string // registry family
	help   string
}{
	{perf.MetricArbWait, MetricArbWaitHist, "Arbitration wait before a grant in simulated ns (waiting episodes only)."},
	{perf.MetricTenure, MetricTenureHist, "Per-transaction bus tenure (occupancy incl. aborted attempts) in simulated ns."},
	{perf.MetricRetry, MetricRetryHist, "BS abort/retry backoff per suffering transaction in simulated ns."},
	{perf.MetricMemSvc, MetricMemSvcHist, "Memory first-word service time of memory-sourced transactions in simulated ns."},
}

// PerfSink adapts perf.Sink for the live service: Consume runs on the
// recorder's drain goroutine and feeds both the saturation sink (the
// /perf document) and the registry's native histogram metrics; depth
// samples additionally maintain per-shard current/peak queue gauges.
// reg may be nil (no metric export — fbsim -perf without -serve).
type PerfSink struct {
	sink  *perf.Sink
	reg   *Registry
	hists map[string]*HistogramMetric
	depth map[int]*depthGauge
}

// depthGauge backs the per-shard queue gauges: written by the drain
// goroutine, read atomically by the scrape handler.
type depthGauge struct{ cur, peak atomic.Int64 }

// NewPerfSink builds a perf sink exporting to reg (nil = none).
func NewPerfSink(reg *Registry) *PerfSink {
	s := &PerfSink{sink: perf.NewSink(0), reg: reg}
	if reg == nil {
		return s
	}
	s.hists = make(map[string]*HistogramMetric, len(perfFamilies))
	for _, f := range perfFamilies {
		s.hists[f.metric] = reg.Histogram(f.name, "", f.help)
	}
	s.depth = make(map[int]*depthGauge)
	s.sink.SetObservers(
		func(metric string, v int64) {
			if h := s.hists[metric]; h != nil {
				h.Observe(v)
			}
		},
		func(bus int, depth int64) {
			d, ok := s.depth[bus]
			if !ok {
				d = &depthGauge{}
				s.depth[bus] = d
				labels := fmt.Sprintf("bus=%q", fmt.Sprint(bus))
				reg.GaugeFunc(MetricQueueDepth, labels,
					"Arbitration queue depth at the most recent grant, per fabric shard.",
					func() float64 { return float64(d.cur.Load()) })
				reg.GaugeFunc(MetricQueuePeak, labels,
					"Deepest arbitration queue observed, per fabric shard.",
					func() float64 { return float64(d.peak.Load()) })
			}
			d.cur.Store(depth)
			if depth > d.peak.Load() {
				d.peak.Store(depth)
			}
		},
	)
	return s
}

// Consume implements obs.Sink.
func (s *PerfSink) Consume(e *obs.Event) { s.sink.Consume(e) }

// ConsumeBatch implements obs.BatchSink.
func (s *PerfSink) ConsumeBatch(events []obs.Event) { s.sink.ConsumeBatch(events) }

// Flush implements obs.Sink.
func (s *PerfSink) Flush() error { return nil }

// PerfSink exposes the wrapped saturation sink (perf.FindSink unwraps
// through this, so engines fill Metrics.Perf from a served run too).
func (s *PerfSink) PerfSink() *perf.Sink { return s.sink }

// Snapshot digests the cumulative window (the /perf document).
func (s *PerfSink) Snapshot() *perf.Snapshot { return s.sink.Snapshot() }
