package obs

import (
	"container/heap"
	"sort"
	"sync"
)

// Bus-transaction phases, in pipeline order. The bus decomposes every
// completed transaction's time into these (bus.PhaseCosts) and carries
// the breakdown on the KindTx event; this file reconstructs spans from
// that stream and attributes time online.
const (
	PhaseArb          = iota // arbitration wait before the grant
	PhaseAddr                // successful broadcast address handshake
	PhaseData                // data beats (incl. broadcast penalties)
	PhaseIntervention        // cache-to-cache first-word (DI)
	PhaseMemory              // memory first-word
	PhaseRetry               // BS abort/retry overhead
	NumPhases
)

// PhaseNames are the stable exposition labels, indexed by phase.
var PhaseNames = [NumPhases]string{
	"arb", "addr", "data", "intervention", "memory", "retry",
}

// TxSpan is one reconstructed bus transaction with its per-phase time
// decomposition — the "why was this miss slow" unit.
type TxSpan struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts"`
	Dur     int64  `json:"dur"`
	Bus     int    `json:"bus"`
	Proc    int    `json:"proc"`
	Col     int    `json:"col"`
	Op      string `json:"op"`
	Addr    uint64 `json:"addr"`
	Retries int    `json:"retries"`
	// Phases holds the per-phase nanoseconds, indexed by Phase*;
	// entries 1..NumPhases-1 sum to Dur, entry PhaseArb is waiting time
	// on top of it.
	Phases [NumPhases]int64 `json:"phases"`
}

// SpanFromEvent reconstructs a TxSpan from a KindTx event; ok is false
// for every other kind.
func SpanFromEvent(e *Event) (TxSpan, bool) {
	if e.Kind != KindTx {
		return TxSpan{}, false
	}
	return TxSpan{
		Seq: e.Seq, TS: e.TS, Dur: e.Dur, Bus: int(e.Bus), Proc: int(e.Proc),
		Col: int(e.Col), Op: e.Op.String(), Addr: e.Addr, Retries: int(e.Retries),
		Phases: [NumPhases]int64{
			PhaseArb: e.ArbNS, PhaseAddr: e.AddrNS, PhaseData: e.DataNS,
			PhaseIntervention: e.IntvNS, PhaseMemory: e.MemNS, PhaseRetry: e.RetryNS,
		},
	}, true
}

// ProcAttribution is one processor's cumulative stall attribution: how
// much of its bus time went to each phase.
type ProcAttribution struct {
	Proc  int    `json:"proc"`
	Label string `json:"label,omitempty"`
	// Tx counts transactions this processor mastered.
	Tx int64 `json:"tx"`
	// StallNS is the total time attributed (arbitration wait plus bus
	// occupancy of its own transactions).
	StallNS int64 `json:"stall_ns"`
	// Phases splits StallNS by phase.
	Phases [NumPhases]int64 `json:"phases"`
}

// DefaultTopK is the slow-transaction ring capacity of NewAttributionSink.
const DefaultTopK = 16

// AttributionSink maintains the live phase-attribution view of the
// event stream: per-phase latency histograms (globally and per board
// label, e.g. protocol name), per-processor stall attribution, and a
// ring of the top-K slowest transactions with their decomposition.
// All read methods are safe concurrently with draining.
type AttributionSink struct {
	mu     sync.Mutex
	topK   int
	phases [NumPhases]Histogram
	labels map[int]string
	byLbl  map[string]*[NumPhases]Histogram
	procs  map[int]*ProcAttribution
	slow   slowHeap // min-heap by Dur, at most topK spans
}

// NewAttributionSink creates an attribution sink retaining the topK
// slowest transactions (0 = DefaultTopK).
func NewAttributionSink(topK int) *AttributionSink {
	if topK <= 0 {
		topK = DefaultTopK
	}
	return &AttributionSink{
		topK:   topK,
		labels: make(map[int]string),
		byLbl:  make(map[string]*[NumPhases]Histogram),
		procs:  make(map[int]*ProcAttribution),
	}
}

// SetProcLabel names a processor for per-label (per-protocol) phase
// histograms and reports. Call before traffic starts.
func (s *AttributionSink) SetProcLabel(proc int, label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.labels[proc] = label
}

// Consume implements Sink.
func (s *AttributionSink) Consume(e *Event) {
	span, ok := SpanFromEvent(e)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ph, v := range span.Phases {
		// Arb, Addr and Data are paid by every transaction, so zero is
		// a real sample ("no wait"); the remaining phases only happened
		// when they cost something — a zero there would skew the
		// distribution with not-applicable entries.
		if ph > PhaseData && v == 0 {
			continue
		}
		s.phases[ph].Observe(v)
		if lbl := s.labels[span.Proc]; lbl != "" {
			hs, ok := s.byLbl[lbl]
			if !ok {
				hs = &[NumPhases]Histogram{}
				s.byLbl[lbl] = hs
			}
			hs[ph].Observe(v)
		}
	}
	pa := s.procs[span.Proc]
	if pa == nil {
		pa = &ProcAttribution{Proc: span.Proc, Label: s.labels[span.Proc]}
		s.procs[span.Proc] = pa
	}
	pa.Tx++
	for ph, v := range span.Phases {
		pa.Phases[ph] += v
		pa.StallNS += v
	}
	if len(s.slow) < s.topK {
		heap.Push(&s.slow, span)
	} else if span.Dur > s.slow[0].Dur {
		s.slow[0] = span
		heap.Fix(&s.slow, 0)
	}
}

// Flush implements Sink (the attribution view is pull-only).
func (s *AttributionSink) Flush() error { return nil }

// PhaseSummaries digests the global per-phase histograms, keyed by
// PhaseNames.
func (s *AttributionSink) PhaseSummaries() map[string]Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return phaseSummaries(&s.phases)
}

func phaseSummaries(hs *[NumPhases]Histogram) map[string]Summary {
	out := make(map[string]Summary, NumPhases)
	for ph := range hs {
		if hs[ph].Count() > 0 {
			out[PhaseNames[ph]] = hs[ph].Summary()
		}
	}
	return out
}

// Slowest returns the retained slowest transactions, slowest first.
func (s *AttributionSink) Slowest() []TxSpan {
	s.mu.Lock()
	out := append([]TxSpan(nil), s.slow...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// ArbVsTransfer returns the cumulative arbitration-wait versus
// data-transfer split over all transactions — the decomposition the
// shared-bus literature uses to discriminate service disciplines.
func (s *AttributionSink) ArbVsTransfer() (arbNS, transferNS int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pa := range s.procs {
		arbNS += pa.Phases[PhaseArb]
		transferNS += pa.Phases[PhaseData] + pa.Phases[PhaseIntervention] + pa.Phases[PhaseMemory]
	}
	return arbNS, transferNS
}

// AttributionReport is the JSON-able snapshot of everything the sink
// tracks.
type AttributionReport struct {
	// Phases digests the per-phase latency distributions over all
	// transactions (keys are PhaseNames; absent = never observed).
	Phases map[string]Summary `json:"phases"`
	// PhasesByLabel repeats the digest per board label (protocol) when
	// labels were set.
	PhasesByLabel map[string]map[string]Summary `json:"phases_by_label,omitempty"`
	// Procs attributes each processor's stall time by phase, in proc
	// order.
	Procs []ProcAttribution `json:"procs"`
	// Slowest lists the retained top-K slowest transactions with their
	// phase decomposition, slowest first.
	Slowest []TxSpan `json:"slowest"`
}

// Report snapshots the current attribution state.
func (s *AttributionSink) Report() AttributionReport {
	s.mu.Lock()
	rep := AttributionReport{Phases: phaseSummaries(&s.phases)}
	if len(s.byLbl) > 0 {
		rep.PhasesByLabel = make(map[string]map[string]Summary, len(s.byLbl))
		for lbl, hs := range s.byLbl {
			rep.PhasesByLabel[lbl] = phaseSummaries(hs)
		}
	}
	for _, pa := range s.procs {
		rep.Procs = append(rep.Procs, *pa)
	}
	rep.Slowest = append([]TxSpan(nil), s.slow...)
	s.mu.Unlock()
	sort.Slice(rep.Procs, func(i, j int) bool { return rep.Procs[i].Proc < rep.Procs[j].Proc })
	sort.Slice(rep.Slowest, func(i, j int) bool { return rep.Slowest[i].Dur > rep.Slowest[j].Dur })
	return rep
}

// FindAttribution returns the first AttributionSink attached to r, or
// nil.
func FindAttribution(r *Recorder) *AttributionSink {
	for _, s := range r.Sinks() {
		if a, ok := s.(*AttributionSink); ok {
			return a
		}
	}
	return nil
}

// slowHeap is a min-heap of spans by duration, so the root is the
// cheapest retained span — the one a slower newcomer evicts.
type slowHeap []TxSpan

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].Dur < h[j].Dur }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(TxSpan)) }
func (h *slowHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
