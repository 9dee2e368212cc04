package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// pop dequeues the head event into out, returning false when the ring
// is empty.
func (r *ring) pop(out *Event) bool {
	run := r.run()
	if len(run) == 0 {
		return false
	}
	*out = run[0]
	r.release(1)
	return true
}

// TestRingFIFO: single-producer order is preserved exactly.
func TestRingFIFO(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 5; i++ {
		if !r.push(&Event{TS: int64(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	var e Event
	for i := 0; i < 5; i++ {
		if !r.pop(&e) {
			t.Fatalf("pop %d failed", i)
		}
		if e.TS != int64(i) {
			t.Errorf("pop %d: TS=%d", i, e.TS)
		}
	}
	if r.pop(&e) {
		t.Error("pop on empty ring succeeded")
	}
}

// TestRingFull: a full ring rejects pushes instead of overwriting.
func TestRingFull(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 4; i++ {
		if !r.push(&Event{}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.push(&Event{}) {
		t.Error("push on full ring succeeded")
	}
	var e Event
	if !r.pop(&e) {
		t.Fatal("pop failed")
	}
	if !r.push(&Event{}) {
		t.Error("push after pop failed")
	}
}

// TestRingRuns: run returns every published slot from the head up to
// the end of the slot array, and release frees exactly the slots it
// returned, so a wrapped ring drains in two runs.
func TestRingRuns(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 6; i++ {
		r.push(&Event{TS: int64(i)})
	}
	if run := r.run(); len(run) != 6 || run[0].TS != 0 || run[5].TS != 5 {
		t.Fatalf("first run = %d events", len(run))
	}
	r.release(4)
	for i := 6; i < 12; i++ {
		if !r.push(&Event{TS: int64(i)}) {
			t.Fatalf("push %d failed after release", i)
		}
	}
	if r.push(&Event{}) {
		t.Fatal("push into a full ring succeeded")
	}
	var got []int64
	for run := r.run(); len(run) > 0; run = r.run() {
		if len(run) > 4 {
			t.Errorf("run of %d events crosses the end of the slot array", len(run))
		}
		for _, e := range run {
			got = append(got, e.TS)
		}
		r.release(len(run))
	}
	for i, ts := range got {
		if ts != int64(i+4) {
			t.Fatalf("drained %v, want 4..11 in order", got)
		}
	}
}

// batchLog is a BatchSink that records the runs it was handed.
type batchLog struct {
	events []Event
	calls  int
}

func (b *batchLog) Consume(e *Event)            { b.events = append(b.events, *e) }
func (b *batchLog) ConsumeBatch(events []Event) { b.calls++; b.events = append(b.events, events...) }
func (b *batchLog) Flush() error                { return nil }

// TestDrainBatchAndPlainSinks: a batch sink and a per-event sink on one
// recorder see the same stream in emission order.
func TestDrainBatchAndPlainSinks(t *testing.T) {
	batch := &batchLog{}
	var plain []Event
	rec := NewSized(64, batch, SinkFunc(func(e *Event) { plain = append(plain, *e) }))
	for i := 0; i < 5000; i++ {
		rec.Emit(Event{Kind: KindTx, TS: int64(i), Proc: int32(i % 7)})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(batch.events) != 5000 || len(plain) != 5000 {
		t.Fatalf("batch sink saw %d events, plain sink %d; want 5000", len(batch.events), len(plain))
	}
	if batch.calls == 0 {
		t.Error("the drain never called ConsumeBatch")
	}
	for i := range plain {
		if plain[i] != batch.events[i] || plain[i].TS != int64(i) || plain[i].Seq != uint64(i) {
			t.Fatalf("event %d: batch %+v, plain %+v", i, batch.events[i], plain[i])
		}
	}
}

// TestRecorderConcurrentEmit: many producers, every event arrives
// exactly once, and Seq as seen by the sink is strictly increasing
// (the drain order is the global emission order).
func TestRecorderConcurrentEmit(t *testing.T) {
	const producers, each = 8, 1000
	var mu sync.Mutex
	var got []Event
	rec := NewSized(64, SinkFunc(func(e *Event) {
		mu.Lock()
		got = append(got, *e)
		mu.Unlock()
	}))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec.Emit(Event{Kind: KindTx, Proc: int32(p), Addr: uint64(i)})
			}
		}(p)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != producers*each {
		t.Fatalf("got %d events, want %d", len(got), producers*each)
	}
	perProc := make(map[int32]int)
	for i, e := range got {
		if i > 0 && e.Seq <= got[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d after %d", i, e.Seq, got[i-1].Seq)
		}
		// Each producer's own events must drain in its emission order.
		if int(e.Addr) < perProc[e.Proc] {
			t.Fatalf("producer %d reordered: addr %d after %d", e.Proc, e.Addr, perProc[e.Proc])
		}
		perProc[e.Proc] = int(e.Addr)
	}
}

// TestNilRecorder: the nil fast path is inert and safe.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Kind: KindTx})
	r.Advance(100)
	if r.Clock() != 0 {
		t.Error("nil clock moved")
	}
	if err := r.Flush(); err != nil {
		t.Error(err)
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
	if FindHistogram(r) != nil {
		t.Error("nil recorder has a histogram")
	}
}

// TestRecorderClock: Advance returns the pre-advance value (the begin
// timestamp of the span being paid for).
func TestRecorderClock(t *testing.T) {
	rec := New()
	defer rec.Close()
	if begin := rec.Advance(100); begin != 0 {
		t.Errorf("first Advance returned %d", begin)
	}
	if begin := rec.Advance(50); begin != 100 {
		t.Errorf("second Advance returned %d", begin)
	}
	if rec.Clock() != 150 {
		t.Errorf("clock = %d", rec.Clock())
	}
}

// TestHistogramQuantiles: log-bucket bounds behave as documented.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean = %f", h.Mean())
	}
	s := h.Summary()
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
	// The median of 1..100 is in the [32,64) bucket: upper bound 63.
	if s.P50 != 63 {
		t.Errorf("p50 = %d", s.P50)
	}
	// p99 lands in the top bucket, clamped to the observed max.
	if s.P99 != 100 {
		t.Errorf("p99 = %d", s.P99)
	}
	h.Observe(-5) // clamps to zero
	if h.Quantile(0) != 0 {
		t.Errorf("q0 = %d", h.Quantile(0))
	}
}

// TestHistogramSink: tx and stall events land in the right metrics.
func TestHistogramSink(t *testing.T) {
	hs := NewHistogramSink()
	hs.Consume(&Event{Kind: KindTx, Dur: 500, Retries: 2})
	hs.Consume(&Event{Kind: KindTx, Dur: 700})
	hs.Consume(&Event{Kind: KindStall, Dur: 900})
	hs.Consume(&Event{Kind: KindState}) // ignored
	sums := hs.Summaries()
	if sums[MetricTxLatency].Count != 2 {
		t.Errorf("tx latency count = %d", sums[MetricTxLatency].Count)
	}
	if sums[MetricTxRetries].Max != 2 {
		t.Errorf("retries max = %d", sums[MetricTxRetries].Max)
	}
	if sums[MetricStall].Count != 1 {
		t.Errorf("stall count = %d", sums[MetricStall].Count)
	}
	if !strings.Contains(hs.Render(), MetricTxLatency) {
		t.Errorf("render missing metric: %q", hs.Render())
	}
}

// TestJSONLRoundTrip: write → read reproduces the events exactly.
func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 0, TS: 0, Kind: KindGrant, Bus: 0, Proc: 2, Addr: 0x10},
		{Seq: 1, TS: 10, Dur: 425, Kind: KindTx, Bus: 0, Proc: 2, Addr: 0x10,
			Col: 6, Op: OpRead, CH: true, DI: true, Retries: 1, Bytes: 32},
		{Seq: 2, TS: 435, Kind: KindState, Bus: 0, Proc: 1, Addr: 0x10,
			From: StateM, To: StateO, Cause: CauseSnoop},
		{Seq: 3, TS: 435, Kind: KindMemWrite, Bus: -1, Proc: -1, Addr: 0x20},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for i := range in {
		sink.Consume(&in[i])
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip count %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

// TestLineAudit: history is per-line, bounded, and explainable.
func TestLineAudit(t *testing.T) {
	a := NewLineAuditSink(8)
	for i := 0; i < 20; i++ {
		a.Consume(&Event{Seq: uint64(i), Kind: KindTx, Addr: 0x10, Col: 5, Op: OpRead})
	}
	a.Consume(&Event{Kind: KindState, Addr: 0x20, From: StateI, To: StateM, Cause: CauseFill})
	a.Consume(&Event{Kind: KindGrant, Addr: 0x20}) // not audited
	h := a.LineHistory(0x10)
	if len(h) > 8 {
		t.Errorf("history overflow: %d", len(h))
	}
	if h[len(h)-1].Seq != 19 {
		t.Errorf("newest event lost: seq %d", h[len(h)-1].Seq)
	}
	if got := a.LineHistory(0x20); len(got) != 1 {
		t.Errorf("line 0x20 history = %d events", len(got))
	}
	if s := a.Explain(0x20); !strings.Contains(s, "I→M (fill)") {
		t.Errorf("explain = %q", s)
	}
	if len(a.LineHistory(0x99)) != 0 {
		t.Error("phantom history")
	}
}

// TestChromeTraceExport: the exporter produces structurally valid
// trace JSON with metadata, slices and instants on the right tracks.
func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	s.Consume(&Event{Seq: 1, TS: 0, Dur: 425, Kind: KindTx, Bus: 0, Proc: 1, Addr: 0x10, Col: 5, Op: OpRead, Bytes: 32})
	s.Consume(&Event{Seq: 2, TS: 425, Kind: KindState, Bus: 0, Proc: 0, Addr: 0x10, From: StateI, To: StateS, Cause: CauseFill})
	s.Consume(&Event{Seq: 3, TS: 425, Kind: KindMemRead, Bus: -1, Proc: -1, Addr: 0x10})
	s.Consume(&Event{Seq: 4, TS: 425, Dur: 425, Kind: KindStall, Bus: 0, Proc: 1, Addr: 0x10})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var slices, instants, metas int
	for _, te := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := te[k]; !ok {
				t.Fatalf("trace event missing %q: %v", k, te)
			}
		}
		switch te["ph"] {
		case "X":
			slices++
			if _, ok := te["dur"]; !ok {
				t.Errorf("X event without dur: %v", te)
			}
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	if slices != 2 || instants != 2 || metas < 3 {
		t.Errorf("slices=%d instants=%d metas=%d", slices, instants, metas)
	}
}
