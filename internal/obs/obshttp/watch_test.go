package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/leaktest"
	"futurebus/internal/obs/watch"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestWatchSinkEndpointAndMetrics: a violating stream surfaces on
// /violations, as labelled counters on /metrics, and flips the latch.
func TestWatchSinkEndpointAndMetrics(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	svc.EnableWatch(watch.Config{})
	rec := obs.New(svc.Sinks()...)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Latch reads 0 while clean.
	if text := httpGet(t, srv.URL()+"/metrics"); !strings.Contains(text, MetricInvariantLatch+" 0") {
		t.Fatalf("latch should read 0 before any violation:\n%s", text)
	}

	// Two caches fill the same line to M — a single-owner violation.
	rec.Emit(obs.Event{TS: 1, Kind: obs.KindTx, Proc: 0, Addr: 0x40, Col: 6, Op: obs.OpRead, TxID: 1})
	rec.Emit(obs.Event{TS: 2, Kind: obs.KindState, Proc: 0, Addr: 0x40,
		From: obs.StateI, To: obs.StateM, Cause: obs.CauseFill, Proto: obs.Intern("moesi"), TxID: 1})
	rec.Emit(obs.Event{TS: 3, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: obs.OpRead, DI: true, TxID: 2})
	rec.Emit(obs.Event{TS: 4, Kind: obs.KindState, Proc: 1, Addr: 0x40,
		From: obs.StateI, To: obs.StateM, Cause: obs.CauseFill, Proto: obs.Intern("moesi"), TxID: 2})
	rec.Drain()
	if err := rec.Flush(); err != nil { // fold the partial batch
		t.Fatal(err)
	}

	var rep watch.Report
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL()+"/violations")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 || rep.ByInvariant[core.InvSingleOwner] == 0 {
		t.Fatalf("/violations missing the single-owner violation: %+v", rep)
	}
	if rep.First == nil || rep.First.Proc != 1 {
		t.Fatalf("first-violation latch wrong: %+v", rep.First)
	}

	text := httpGet(t, srv.URL()+"/metrics")
	if !strings.Contains(text, MetricInvariantViolations) ||
		!strings.Contains(text, `invariant="single-owner"`) ||
		!strings.Contains(text, `proto="moesi"`) {
		t.Fatalf("metrics missing labelled violation counter:\n%s", text)
	}
	if !strings.Contains(text, MetricInvariantLatch+" 1") {
		t.Fatalf("latch should read 1 after a violation:\n%s", text)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchDisabledEndpointEmpty: without EnableWatch the endpoint
// degrades to an empty document, like /causal and /coherence.
func TestWatchDisabledEndpointEmpty(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	rec := obs.New(svc.Sinks()...)
	defer rec.Close()
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if body := strings.TrimSpace(httpGet(t, srv.URL()+"/violations")); body != "{}" {
		t.Fatalf("/violations without a watch sink = %q, want {}", body)
	}
}

// TestWatchSinkParity: the live sink and a bare monitor judge the same
// stream alike, split-tenure and forward-progress checks included —
// whether the sink is fed one event at a time or in drained runs.
func TestWatchSinkParity(t *testing.T) {
	stream := []obs.Event{
		{TS: 1, Kind: obs.KindPend, Proc: 1, Addr: 0x40, TxID: 5},
		{TS: 2, Kind: obs.KindPend, Proc: 1, Addr: 0x40, TxID: 5},
		{TS: 3, Kind: obs.KindData, Proc: 2, Addr: 0x80, TxID: 9},
		{TS: 4, Kind: obs.KindRetryExhausted, Proc: 3, Addr: 0xc0, Retries: 65},
	}
	bare := watch.New(watch.Config{})
	for i := range stream {
		bare.Consume(&stream[i])
	}
	want, err := json.Marshal(bare.Report())
	if err != nil {
		t.Fatal(err)
	}
	if r := bare.Report(); r.Total != 3 || r.ByInvariant[watch.InvPendingTx] != 2 || r.ByInvariant[watch.InvProgress] != 1 {
		t.Fatalf("bare monitor: %s", want)
	}

	each := NewWatchSink(watch.Config{}, NewRegistry())
	for i := range stream {
		each.Consume(&stream[i])
	}
	drained := NewWatchSink(watch.Config{}, nil)
	rec := obs.New(drained)
	for _, e := range stream {
		rec.Emit(e)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for name, sink := range map[string]*WatchSink{"per-event": each, "drained": drained} {
		got, err := json.Marshal(sink.Report())
		if err != nil {
			t.Fatal(err)
		}
		if name == "drained" {
			// The recorder numbers events; the bare stream did not.
			want, got = scrubSeq(t, want), scrubSeq(t, got)
		}
		if string(got) != string(want) {
			t.Errorf("%s WatchSink report differs from the bare monitor:\n got  %s\n want %s", name, got, want)
		}
	}
}

// scrubSeq zeroes the seq of every context event in a report's JSON.
func scrubSeq(t *testing.T, b []byte) []byte {
	t.Helper()
	var r watch.Report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	for i := range r.Violations {
		for k := range r.Violations[i].Context {
			r.Violations[i].Context[k].Seq = 0
		}
	}
	if r.First != nil {
		for k := range r.First.Context {
			r.First.Context[k].Seq = 0
		}
	}
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServiceConcurrentScrapeStreamFold hammers /metrics scrapes and an
// SSE subscriber while the recorder's drain goroutine folds runs of
// events into CoherenceSink and WatchSink; CI runs it under -race.
func TestServiceConcurrentScrapeStreamFold(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	svc.EnableWatch(watch.Config{})
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers: /metrics pulls CounterFunc/GaugeFunc (Coherence.Totals,
	// Watch.Total) while folds mutate the analyzers.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL() + "/metrics")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Snapshot readers: /violations and /coherence build reports under
	// the sink mutexes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range []string{"/violations", "/coherence"} {
				resp, err := http.Get(srv.URL() + p)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	// SSE subscriber draining live frames.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL() + "/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := resp.Body.Read(buf); err != nil {
				return
			}
		}
	}()

	// Emitter: a legal fill/invalidate cycle over many lines, enough
	// volume to wrap the recorder's ring many times.
	for i := 0; i < 20000; i++ {
		addr := uint64(0x1000 + (i%64)*64)
		txid := uint64(i + 1)
		rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindTx, Proc: int32(i % 4), Addr: addr,
			Col: 6, Op: obs.OpRead, TxID: txid})
		rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindState, Proc: int32(i % 4), Addr: addr,
			From: obs.StateI, To: obs.StateM, Cause: obs.CauseFill, Proto: obs.Intern("moesi"), TxID: txid})
		rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindState, Proc: int32(i % 4), Addr: addr,
			From: obs.StateM, To: obs.StateI, Cause: obs.CauseSnoopCacheRFO, TxID: txid + 1})
	}
	rec.Drain()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	srv.Close() // unblocks the SSE subscriber
	wg.Wait()

	if n := svc.Watch.Total(); n != 0 {
		t.Fatalf("legal stream produced %d violations; first: %v", n, svc.Watch.First())
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
