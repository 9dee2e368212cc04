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
	rec.Emit(obs.Event{TS: 1, Kind: obs.KindTx, Proc: 0, Addr: 0x40, Col: 6, Op: "R", TxID: 1})
	rec.Emit(obs.Event{TS: 2, Kind: obs.KindState, Proc: 0, Addr: 0x40,
		From: "I", To: "M", Cause: "fill", Proto: "moesi", TxID: 1})
	rec.Emit(obs.Event{TS: 3, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: "R", DI: true, TxID: 2})
	rec.Emit(obs.Event{TS: 4, Kind: obs.KindState, Proc: 1, Addr: 0x40,
		From: "I", To: "M", Cause: "fill", Proto: "moesi", TxID: 2})
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

// TestServiceConcurrentScrapeStreamFold hammers /metrics scrapes and an
// SSE subscriber while the recorder's drain goroutine folds
// CoherenceSink and WatchSink batches — the satellite-3 coverage, run
// under -race in CI.
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
	// volume to force many 256-event folds in both batch sinks.
	for i := 0; i < 20000; i++ {
		addr := uint64(0x1000 + (i%64)*64)
		txid := uint64(i + 1)
		rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindTx, Proc: i % 4, Addr: addr,
			Col: 6, Op: "R", TxID: txid})
		rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindState, Proc: i % 4, Addr: addr,
			From: "I", To: "M", Cause: "fill", Proto: "moesi", TxID: txid})
		rec.Emit(obs.Event{TS: int64(i), Kind: obs.KindState, Proc: i % 4, Addr: addr,
			From: "M", To: "I", Cause: "snoop-cache-rfo", TxID: txid + 1})
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
