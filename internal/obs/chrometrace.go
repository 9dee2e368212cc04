package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeTraceSink exports the event stream in the Chrome trace-event
// JSON format (the "JSON Object Format" with a traceEvents array),
// which Perfetto and chrome://tracing open directly. Layout: one
// process per bus segment, with thread 0 as the bus's transaction
// track and one thread per board; memory gets its own process. Bus
// transactions and stalls are complete ("X") slices, everything else
// instant ("i") events on the responsible board's track.
//
// Events are buffered and written on Flush, sorted by (ts, seq) so the
// output is stable for a deterministic run regardless of drain timing.
type ChromeTraceSink struct {
	w       io.Writer
	events  []Event
	written bool
}

// NewChromeTraceSink creates a sink writing to w on Flush.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	return &ChromeTraceSink{w: w}
}

// Consume implements Sink.
func (s *ChromeTraceSink) Consume(e *Event) { s.events = append(s.events, *e) }

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// Track ids within a bus process: thread 0 is the bus itself, thread
// i+1 is board i. Memory events go to their own process.
const (
	busTrack   = 0
	memoryPID  = 9999
	memoryTID  = 0
	defaultPID = 0
)

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (s *ChromeTraceSink) convert(e *Event) (traceEvent, bool) {
	pid := int(e.Bus)
	if pid < 0 {
		pid = defaultPID
	}
	tid := busTrack
	if e.Proc >= 0 {
		tid = int(e.Proc) + 1
	}
	te := traceEvent{TS: us(e.TS), PID: pid, TID: tid}
	addr := fmt.Sprintf("%#x", e.Addr)
	switch e.Kind {
	case KindTx:
		te.Ph = "X"
		te.TID = busTrack // the bus track owns transaction slices
		te.Dur = us(e.Dur)
		te.Name = fmt.Sprintf("col%d %s %s", e.Col, e.Op, addr)
		te.Args = map[string]any{
			"master": e.Proc, "addr": addr, "col": e.Col,
			"ch": e.CH, "di": e.DI, "sl": e.SL,
			"retries": e.Retries, "cost_ns": e.Dur, "bytes": e.Bytes,
		}
	case KindStall:
		te.Ph = "X"
		te.Dur = us(e.Dur)
		te.Name = "stall " + addr
		te.Args = map[string]any{"addr": addr, "stall_ns": e.Dur}
	case KindBlocked:
		te.Ph = "X"
		te.Dur = us(e.Dur)
		te.Name = "blocked " + addr
		te.Args = map[string]any{"addr": addr, "blocked_ns": e.Dur, "behind_tx": e.CauseID}
	case KindState:
		te.Ph = "i"
		te.S = "t"
		te.Name = fmt.Sprintf("%s→%s %s (%s)", e.From, e.To, addr, e.Cause)
		te.Args = map[string]any{"addr": addr, "from": e.From, "to": e.To, "cause": e.Cause}
	case KindAbort, KindRecover, KindIntervene, KindUpdate, KindCapture, KindEvict, KindGrant:
		te.Ph = "i"
		te.S = "t"
		te.Name = e.Kind.String() + " " + addr
		te.Args = map[string]any{"addr": addr}
	case KindMemRead, KindMemWrite:
		te.Ph = "i"
		te.S = "t"
		te.PID = memoryPID
		te.TID = memoryTID
		te.Name = e.Kind.String() + " " + addr
		te.Args = map[string]any{"addr": addr}
	default:
		return traceEvent{}, false
	}
	return te, true
}

// Flush writes the complete trace JSON. The format is a single
// document, so only the first Flush writes; later calls are no-ops
// (use Recorder.Drain, not Flush, to read other sinks mid-run).
func (s *ChromeTraceSink) Flush() error {
	if s.written {
		return nil
	}
	s.written = true
	sort.SliceStable(s.events, func(i, j int) bool {
		if s.events[i].TS != s.events[j].TS {
			return s.events[i].TS < s.events[j].TS
		}
		return s.events[i].Seq < s.events[j].Seq
	})

	type track struct{ pid, tid int }
	seen := make(map[track]bool)
	var meta, out []traceEvent
	addMeta := func(pid, tid int, name string) {
		if seen[track{pid, tid}] {
			return
		}
		seen[track{pid, tid}] = true
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for i := range s.events {
		e := &s.events[i]
		te, ok := s.convert(e)
		if !ok {
			continue
		}
		switch {
		case te.PID == memoryPID:
			addMeta(te.PID, te.TID, "memory")
		case te.TID == busTrack:
			addMeta(te.PID, te.TID, fmt.Sprintf("bus %d", te.PID))
		default:
			addMeta(te.PID, te.TID, fmt.Sprintf("board %d", te.TID-1))
		}
		out = append(out, te)
	}
	sort.SliceStable(meta, func(i, j int) bool {
		if meta[i].PID != meta[j].PID {
			return meta[i].PID < meta[j].PID
		}
		return meta[i].TID < meta[j].TID
	})

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: append(meta, out...), DisplayTimeUnit: "ns"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []traceEvent{}
	}
	enc := json.NewEncoder(s.w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
