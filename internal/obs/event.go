// Package obs is the unified event-tracing and metrics layer of the
// simulator. Every substrate — the bus, the caches, memory, the
// engines — emits simulation-timestamped structured Events into a
// Recorder, which moves them through a fixed-size lock-free ring buffer
// (safe to feed from the goroutine-per-processor concurrent engine)
// into pluggable Sinks: a Chrome trace-event exporter for Perfetto, a
// JSONL exporter, a per-line audit trail, and log-bucketed latency
// histograms.
//
// The whole layer is optional: a nil *Recorder is a valid recorder
// whose methods are no-ops, and every instrumentation site guards
// event construction behind a single nil check, so an uninstrumented
// run pays one predictable branch per site.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"futurebus/internal/core"
)

// Sym is a small integer standing for a name an Event carries: its
// kind, data phase, state letters, cause and protocol. The names live
// in one append-only table shared by the process. The well-known ones
// below are fixed; the rest — protocol and discipline names, or names
// read back from a trace — are interned once, when a system is built or
// a name is first decoded, never per event. Symbol 0 is the empty name,
// so an omitempty field is omitted exactly when its name is empty. A
// Sym marshals as its name, so JSONL, Chrome trace, audit and .fbt
// output carry the same strings a string field would.
type Sym uint16

// Kind names an event type. It is a symbol, so a switch on it is an
// integer switch, while every encoder still writes the kind's stable
// name (see Sym).
type Kind = Sym

// The well-known symbols: every kind, data phase, state letter and
// cause the simulator emits. Their order is the order of symNames, not
// wire format — the .fbt codec carries names, never symbol numbers.
const (
	// KindTx is a completed (non-aborted) bus transaction. TS is the
	// simulated begin time, Dur the total bus occupancy including
	// aborted attempts; Col, CH/DI/SL and Retries carry the resolved
	// address-cycle outcome.
	KindTx Kind = iota + 1
	// KindGrant marks the arbiter granting mastership for a
	// transaction (the begin of its first address cycle).
	KindGrant
	// KindAbort is one BS abort of a transaction attempt; Proc is the
	// aborted master.
	KindAbort
	// KindRecover is a BS recovery push: Proc is the owner that
	// asserted BS and is pushing the line to memory.
	KindRecover
	// KindState is a cache-line state transition: Proc's copy of Addr
	// moved From→To because of Cause.
	KindState
	// KindIntervene marks an owning cache supplying read data (DI).
	KindIntervene
	// KindUpdate marks a snooper merging a broadcast write (SL).
	KindUpdate
	// KindCapture marks an owner capturing a non-broadcast write (DI).
	KindCapture
	// KindEvict is a dirty eviction: a replacement pushed an owned
	// line back to memory.
	KindEvict
	// KindStall is processor-side: Proc stalled Dur simulated ns on a
	// bus operation it issued for Addr.
	KindStall
	// KindBlocked is engine-side: Proc's next bus operation was
	// deferred Dur simulated ns because the bus was occupied; CauseID
	// names the occupying transaction. The deterministic engine emits
	// it (its boards wait on the event timeline, never inside the
	// arbiter), mirroring the arbitration wait the concurrent engine
	// measures on KindGrant.
	KindBlocked
	// KindMemRead / KindMemWrite are main-memory line accesses.
	KindMemRead
	KindMemWrite
	// KindEpoch marks the assembly of a fresh system on the recorder's
	// stream (every cache starts Invalid again). Sweeps reuse one
	// recorder across many systems; stateful consumers — the runtime
	// invariant monitor — reset their per-line shadow on it so state
	// from a finished system is not misread as the next one's.
	KindEpoch
	// KindPend marks a split-mode transaction entering the pending
	// table: its address tenure ended, memory service proceeds off-bus.
	// Dur (and PendNS) is the off-bus first-word latency.
	KindPend
	// KindData is a split-mode data tenure: a pending response won
	// arbitration and retired its transfer beats. TxID is the original
	// transaction; CauseID the tenure it queued behind (pending-wait
	// causal edge); Dur (and DeferNS) the beats.
	KindData
	// KindNack is a split-mode NACK: a transaction found the pending
	// table full and was charged one retry address cycle (Dur) — the
	// split-mode fold of the BS abort.
	KindNack
	// KindRetryExhausted marks a transaction failing with
	// ErrTooManyRetries: BS aborts never quiesced. The runtime monitor
	// folds it into a forward-progress violation; Retries carries the
	// abort count.
	KindRetryExhausted

	// OpRead, OpWrite and OpAddrOnly are the data phases of a
	// transaction (Op): "R", "W" and "A".
	OpRead
	OpWrite
	OpAddrOnly

	// StateI..StateM are the state letters (From, To) in core.State
	// order, so StateSym and SymState are one addition; StateV is the
	// write-through V that §3.3 equates with S.
	StateI
	StateS
	StateE
	StateO
	StateM
	StateV

	// The causes of KindState events. Processor-side causes name the
	// local action; the snoop-* causes name the Table 2 column that was
	// snooped ("snoop-cache-read" col 5, "snoop-cache-rfo" col 6,
	// "snoop-read" col 7, "snoop-cache-bcast-write" col 8,
	// "snoop-write" col 9, "snoop-bcast-write" col 10, plus
	// "snoop-clean" for CmdClean). The bridge of a multi-bus hierarchy
	// adds "absorb" and "invalidate-held".
	CauseReadHit
	CauseSilentWrite
	CauseWriteHit
	CauseWriteUpgrade
	CauseFill
	CauseEvictClean
	CausePush
	CauseBSRecovery
	CauseAbsorb
	CauseInvalidateHeld
	CauseSnoop
	CauseSnoopCacheRead
	CauseSnoopCacheRFO
	CauseSnoopRead
	CauseSnoopCacheBcastWrite
	CauseSnoopWrite
	CauseSnoopBcastWrite
	CauseSnoopClean

	// SymUnknown names a protocol nobody reported.
	SymUnknown

	numWellKnown
)

// CauseEvict is the cause of a dirty eviction. It has KindEvict's name,
// and so its symbol.
const CauseEvict = KindEvict

// symNames are the well-known names, indexed by symbol.
var symNames = [numWellKnown]string{"",
	"tx", "grant", "abort", "recover", "state", "intervene", "update", "capture", "evict", "stall",
	"blocked", "memread", "memwrite", "epoch", "pend", "data", "nack", "retry-exhausted",
	"R", "W", "A", "I", "S", "E", "O", "M", "V",
	"read-hit", "silent-write", "write-hit", "write-upgrade", "fill", "evict-clean", "push",
	"bs-recovery", "absorb", "invalidate-held", "snoop", "snoop-cache-read", "snoop-cache-rfo",
	"snoop-read", "snoop-cache-bcast-write", "snoop-write", "snoop-bcast-write", "snoop-clean",
	"unknown",
}

// MaxSymbols bounds the table against names read from input: ParseSym
// fails once the table holds this many names, or MaxSymbolBytes of
// them. Names the program defines (Intern) may use the rest of the
// 16-bit space, which no configuration comes near.
const (
	MaxSymbols     = 1 << 14
	MaxSymbolBytes = 1 << 20
)

var symtab struct {
	mu     sync.Mutex
	byName map[string]Sym
	bytes  int
	// limit is ParseSym's name bound: MaxSymbols, lowered only by tests.
	limit int
	// names is the published table; readers load it without locking,
	// and only ever index below the length they loaded.
	names atomic.Pointer[[]string]
}

func init() {
	names := append(make([]string, 0, 2*numWellKnown), symNames[:]...)
	symtab.byName = make(map[string]Sym, len(names))
	for i, n := range names {
		symtab.byName[n] = Sym(i)
	}
	symtab.names.Store(&names)
	symtab.limit = MaxSymbols
}

// Intern returns the symbol of a name the program defines, such as a
// protocol or discipline name, adding it to the table on first use.
func Intern(name string) Sym {
	s, err := intern(name, 1<<16-1, 1<<62)
	if err != nil {
		panic(err) // 65,535 distinct names: no configuration reaches this
	}
	return s
}

// ParseSym returns the symbol of a name read from input. Unlike Intern
// it fails, rather than grow the table past MaxSymbols names or
// MaxSymbolBytes bytes.
func ParseSym(name string) (Sym, error) { return intern(name, 0, MaxSymbolBytes) }

// intern adds name under a bound of maxNames names (0 = symtab.limit)
// and maxBytes bytes.
func intern(name string, maxNames, maxBytes int) (Sym, error) {
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if s, ok := symtab.byName[name]; ok {
		return s, nil
	}
	if maxNames == 0 {
		maxNames = symtab.limit
	}
	names := *symtab.names.Load()
	if len(names) >= maxNames || symtab.bytes+len(name) > maxBytes {
		return 0, fmt.Errorf("obs: symbol table full (%d names, %d bytes): cannot add %.40q",
			len(names), symtab.bytes, name)
	}
	names = append(names, name)
	s := Sym(len(names) - 1)
	symtab.byName[name] = s
	symtab.bytes += len(name)
	symtab.names.Store(&names)
	return s, nil
}

// String returns the symbol's name.
func (s Sym) String() string {
	if s < numWellKnown {
		return symNames[s]
	}
	if names := *symtab.names.Load(); int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Sym(%d)", uint16(s))
}

// MarshalText implements encoding.TextMarshaler: a symbol is written as
// its name.
func (s Sym) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through ParseSym.
func (s *Sym) UnmarshalText(b []byte) error {
	v, err := ParseSym(string(b))
	*s = v
	return err
}

// StateSym returns the letter symbol of a cache state.
func StateSym(s core.State) Sym { return StateI + Sym(s) }

// SymState reads a state letter symbol (V reads as Shared); ok is false
// for every other symbol.
func SymState(s Sym) (st core.State, ok bool) {
	switch {
	case s >= StateI && s <= StateM:
		return core.State(s - StateI), true
	case s == StateV:
		return core.Shared, true
	}
	return core.Invalid, false
}

// SnoopCause reports whether a cause names a snooped Table 2 column:
// whether its name starts with "snoop-".
func (s Sym) SnoopCause() bool {
	if s < numWellKnown {
		return s >= CauseSnoopCacheRead && s <= CauseSnoopClean
	}
	return strings.HasPrefix(s.String(), "snoop-")
}

// Event is one structured observation. The zero value of every field
// except Kind is meaningful ("not applicable"), so emitters fill only
// what they know. Addr is a raw line address (bus.Addr widened) to
// keep obs importable from the bus package itself.
//
// The event holds no pointer — its names are symbols — so rings and
// buffers of events are memory the garbage collector never scans, and
// its fields are ordered to pack into 144 bytes. The declaration order
// is also the key order of the JSONL export.
type Event struct {
	// Seq is the global emission order, assigned by the Recorder.
	Seq uint64 `json:"seq"`
	// TS is the simulated timestamp in nanoseconds (the Recorder's
	// clock, advanced by bus occupancy).
	TS int64 `json:"ts"`
	// Dur is a duration in simulated nanoseconds for span-like events
	// (tx cost, stall time); 0 for instants.
	Dur int64 `json:"dur,omitempty"`
	// Kind discriminates the event.
	Kind Kind `json:"kind"`
	// Bus identifies the bus segment (0 for a single-bus system; a
	// hierarchy numbers global=0, clusters 1..N; -1 = not applicable).
	Bus int16 `json:"bus"`
	// Proc is the board / master / snooper id (-1 = not applicable).
	Proc int32 `json:"proc"`
	// Addr is the line address.
	Addr uint64 `json:"addr"`
	// Col is the Table 2 event column of a bus transaction (-1 = n/a).
	Col int16 `json:"col,omitempty"`
	// Op is the data phase of a transaction: OpRead, OpWrite or
	// OpAddrOnly.
	Op Sym `json:"op,omitempty"`
	// From and To are state letters (StateI..StateM) for KindState.
	From Sym `json:"from,omitempty"`
	To   Sym `json:"to,omitempty"`
	// Cause says why a state transition happened (the Cause* symbols).
	Cause Sym `json:"cause,omitempty"`
	// Proto names the protocol governing the line on KindState events,
	// so per-protocol transition matrices survive mixed-protocol runs.
	Proto Sym `json:"proto,omitempty"`
	// CH, DI, SL are the resolved wired-OR response lines of a tx.
	CH bool `json:"ch,omitempty"`
	DI bool `json:"di,omitempty"`
	SL bool `json:"sl,omitempty"`
	// Retries counts BS abort/retry rounds the transaction suffered.
	Retries int32 `json:"retries,omitempty"`
	// Bytes is the data-phase payload size.
	Bytes int32 `json:"bytes,omitempty"`
	// ArbNS..RetryNS decompose a KindTx event's time by bus phase:
	// arbitration wait before the grant, successful broadcast address
	// handshake (including the wired-OR penalty), data beats,
	// cache-to-cache intervention first-word, memory first-word, and
	// BS abort/retry overhead. All but ArbNS sum to Dur; ArbNS is
	// waiting, not occupancy (see bus.PhaseCosts). KindGrant events
	// carry the arbitration wait as Dur.
	ArbNS   int64 `json:"arb_ns,omitempty"`
	AddrNS  int64 `json:"addr_ns,omitempty"`
	DataNS  int64 `json:"data_ns,omitempty"`
	IntvNS  int64 `json:"intv_ns,omitempty"`
	MemNS   int64 `json:"mem_ns,omitempty"`
	RetryNS int64 `json:"retry_ns,omitempty"`
	// PendNS and DeferNS are the split-mode off-bus phases of a KindTx
	// (and the Dur of KindPend / KindData events): memory service spent
	// in the pending table and data-tenure beats retired after the
	// address tenure. Neither is part of Dur — the bus was free.
	PendNS  int64 `json:"pend_ns,omitempty"`
	DeferNS int64 `json:"defer_ns,omitempty"`
	// TxID links the grant, abort, recover and tx events of one
	// mastership (0 = unassigned). IDs are allocated by the arbiter, so
	// they are unique and monotonic across every bus sharing it. Cache
	// events caused by a bus transaction — KindState from a snoop or a
	// master's own fill/upgrade/push, KindIntervene, KindUpdate,
	// KindCapture, KindEvict — carry the causing transaction's TxID, so
	// coherence analysis can group a write with its invalidation/update
	// fan-out (processor-side silent transitions keep TxID 0).
	TxID uint64 `json:"txid,omitempty"`
	// CauseID is a causality edge to another transaction's TxID: on
	// the KindTx of a BS recovery push it names the aborted transaction
	// being recovered for (KindRecover marks recovery starting for its
	// own TxID, and carries the enclosing recovery chain's parent, if
	// any, like KindTx); on KindGrant with non-zero Dur and on
	// KindBlocked it names the transaction that held the bus while this
	// master waited (blocking mastership).
	CauseID uint64 `json:"cause_id,omitempty"`
}
