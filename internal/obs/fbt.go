package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The .fbt binary trace format: the full event stream of a run,
// varint-encoded, with a self-describing header — the offline
// counterpart of the live sinks. A recorded run can be replayed through
// any Sink (Chrome trace, JSONL, attribution, the causal analyzer)
// without re-running the simulation.
//
//	file   := magic "FBT1" | uvarint version | str fingerprint
//	          | uvarint nkinds | str × nkinds          (seed kind dict)
//	          | event*
//	event  := uvarint kindRef | uvarint flags | fields
//	str    := uvarint len | bytes
//
// kindRef and the Op/From/To/Cause strings use a streaming dictionary:
// a reference equal to the current dictionary size introduces a new
// entry (a str follows inline), so the format needs no registry and
// later schema additions decode against older readers of the same
// version. Seq and TS are delta-encoded against the previous event;
// signed fields use zigzag. Field presence is a flags bitmap, so the
// common instant event costs a handful of bytes.
const (
	// TraceMagic starts every .fbt file.
	TraceMagic = "FBT1"
	// TraceVersion is the schema version written (and the only one
	// accepted) by this package.
	TraceVersion = 1
)

// TraceMeta is the self-describing header payload of a trace: enough
// to tell two recordings apart before comparing them.
type TraceMeta struct {
	// Fingerprint identifies the configuration that produced the run
	// (protocol mix, workload, seed, engine) — fbcausal diff refuses to
	// silently compare apples to oranges without it.
	Fingerprint string `json:"fingerprint"`
}

// Decoder hardening: a corrupt or adversarial file must fail with an
// error, never an allocation blow-up.
const (
	maxTraceString = 1 << 16
	maxTraceDict   = 1 << 20
)

// Event field presence bits (flags bitmap). CH/DI/SL are valueless:
// the bit is the value.
//
// APPEND-ONLY: the bit positions here and the seedKinds order below are
// wire format. A new field gets the next free bit and its value is
// encoded/decoded AFTER every existing field; a new kind is appended to
// seedKinds. Reordering or removing either breaks every .fbt trace
// already on disk without a TraceVersion bump — TestFbtSchemaAppendOnly
// pins both.
const (
	fbtDur = 1 << iota
	fbtCol
	fbtOp
	fbtFrom
	fbtTo
	fbtCause
	fbtCH
	fbtDI
	fbtSL
	fbtRetries
	fbtBytes
	fbtArbNS
	fbtAddrNS
	fbtDataNS
	fbtIntvNS
	fbtMemNS
	fbtRetryNS
	fbtTxID
	fbtCauseID
	fbtProto
	fbtPendNS
	fbtDeferNS
)

// seedKinds is the kind dictionary written into the header, in a fixed
// order so identical runs encode byte-identically. Unknown kinds are
// appended to the stream dictionary on first use. APPEND-ONLY (see the
// flag-bit comment above).
var seedKinds = []Kind{
	KindTx, KindGrant, KindAbort, KindRecover, KindState, KindIntervene,
	KindUpdate, KindCapture, KindEvict, KindStall, KindBlocked,
	KindMemRead, KindMemWrite,
	KindPend, KindData, KindNack, KindRetryExhausted,
}

// RecordSink serialises the event stream to a .fbt binary trace. It
// implements Sink, so attaching it to a Recorder records the run; the
// encoding is a few varints per event, cheap enough to stay under the
// recording-overhead budget (perfbench's obs.consume_ns.record).
type RecordSink struct {
	w io.Writer
	// buf is encoded output not yet written: it goes out in chunks of
	// recordChunk bytes, and on Flush.
	buf []byte
	// kinds and strs map a symbol to 1 + its index in the kind and
	// string dictionaries written so far (0 = not yet written).
	kinds, strs []uint32
	nkinds      uint32
	nstrs       uint32
	prevSeq     uint64
	prevTS      int64
	err         error
}

// NewRecordSink creates a sink writing the header immediately and one
// compact record per consumed event.
func NewRecordSink(w io.Writer, meta TraceMeta) *RecordSink {
	s := &RecordSink{
		w:     w,
		buf:   make([]byte, 0, recordChunk+256),
		kinds: make([]uint32, numWellKnown),
		strs:  make([]uint32, numWellKnown),
	}
	b := append(s.buf, TraceMagic...)
	b = binary.AppendUvarint(b, TraceVersion)
	b = appendString(b, meta.Fingerprint)
	b = binary.AppendUvarint(b, uint64(len(seedKinds)))
	for _, k := range seedKinds {
		s.nkinds++
		s.kinds[k] = s.nkinds
		b = appendString(b, k.String())
	}
	s.buf = b
	return s
}

const recordChunk = 1 << 16

// write hands the buffered output to the writer.
func (s *RecordSink) write() {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// zigzag folds a signed value into an unsigned varint-friendly one.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRef encodes a reference into the dictionary dict (kinds or
// strs, n its size), introducing v's name inline when it is new.
func appendRef(b []byte, dict *[]uint32, n *uint32, v Sym) []byte {
	if int(v) >= len(*dict) {
		*dict = append(*dict, make([]uint32, int(v)+1-len(*dict))...)
	}
	if ref := (*dict)[v]; ref != 0 {
		return binary.AppendUvarint(b, uint64(ref-1))
	}
	b = binary.AppendUvarint(b, uint64(*n))
	*n++
	(*dict)[v] = *n
	return appendString(b, v.String())
}

func flag(set bool, bit uint64) uint64 {
	if set {
		return bit
	}
	return 0
}

// ConsumeBatch implements BatchSink.
func (s *RecordSink) ConsumeBatch(events []Event) {
	for i := range events {
		s.Consume(&events[i])
	}
}

// Consume implements Sink.
func (s *RecordSink) Consume(e *Event) {
	if s.err != nil {
		return
	}
	flags := flag(e.Dur != 0, fbtDur) | flag(e.Col != 0, fbtCol) | flag(e.Op != 0, fbtOp) |
		flag(e.From != 0, fbtFrom) | flag(e.To != 0, fbtTo) | flag(e.Cause != 0, fbtCause) |
		flag(e.CH, fbtCH) | flag(e.DI, fbtDI) | flag(e.SL, fbtSL) |
		flag(e.Retries != 0, fbtRetries) | flag(e.Bytes != 0, fbtBytes) |
		flag(e.ArbNS != 0, fbtArbNS) | flag(e.AddrNS != 0, fbtAddrNS) | flag(e.DataNS != 0, fbtDataNS) |
		flag(e.IntvNS != 0, fbtIntvNS) | flag(e.MemNS != 0, fbtMemNS) | flag(e.RetryNS != 0, fbtRetryNS) |
		flag(e.TxID != 0, fbtTxID) | flag(e.CauseID != 0, fbtCauseID) | flag(e.Proto != 0, fbtProto) |
		flag(e.PendNS != 0, fbtPendNS) | flag(e.DeferNS != 0, fbtDeferNS)

	b := appendRef(s.buf, &s.kinds, &s.nkinds, e.Kind)
	b = binary.AppendUvarint(b, flags)
	// Always-present fields: wraparound deltas reproduce any uint64 /
	// int64 exactly while keeping in-order streams to 1–2 bytes each.
	b = binary.AppendUvarint(b, e.Seq-s.prevSeq)
	b = binary.AppendUvarint(b, uint64(e.TS)-uint64(s.prevTS))
	s.prevSeq, s.prevTS = e.Seq, e.TS
	b = binary.AppendUvarint(b, zigzag(int64(e.Bus)))
	b = binary.AppendUvarint(b, zigzag(int64(e.Proc)))
	b = binary.AppendUvarint(b, e.Addr)
	if flags&fbtDur != 0 {
		b = binary.AppendUvarint(b, zigzag(e.Dur))
	}
	if flags&fbtCol != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Col)))
	}
	if flags&fbtOp != 0 {
		b = appendRef(b, &s.strs, &s.nstrs, e.Op)
	}
	if flags&fbtFrom != 0 {
		b = appendRef(b, &s.strs, &s.nstrs, e.From)
	}
	if flags&fbtTo != 0 {
		b = appendRef(b, &s.strs, &s.nstrs, e.To)
	}
	if flags&fbtCause != 0 {
		b = appendRef(b, &s.strs, &s.nstrs, e.Cause)
	}
	if flags&fbtRetries != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Retries)))
	}
	if flags&fbtBytes != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Bytes)))
	}
	for i, v := range [...]int64{e.ArbNS, e.AddrNS, e.DataNS, e.IntvNS, e.MemNS, e.RetryNS} {
		if flags&(fbtArbNS<<i) != 0 { // the six phase bits are consecutive
			b = binary.AppendUvarint(b, zigzag(v))
		}
	}
	if flags&fbtTxID != 0 {
		b = binary.AppendUvarint(b, e.TxID)
	}
	if flags&fbtCauseID != 0 {
		b = binary.AppendUvarint(b, e.CauseID)
	}
	if flags&fbtProto != 0 {
		b = appendRef(b, &s.strs, &s.nstrs, e.Proto)
	}
	if flags&fbtPendNS != 0 {
		b = binary.AppendUvarint(b, zigzag(e.PendNS))
	}
	if flags&fbtDeferNS != 0 {
		b = binary.AppendUvarint(b, zigzag(e.DeferNS))
	}
	if s.buf = b; len(b) >= recordChunk {
		s.write()
	}
}

// Flush implements Sink.
func (s *RecordSink) Flush() error {
	s.write()
	return s.err
}

// TraceReader decodes a .fbt stream event by event.
type TraceReader struct {
	br      *bufio.Reader
	meta    TraceMeta
	kinds   []Sym
	strs    []Sym
	prevSeq uint64
	prevTS  int64
	n       int64
}

// NewTraceReader validates the header and positions the reader at the
// first event.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	t := &TraceReader{br: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, len(TraceMagic))
	if _, err := io.ReadFull(t.br, magic); err != nil {
		return nil, fmt.Errorf("obs: fbt header: %w", err)
	}
	if string(magic) != TraceMagic {
		return nil, fmt.Errorf("obs: not an .fbt trace (magic %q)", magic)
	}
	version, err := t.uvarint()
	if err != nil {
		return nil, fmt.Errorf("obs: fbt header version: %w", err)
	}
	if version != TraceVersion {
		return nil, fmt.Errorf("obs: unsupported .fbt schema version %d (want %d)", version, TraceVersion)
	}
	if t.meta.Fingerprint, err = t.string(); err != nil {
		return nil, fmt.Errorf("obs: fbt header fingerprint: %w", err)
	}
	nkinds, err := t.uvarint()
	if err != nil {
		return nil, fmt.Errorf("obs: fbt header kind table: %w", err)
	}
	if nkinds > maxTraceDict {
		return nil, fmt.Errorf("obs: fbt header kind table too large (%d)", nkinds)
	}
	for i := uint64(0); i < nkinds; i++ {
		k, err := t.sym()
		if err != nil {
			return nil, fmt.Errorf("obs: fbt header kind %d: %w", i, err)
		}
		t.kinds = append(t.kinds, k)
	}
	return t, nil
}

// Meta returns the header metadata.
func (t *TraceReader) Meta() TraceMeta { return t.meta }

// Count returns how many events have been decoded so far.
func (t *TraceReader) Count() int64 { return t.n }

func (t *TraceReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(t.br)
	if err == io.EOF {
		// EOF inside a value is truncation, not a clean end; only Next's
		// first byte may see a bare EOF.
		err = io.ErrUnexpectedEOF
	}
	return v, err
}

// signed decodes a zigzag varint that must fit in bits bits.
func (t *TraceReader) signed(bits uint) (int64, error) {
	u, err := t.uvarint()
	if err != nil {
		return 0, err
	}
	v := unzigzag(u)
	if bits < 64 && (v < -1<<(bits-1) || v >= 1<<(bits-1)) {
		return 0, fmt.Errorf("value %d does not fit in %d bits", v, bits)
	}
	return v, nil
}

func (t *TraceReader) string() (string, error) {
	n, err := t.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxTraceString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(t.br, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return string(b), nil
}

// sym reads a name and interns it.
func (t *TraceReader) sym() (Sym, error) {
	s, err := t.string()
	if err != nil {
		return 0, err
	}
	return ParseSym(s)
}

// ref resolves a reference into dict, accepting an inline new entry.
func (t *TraceReader) ref(dict *[]Sym) (Sym, error) {
	idx, err := t.uvarint()
	if err != nil {
		return 0, err
	}
	switch {
	case idx < uint64(len(*dict)):
		return (*dict)[idx], nil
	case idx == uint64(len(*dict)):
		if idx >= maxTraceDict {
			return 0, fmt.Errorf("dictionary exceeds %d entries", maxTraceDict)
		}
		s, err := t.sym()
		if err != nil {
			return 0, err
		}
		*dict = append(*dict, s)
		return s, nil
	default:
		return 0, fmt.Errorf("ref %d beyond dictionary (%d entries)", idx, len(*dict))
	}
}

// Next decodes one event into e. It returns io.EOF at a clean end of
// stream; any other error (including truncation mid-event) is fatal.
func (t *TraceReader) Next(e *Event) error {
	if _, err := t.br.Peek(1); err == io.EOF {
		return io.EOF
	}
	fail := func(field string, err error) error {
		return fmt.Errorf("obs: fbt event %d %s: %w", t.n, field, err)
	}
	*e = Event{}
	var err error
	if e.Kind, err = t.ref(&t.kinds); err != nil {
		return fail("kind", err)
	}
	flags, err := t.uvarint()
	if err != nil {
		return fail("flags", err)
	}
	var seqDelta, tsDelta uint64
	var bus, proc, col, retries, bytes int64
	// The fields in wire order; bit 0 = always present. Each decodes
	// into one of: a signed value of the given width (i), an unsigned
	// varint (u) or a string-dictionary reference (sym).
	for _, f := range [...]struct {
		name string
		bit  uint64
		bits uint
		i    *int64
		u    *uint64
		sym  *Sym
	}{
		{"seq", 0, 0, nil, &seqDelta, nil}, {"ts", 0, 0, nil, &tsDelta, nil},
		{"bus", 0, 16, &bus, nil, nil}, {"proc", 0, 32, &proc, nil, nil},
		{"addr", 0, 0, nil, &e.Addr, nil}, {"dur", fbtDur, 64, &e.Dur, nil, nil},
		{"col", fbtCol, 16, &col, nil, nil}, {"op", fbtOp, 0, nil, nil, &e.Op},
		{"from", fbtFrom, 0, nil, nil, &e.From}, {"to", fbtTo, 0, nil, nil, &e.To},
		{"cause", fbtCause, 0, nil, nil, &e.Cause}, {"retries", fbtRetries, 32, &retries, nil, nil},
		{"bytes", fbtBytes, 32, &bytes, nil, nil}, {"arb_ns", fbtArbNS, 64, &e.ArbNS, nil, nil},
		{"addr_ns", fbtAddrNS, 64, &e.AddrNS, nil, nil}, {"data_ns", fbtDataNS, 64, &e.DataNS, nil, nil},
		{"intv_ns", fbtIntvNS, 64, &e.IntvNS, nil, nil}, {"mem_ns", fbtMemNS, 64, &e.MemNS, nil, nil},
		{"retry_ns", fbtRetryNS, 64, &e.RetryNS, nil, nil}, {"txid", fbtTxID, 0, nil, &e.TxID, nil},
		{"cause_id", fbtCauseID, 0, nil, &e.CauseID, nil}, {"proto", fbtProto, 0, nil, nil, &e.Proto},
		{"pend_ns", fbtPendNS, 64, &e.PendNS, nil, nil}, {"defer_ns", fbtDeferNS, 64, &e.DeferNS, nil, nil},
	} {
		switch {
		case f.bit != 0 && flags&f.bit == 0:
		case f.i != nil:
			*f.i, err = t.signed(f.bits)
		case f.u != nil:
			*f.u, err = t.uvarint()
		default:
			*f.sym, err = t.ref(&t.strs)
		}
		if err != nil {
			return fail(f.name, err)
		}
	}
	t.prevSeq += seqDelta
	t.prevTS = int64(uint64(t.prevTS) + tsDelta)
	e.Seq, e.TS = t.prevSeq, t.prevTS
	e.Bus, e.Proc, e.Col = int16(bus), int32(proc), int16(col)
	e.Retries, e.Bytes = int32(retries), int32(bytes)
	e.CH, e.DI, e.SL = flags&fbtCH != 0, flags&fbtDI != 0, flags&fbtSL != 0
	t.n++
	return nil
}

// ReplayTrace feeds every event of a recorded .fbt stream to the sinks
// in order — the offline analogue of a Recorder drain. The sinks are
// not flushed; the caller decides when output is final.
func ReplayTrace(r io.Reader, sinks ...Sink) (TraceMeta, int64, error) {
	t, err := NewTraceReader(r)
	if err != nil {
		return TraceMeta{}, 0, err
	}
	var e Event
	for {
		err := t.Next(&e)
		if err == io.EOF {
			return t.meta, t.n, nil
		}
		if err != nil {
			return t.meta, t.n, err
		}
		for _, s := range sinks {
			s.Consume(&e)
		}
	}
}
