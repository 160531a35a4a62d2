// Package trace serializes memory-reference traces: the workload streams
// the generators synthesize can be captured to a file and inspected
// (cmd/mimdtrace), and replayed into the simulator (cmd/mimdsim
// -trace). Two formats are provided: a compact binary encoding (varint
// delta-coded addresses, the natural archival format) and a line-oriented
// text form that is easy to write by hand for small scenario scripts.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/workload"
)

// Record is one trace entry: a PE index plus the operation it issued.
type Record struct {
	PE int
	Op workload.Op
}

// magic identifies the binary format ("MCT1": MIMD cache trace v1).
var magic = [4]byte{'M', 'C', 'T', '1'}

// ErrBadMagic reports a binary stream that is not a trace.
var ErrBadMagic = errors.New("trace: bad magic (not an MCT1 stream)")

// Writer encodes records to the binary format.
type Writer struct {
	w        *bufio.Writer
	started  bool
	lastAddr map[int]bus.Addr // per-PE last address, for delta coding
	count    int
}

// NewWriter creates a binary trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), lastAddr: make(map[int]bus.Addr)}
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.started = true
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := w.w.Write(buf[:n])
		return err
	}
	// Header byte: kind in the low 3 bits, class in the next 2.
	head := uint64(r.Op.Kind) | uint64(r.Op.Class)<<3
	if err := put(uint64(r.PE)); err != nil {
		return err
	}
	if err := put(head); err != nil {
		return err
	}
	switch r.Op.Kind {
	case workload.OpRead, workload.OpWrite, workload.OpTestSet:
		// Zig-zag delta against the PE's previous address: locality makes
		// the deltas tiny.
		delta := int64(r.Op.Addr) - int64(w.lastAddr[r.PE])
		w.lastAddr[r.PE] = r.Op.Addr
		n := binary.PutVarint(buf[:], delta)
		if _, err := w.w.Write(buf[:n]); err != nil {
			return err
		}
		if r.Op.Kind != workload.OpRead {
			if err := put(uint64(r.Op.Data)); err != nil {
				return err
			}
		}
	case workload.OpCompute:
		if err := put(uint64(r.Op.Cycles)); err != nil {
			return err
		}
	case workload.OpHalt:
		// No payload.
	default:
		return fmt.Errorf("trace: unencodable op kind %v", r.Op.Kind)
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.count }

// Flush commits buffered output.
func (w *Writer) Flush() error {
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader decodes the binary format. Every decode error carries the
// record ordinal and byte offset where the stream went wrong — a
// truncated or corrupt MCT1 file names the damage instead of surfacing
// a bare EOF.
type Reader struct {
	r        *bufio.Reader
	started  bool
	lastAddr map[int]bus.Addr
	off      int64 // bytes consumed so far
	rec      int   // records fully decoded so far
}

// NewReader creates a binary trace reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), lastAddr: make(map[int]bus.Addr)}
}

// ReadByte implements io.ByteReader over the buffered input while
// keeping the byte-offset counter exact; the varint decoders consume
// through it.
func (r *Reader) ReadByte() (byte, error) {
	b, err := r.r.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

// corrupt wraps a mid-record decode failure with its position. An EOF
// inside a record is a truncation (io.ErrUnexpectedEOF), never a clean
// end.
func (r *Reader) corrupt(field string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: record %d, byte offset %d: %s: %w", r.rec, r.off, field, err)
}

// Read decodes the next record; io.EOF ends the stream.
func (r *Reader) Read() (Record, error) {
	if !r.started {
		var m [4]byte
		n, err := io.ReadFull(r.r, m[:])
		r.off += int64(n)
		if err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return Record{}, fmt.Errorf("trace: byte offset %d: truncated magic: %w", r.off, ErrBadMagic)
			}
			return Record{}, err
		}
		if m != magic {
			return Record{}, ErrBadMagic
		}
		r.started = true
	}
	pe64, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // clean end: the stream stopped on a record boundary
		}
		return Record{}, r.corrupt("pe", err)
	}
	head, err := binary.ReadUvarint(r)
	if err != nil {
		return Record{}, r.corrupt("header", err)
	}
	rec := Record{PE: int(pe64)}
	rec.Op.Kind = workload.OpKind(head & 7)
	rec.Op.Class = coherence.Class(head >> 3 & 3)
	if head>>5 != 0 {
		return Record{}, r.corrupt("header", fmt.Errorf("reserved bits set (0x%x)", head))
	}
	switch rec.Op.Kind {
	case workload.OpRead, workload.OpWrite, workload.OpTestSet:
		delta, err := binary.ReadVarint(r)
		if err != nil {
			return Record{}, r.corrupt("address delta", err)
		}
		addr := bus.Addr(int64(r.lastAddr[rec.PE]) + delta)
		r.lastAddr[rec.PE] = addr
		rec.Op.Addr = addr
		if rec.Op.Kind != workload.OpRead {
			data, err := binary.ReadUvarint(r)
			if err != nil {
				return Record{}, r.corrupt("data word", err)
			}
			rec.Op.Data = bus.Word(data)
		}
	case workload.OpCompute:
		cycles, err := binary.ReadUvarint(r)
		if err != nil {
			return Record{}, r.corrupt("cycle count", err)
		}
		rec.Op.Cycles = int(cycles)
	case workload.OpHalt:
	default:
		return Record{}, r.corrupt("header", fmt.Errorf("undecodable op kind %d", rec.Op.Kind))
	}
	r.rec++
	return rec, nil
}

// ReadAll drains the stream.
func (r *Reader) ReadAll() ([]Record, error) { return readAll(r) }

// readAll drains a source; on an error it returns the records decoded
// before it.
func readAll(src Source) ([]Record, error) {
	var out []Record
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Source is a streaming record reader: Read returns io.EOF at a clean
// end of the trace. Reader and TextScanner both implement it.
type Source interface {
	Read() (Record, error)
}

// Open sniffs the format of a trace stream without buffering it: an
// MCT1 magic prefix selects the binary decoder, anything else the text
// scanner. binary reports which one was chosen.
func Open(r io.Reader) (src Source, binary bool) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(magic)); bytes.Equal(head, magic[:]) {
		return NewReader(br), true
	}
	return NewTextScanner(br), false
}

// Decode parses a whole trace from raw bytes in either format (see
// Open).
func Decode(data []byte) ([]Record, error) {
	src, _ := Open(bytes.NewReader(data))
	return readAll(src)
}

// WriteText encodes records in the line format:
//
//	<pe> read <addr> [class]
//	<pe> write <addr> <value> [class]
//	<pe> ts <addr> <value>
//	<pe> compute <cycles>
//	<pe> halt
//
// Lines starting with '#' and blank lines are comments.
func WriteText(w io.Writer, recs []Record) error {
	tw := NewTextWriter(w)
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// TextWriter encodes records to the line format one at a time; it has
// Writer's method set, so tools can stream to either format.
type TextWriter struct{ w *bufio.Writer }

// NewTextWriter creates a streaming text-format writer.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w)}
}

// Write appends one record as one line.
func (t *TextWriter) Write(r Record) error {
	line, err := FormatText(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(t.w, line)
	return err
}

// Flush commits buffered output.
func (t *TextWriter) Flush() error { return t.w.Flush() }

// FormatText renders one record as a text-format line (no newline).
func FormatText(r Record) (string, error) {
	switch r.Op.Kind {
	case workload.OpRead:
		return fmt.Sprintf("%d read %d %s", r.PE, r.Op.Addr, r.Op.Class), nil
	case workload.OpWrite:
		return fmt.Sprintf("%d write %d %d %s", r.PE, r.Op.Addr, r.Op.Data, r.Op.Class), nil
	case workload.OpTestSet:
		return fmt.Sprintf("%d ts %d %d", r.PE, r.Op.Addr, r.Op.Data), nil
	case workload.OpCompute:
		return fmt.Sprintf("%d compute %d", r.PE, r.Op.Cycles), nil
	case workload.OpHalt:
		return fmt.Sprintf("%d halt", r.PE), nil
	}
	return "", fmt.Errorf("trace: unencodable op kind %v", r.Op.Kind)
}

// TextScanner decodes the line format one record at a time, so tools
// can stream arbitrarily large text traces without buffering them.
type TextScanner struct {
	sc     *bufio.Scanner
	lineNo int
}

// NewTextScanner creates a streaming text-format reader.
func NewTextScanner(rd io.Reader) *TextScanner {
	return &TextScanner{sc: bufio.NewScanner(rd)}
}

// Read decodes the next record; io.EOF ends the stream. Errors carry
// the 1-based line number.
func (s *TextScanner) Read() (Record, error) {
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return parseTextLine(s.lineNo, line)
	}
	if err := s.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("trace: line %d: %w", s.lineNo, err)
	}
	return Record{}, io.EOF
}

// parseTextLine decodes one non-comment line.
func parseTextLine(lineNo int, line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Record{}, fmt.Errorf("trace: line %d: too few fields", lineNo)
	}
	pe, err := strconv.Atoi(fields[0])
	if err != nil || pe < 0 {
		return Record{}, fmt.Errorf("trace: line %d: bad PE %q", lineNo, fields[0])
	}
	rec := Record{PE: pe}
	arg := func(i int) (uint64, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("trace: line %d: missing argument", lineNo)
		}
		v, err := strconv.ParseUint(fields[i], 10, 32)
		if err != nil {
			return 0, fmt.Errorf("trace: line %d: bad number %q", lineNo, fields[i])
		}
		return v, nil
	}
	classAt := func(i int) coherence.Class {
		if i >= len(fields) {
			return coherence.ClassShared
		}
		switch fields[i] {
		case "code":
			return coherence.ClassCode
		case "local":
			return coherence.ClassLocal
		case "shared":
			return coherence.ClassShared
		default:
			return coherence.ClassUnknown
		}
	}
	switch fields[1] {
	case "read":
		a, err := arg(2)
		if err != nil {
			return Record{}, err
		}
		rec.Op = workload.Read(bus.Addr(a), classAt(3))
	case "write":
		a, err := arg(2)
		if err != nil {
			return Record{}, err
		}
		v, err := arg(3)
		if err != nil {
			return Record{}, err
		}
		rec.Op = workload.Write(bus.Addr(a), bus.Word(v), classAt(4))
	case "ts":
		a, err := arg(2)
		if err != nil {
			return Record{}, err
		}
		v, err := arg(3)
		if err != nil {
			return Record{}, err
		}
		rec.Op = workload.TestSet(bus.Addr(a), bus.Word(v))
	case "compute":
		n, err := arg(2)
		if err != nil {
			return Record{}, err
		}
		rec.Op = workload.Compute(int(n))
	case "halt":
		rec.Op = workload.Halt()
	default:
		return Record{}, fmt.Errorf("trace: line %d: unknown op %q", lineNo, fields[1])
	}
	return rec, nil
}

// ParseText decodes the line format in full.
func ParseText(rd io.Reader) ([]Record, error) { return readAll(NewTextScanner(rd)) }

// Split demultiplexes a trace into replay agents, one per PE and dense
// over 0..the highest PE in the trace (a PE without records idles; a PE
// issuing no final halt halts when its records run out). Every call of
// the returned function builds a fresh set over the same read-only
// operation slices, so one decoded trace can drive any number of runs.
// An empty trace yields empty sets.
func Split(recs []Record) func() []workload.Agent {
	var byPE [][]workload.Op
	for _, r := range recs {
		for len(byPE) <= r.PE {
			byPE = append(byPE, nil)
		}
		byPE[r.PE] = append(byPE[r.PE], r.Op)
	}
	return func() []workload.Agent {
		agents := make([]workload.Agent, len(byPE))
		for pe, ops := range byPE {
			agents[pe] = &workload.Trace{Ops: ops}
		}
		return agents
	}
}

// Stats summarizes a trace for cmd/mimdtrace.
type Stats struct {
	Records   int
	PEs       int
	Reads     int
	Writes    int
	TestSets  int
	Computes  int
	Halts     int
	Addresses int // distinct
	ByClass   map[coherence.Class]int
}

// PEStats is one PE's share of a trace (see Accumulator.PerPE).
type PEStats struct {
	PE        int
	Records   int
	Reads     int
	Writes    int
	TestSets  int
	Computes  int
	Halts     int
	Addresses int // distinct addresses this PE referenced
}

// Accumulator folds records into Stats one at a time, so tools can
// summarize arbitrarily large traces in a single streaming pass.
type Accumulator struct {
	s     Stats
	addrs map[bus.Addr]bool
	perPE map[int]*PEStats
	// peAddrs tracks per-PE distinct addresses.
	peAddrs map[int]map[bus.Addr]bool
}

// NewAccumulator creates an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		s:       Stats{ByClass: make(map[coherence.Class]int)},
		addrs:   map[bus.Addr]bool{},
		perPE:   map[int]*PEStats{},
		peAddrs: map[int]map[bus.Addr]bool{},
	}
}

// Add folds one record in.
func (a *Accumulator) Add(r Record) {
	a.s.Records++
	pe := a.perPE[r.PE]
	if pe == nil {
		pe = &PEStats{PE: r.PE}
		a.perPE[r.PE] = pe
		a.peAddrs[r.PE] = map[bus.Addr]bool{}
	}
	pe.Records++
	touch := func() {
		a.addrs[r.Op.Addr] = true
		a.peAddrs[r.PE][r.Op.Addr] = true
		a.s.ByClass[r.Op.Class]++
	}
	switch r.Op.Kind {
	case workload.OpRead:
		a.s.Reads++
		pe.Reads++
		touch()
	case workload.OpWrite:
		a.s.Writes++
		pe.Writes++
		touch()
	case workload.OpTestSet:
		a.s.TestSets++
		pe.TestSets++
		touch()
	case workload.OpCompute:
		a.s.Computes++
		pe.Computes++
	case workload.OpHalt:
		a.s.Halts++
		pe.Halts++
	}
}

// Stats returns the machine-wide summary so far.
func (a *Accumulator) Stats() Stats {
	s := a.s
	s.PEs = len(a.perPE)
	s.Addresses = len(a.addrs)
	return s
}

// PerPE returns the per-PE summaries in ascending PE order.
func (a *Accumulator) PerPE() []PEStats {
	out := make([]PEStats, 0, len(a.perPE))
	for pe, st := range a.perPE {
		st := *st
		st.Addresses = len(a.peAddrs[pe])
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PE < out[j].PE })
	return out
}

// Summarize computes Stats over records.
func Summarize(recs []Record) Stats {
	a := NewAccumulator()
	for _, r := range recs {
		a.Add(r)
	}
	return a.Stats()
}

// Capture runs an agent standalone for at most n operations, recording
// the stream (results are fed back as zero; only non-reactive agents
// produce meaningful captures, which is what trace generation tools use).
func Capture(pe int, agent workload.Agent, n int) []Record {
	var out []Record
	for i := 0; i < n; i++ {
		op := agent.Next(workload.Result{})
		out = append(out, Record{PE: pe, Op: op})
		if op.Kind == workload.OpHalt {
			break
		}
	}
	return out
}
