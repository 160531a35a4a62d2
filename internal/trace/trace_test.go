package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/workload"
)

func sampleRecords() []Record {
	return []Record{
		{PE: 0, Op: workload.Read(100, coherence.ClassCode)},
		{PE: 1, Op: workload.Write(200, 42, coherence.ClassLocal)},
		{PE: 0, Op: workload.Read(101, coherence.ClassCode)},
		{PE: 2, Op: workload.TestSet(7, 1)},
		{PE: 1, Op: workload.Compute(50)},
		{PE: 0, Op: workload.Halt()},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 6 {
		t.Fatalf("Count = %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty stream: %v, %d records", err, len(recs))
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")).Read(); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(strings.NewReader("MC")).Read(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{PE: 3, Op: workload.Write(5, 9, coherence.ClassShared)})
	w.Write(Record{PE: 3, Op: workload.Read(6, coherence.ClassShared)})
	w.Flush()
	full := buf.Bytes()
	// Chopping the stream at every mid-record position must yield a
	// truncation error that names the record and byte offset — never a
	// clean EOF, never a bare sentinel with no position.
	for cut := len(magic) + 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		var err error
		var n int
		for {
			_, e := r.Read()
			if e != nil {
				err = e
				break
			}
			n++
		}
		if err == io.EOF {
			// A cut exactly on a record boundary is a legitimate clean end.
			if wantRecs := 1; n != wantRecs {
				t.Fatalf("cut %d: clean EOF after %d records", cut, n)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
		if !strings.Contains(err.Error(), "record ") || !strings.Contains(err.Error(), "byte offset ") {
			t.Fatalf("cut %d: error %q lacks position info", cut, err)
		}
	}
}

func TestCorruptHeaderPositioned(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Record{PE: 0, Op: workload.Read(100, coherence.ClassCode)})
	w.Flush()
	raw := buf.Bytes()
	// Append a record with an undecodable op kind (7) after the valid one.
	raw = append(raw, 0 /* pe */, 7 /* head: kind=7 */)
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "record 1,") {
		t.Fatalf("corrupt header err = %v, want record-1 position", err)
	}
}

func TestDeltaCodingIsCompact(t *testing.T) {
	// Sequential addresses should cost ~3 bytes per record (pe + head +
	// delta of 1).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		w.Write(Record{PE: 0, Op: workload.Read(bus.Addr(100000+i), coherence.ClassLocal)})
	}
	w.Flush()
	perRecord := float64(buf.Len()) / 1000
	if perRecord > 4 {
		t.Fatalf("%.1f bytes/record, delta coding not effective", perRecord)
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseTextCommentsAndErrors(t *testing.T) {
	good := `
# a comment
0 read 5 shared

1 write 6 9 local
2 halt
`
	recs, err := ParseText(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	for _, bad := range []string{
		"x read 5",       // bad PE
		"0 frobnicate 5", // unknown op
		"0 read",         // missing addr
		"0 write 5",      // missing value
		"0 read zzz",     // bad number
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted", bad)
		}
	}
}

func TestParseTextDefaultClass(t *testing.T) {
	recs, err := ParseText(strings.NewReader("0 read 5"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Op.Class != coherence.ClassShared {
		t.Fatalf("default class = %v, want shared", recs[0].Op.Class)
	}
}

func TestSplit(t *testing.T) {
	fresh := Split(append(sampleRecords(), Record{PE: 4, Op: workload.Read(9, coherence.ClassShared)}))
	agents := fresh()
	if len(agents) != 5 {
		t.Fatalf("split into %d agents, want 5 (dense over PE 0..4)", len(agents))
	}
	// PE0's agent replays its two reads then halts.
	a := agents[0]
	if op := a.Next(workload.Result{}); op.Addr != 100 {
		t.Fatalf("first op = %+v", op)
	}
	if op := a.Next(workload.Result{}); op.Addr != 101 {
		t.Fatalf("second op = %+v", op)
	}
	if op := a.Next(workload.Result{}); op.Kind != workload.OpHalt {
		t.Fatalf("third op = %+v", op)
	}
	// PE3 has no records: it idles.
	if op := agents[3].Next(workload.Result{}); op.Kind != workload.OpHalt {
		t.Fatalf("recordless PE issued %+v", op)
	}
	// A second set starts from the top, whatever the first consumed.
	if op := fresh()[0].Next(workload.Result{}); op.Addr != 100 {
		t.Fatalf("fresh set's first op = %+v", op)
	}
	if n := len(Split(nil)()); n != 0 {
		t.Fatalf("empty trace split into %d agents", n)
	}
}

// TestOpenSniffsFormat: the same records reach the caller whichever
// format the stream is in, and Open says which it found.
func TestOpenSniffsFormat(t *testing.T) {
	var bin, text bytes.Buffer
	w := NewWriter(&bin)
	for _, r := range sampleRecords() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&text, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		binary bool
	}{{"binary", bin.Bytes(), true}, {"text", text.Bytes(), false}, {"empty", nil, false}, {"short", []byte("#\n"), false}} {
		// iotest-style one byte at a time: the peek must not depend on
		// the first Read filling the buffer.
		src, binary := Open(iotest.OneByteReader(bytes.NewReader(tc.data)))
		if binary != tc.binary {
			t.Errorf("%s: binary = %v", tc.name, binary)
		}
		var got []Record
		for {
			rec, err := src.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = append(got, rec)
		}
		want := sampleRecords()
		if len(tc.data) < 4 {
			want = nil
		}
		if !recordsEqual(got, want) {
			t.Errorf("%s: got %v", tc.name, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleRecords())
	if s.Records != 6 || s.PEs != 3 || s.Reads != 2 || s.Writes != 1 ||
		s.TestSets != 1 || s.Computes != 1 || s.Halts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Addresses != 4 {
		t.Fatalf("addresses = %d, want 4", s.Addresses)
	}
	if s.ByClass[coherence.ClassCode] != 2 || s.ByClass[coherence.ClassLocal] != 1 {
		t.Fatalf("by class = %v", s.ByClass)
	}
}

func TestCapture(t *testing.T) {
	recs := Capture(3, workload.NewArrayInit(10, 4), 100)
	if len(recs) != 5 { // 4 writes + halt
		t.Fatalf("captured %d records", len(recs))
	}
	if recs[4].Op.Kind != workload.OpHalt {
		t.Fatal("capture did not end with halt")
	}
	// Bounded capture stops early.
	recs = Capture(0, workload.NewHotspot(1, 0), 10)
	if len(recs) != 10 {
		t.Fatalf("bounded capture = %d records", len(recs))
	}
}

// Property: binary round-trip is identity for arbitrary well-formed
// records.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(pes []uint8, addrs []uint16, kinds []uint8) bool {
		n := len(pes)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		var recs []Record
		for i := 0; i < n; i++ {
			var op workload.Op
			switch kinds[i] % 4 {
			case 0:
				op = workload.Read(bus.Addr(addrs[i]), coherence.ClassShared)
			case 1:
				op = workload.Write(bus.Addr(addrs[i]), bus.Word(addrs[i])+1, coherence.ClassLocal)
			case 2:
				op = workload.TestSet(bus.Addr(addrs[i]), 1)
			case 3:
				op = workload.Compute(int(addrs[i]))
			}
			recs = append(recs, Record{PE: int(pes[i]), Op: op})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
