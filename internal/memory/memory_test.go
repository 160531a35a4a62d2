package memory

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bus"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.ReadWord(123); got != 0 {
		t.Fatalf("unwritten word = %d, want 0", got)
	}
}

func TestReadBack(t *testing.T) {
	m := New()
	m.WriteWord(7, 42)
	if got := m.ReadWord(7); got != 42 {
		t.Fatalf("ReadWord = %d, want 42", got)
	}
}

func TestStatsCountPortAccesses(t *testing.T) {
	m := New()
	m.WriteWord(1, 1)
	m.WriteWord(2, 2)
	m.ReadWord(1)
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 2 {
		t.Fatalf("stats = %+v, want 1 read 2 writes", st)
	}
}

func TestPeekPokeAreUncounted(t *testing.T) {
	m := New()
	m.Poke(5, 99)
	if m.Peek(5) != 99 {
		t.Fatal("Poke/Peek round-trip failed")
	}
	st := m.Stats()
	if st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("Peek/Poke counted as port accesses: %+v", st)
	}
}

func TestCorruptFlipsMask(t *testing.T) {
	m := New()
	m.Poke(3, 0b1010)
	got := m.Corrupt(3, 0b0110)
	if got != 0b1100 {
		t.Fatalf("Corrupt = %b, want 1100", got)
	}
	if m.Peek(3) != 0b1100 {
		t.Fatal("corruption not stored")
	}
	if m.Stats().Corrupt != 1 {
		t.Fatal("corruption not counted")
	}
}

func TestFootprintAndSnapshot(t *testing.T) {
	m := New()
	m.WriteWord(1, 10)
	m.WriteWord(2, 20)
	m.WriteWord(1, 11)
	if m.Footprint() != 2 {
		t.Fatalf("Footprint = %d, want 2", m.Footprint())
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[1] != 11 || snap[2] != 20 {
		t.Fatalf("Snapshot = %v", snap)
	}
	// The snapshot is a copy.
	snap[1] = 0
	if m.Peek(1) != 11 {
		t.Fatal("Snapshot aliases live storage")
	}
}

// TestPageEdges: words on both sides of a page boundary, one inside a
// later page and one on the sparse path enumerate in address order and
// count once each, whatever pageWords is.
func TestPageEdges(t *testing.T) {
	m := New()
	addrs := []bus.Addr{pageWords - 1, pageWords, 3*pageWords + 5, denseLimit + 9}
	for i, a := range addrs {
		m.WriteWord(a, bus.Word(i+1))
	}
	var got []bus.Addr
	m.Range(func(a bus.Addr, w bus.Word) bool {
		got = append(got, a)
		return true
	})
	if !slices.Equal(got, addrs) {
		t.Fatalf("Range order = %v, want %v", got, addrs)
	}
	if m.Footprint() != len(addrs) || len(m.Snapshot()) != len(addrs) {
		t.Fatalf("Footprint %d, Snapshot %d words, want %d", m.Footprint(), len(m.Snapshot()), len(addrs))
	}
}

func TestStringSummary(t *testing.T) {
	m := New()
	m.WriteWord(1, 1)
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestImplementsBusMemory(t *testing.T) {
	var _ bus.Memory = New()
}

// Property: last write wins for any sequence of writes.
func TestQuickLastWriteWins(t *testing.T) {
	f := func(ops []struct {
		A uint8 // small address space to force overwrites
		W uint32
	}) bool {
		m := New()
		last := make(map[bus.Addr]bus.Word)
		for _, op := range ops {
			a := bus.Addr(op.A)
			w := bus.Word(op.W)
			m.WriteWord(a, w)
			last[a] = w
		}
		for a, w := range last {
			if m.ReadWord(a) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
