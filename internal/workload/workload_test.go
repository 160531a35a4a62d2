package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bus"
	"repro/internal/coherence"
)

func TestOpKindStrings(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpRead: "read", OpWrite: "write", OpTestSet: "ts",
		OpCompute: "compute", OpHalt: "halt",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind has empty String()")
	}
}

func TestConstructors(t *testing.T) {
	if op := Read(5, coherence.ClassCode); op.Kind != OpRead || op.Addr != 5 || op.Class != coherence.ClassCode {
		t.Errorf("Read = %+v", op)
	}
	if op := Write(5, 9, coherence.ClassLocal); op.Kind != OpWrite || op.Data != 9 {
		t.Errorf("Write = %+v", op)
	}
	if op := TestSet(5, 1); op.Kind != OpTestSet || op.Data != 1 || op.Class != coherence.ClassShared {
		t.Errorf("TestSet = %+v", op)
	}
	if op := Compute(7); op.Kind != OpCompute || op.Cycles != 7 {
		t.Errorf("Compute = %+v", op)
	}
	if op := Halt(); op.Kind != OpHalt {
		t.Errorf("Halt = %+v", op)
	}
}

func TestTraceReplaysAndHalts(t *testing.T) {
	tr := NewTrace(Read(1, coherence.ClassShared), Write(2, 3, coherence.ClassShared))
	if op := tr.Next(Result{}); op.Kind != OpRead {
		t.Fatal("first op")
	}
	if op := tr.Next(Result{}); op.Kind != OpWrite {
		t.Fatal("second op")
	}
	for i := 0; i < 3; i++ {
		if op := tr.Next(Result{}); op.Kind != OpHalt {
			t.Fatal("trace did not halt")
		}
	}
}

func TestFuncAgent(t *testing.T) {
	calls := 0
	a := Func(func(prev Result) Op { calls++; return Halt() })
	a.Next(Result{})
	if calls != 1 {
		t.Fatal("Func agent not invoked")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Fatalf("bucket %d = %d, too far from %d", i, c, n/10)
		}
	}
	// Float64 stays in [0,1).
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of range", f)
		}
	}
}

func TestRNGGeometric(t *testing.T) {
	r := NewRNG(11)
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.5)
	}
	mean := float64(sum) / n
	if math.Abs(mean-1.0) > 0.1 { // E[failures] = (1-p)/p = 1
		t.Fatalf("geometric(0.5) mean = %g, want ~1", mean)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Geometric(0) did not panic")
			}
		}()
		r.Geometric(0)
	}()
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestLayoutSegmentsDisjoint(t *testing.T) {
	l := DefaultLayout()
	type seg struct{ lo, hi bus.Addr }
	var segs []seg
	segs = append(segs, seg{l.SharedBase, l.SharedBase + bus.Addr(l.SharedWords)})
	for pe := 0; pe < 8; pe++ {
		segs = append(segs,
			seg{l.CodeBase(pe), l.CodeBase(pe) + bus.Addr(l.CodeWords)},
			seg{l.LocalBase(pe), l.LocalBase(pe) + bus.Addr(l.LocalWords)})
	}
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if segs[i].lo < segs[j].hi && segs[j].lo < segs[i].hi {
				t.Fatalf("segments %d and %d overlap: %+v %+v", i, j, segs[i], segs[j])
			}
		}
	}
}

func TestAppProfileValidation(t *testing.T) {
	bad := PDEProfile()
	bad.SharedFrac = 0.9
	bad.LocalWriteFrac = 0.3
	if err := bad.Validate(); err == nil {
		t.Error("fractions > 1 accepted")
	}
	bad2 := PDEProfile()
	bad2.HotSet = 0
	if err := bad2.Validate(); err == nil {
		t.Error("HotSet = 0 accepted")
	}
	if err := PDEProfile().Validate(); err != nil {
		t.Errorf("PDE profile invalid: %v", err)
	}
	if err := QuicksortProfile().Validate(); err != nil {
		t.Errorf("Quicksort profile invalid: %v", err)
	}
}

func TestAppReferenceMix(t *testing.T) {
	profile := PDEProfile()
	layout := DefaultLayout()
	app := MustApp(profile, layout, 0, 1, 0)
	const n = 200000
	var shared, localWrite, codeRead, localRead int
	for i := 0; i < n; i++ {
		op := app.Next(Result{})
		switch {
		case op.Class == coherence.ClassShared:
			shared++
		case op.Class == coherence.ClassLocal && op.Kind == OpWrite:
			localWrite++
		case op.Class == coherence.ClassCode:
			codeRead++
		default:
			localRead++
		}
	}
	frac := func(c int) float64 { return float64(c) / n }
	if math.Abs(frac(shared)-0.05) > 0.01 {
		t.Errorf("shared fraction = %.3f, want ~0.05", frac(shared))
	}
	if math.Abs(frac(localWrite)-0.08) > 0.01 {
		t.Errorf("local-write fraction = %.3f, want ~0.08", frac(localWrite))
	}
	if codeRead == 0 || localRead == 0 {
		t.Error("missing code or local-read references")
	}
	if app.Refs() != n {
		t.Errorf("Refs() = %d, want %d", app.Refs(), n)
	}
}

func TestAppAddressesStayInSegments(t *testing.T) {
	layout := DefaultLayout()
	app := MustApp(QuicksortProfile(), layout, 3, 9, 0)
	for i := 0; i < 50000; i++ {
		op := app.Next(Result{})
		switch op.Class {
		case coherence.ClassShared:
			if op.Addr < layout.SharedBase || op.Addr >= layout.SharedBase+bus.Addr(layout.SharedWords) {
				t.Fatalf("shared ref %d outside segment", op.Addr)
			}
		case coherence.ClassCode:
			if op.Addr < layout.CodeBase(3) || op.Addr >= layout.CodeBase(3)+bus.Addr(layout.CodeWords) {
				t.Fatalf("code ref %d outside segment", op.Addr)
			}
		case coherence.ClassLocal:
			if op.Addr < layout.LocalBase(3) || op.Addr >= layout.LocalBase(3)+bus.Addr(layout.LocalWords) {
				t.Fatalf("local ref %d outside segment", op.Addr)
			}
		}
	}
}

func TestAppHaltsAtMaxRefs(t *testing.T) {
	app := MustApp(PDEProfile(), DefaultLayout(), 0, 1, 10)
	for i := 0; i < 10; i++ {
		if op := app.Next(Result{}); op.Kind == OpHalt {
			t.Fatalf("halted early at %d", i)
		}
	}
	if op := app.Next(Result{}); op.Kind != OpHalt {
		t.Fatal("did not halt at maxRefs")
	}
}

func TestAppDeterministic(t *testing.T) {
	a := MustApp(PDEProfile(), DefaultLayout(), 2, 5, 0)
	b := MustApp(PDEProfile(), DefaultLayout(), 2, 5, 0)
	for i := 0; i < 10000; i++ {
		if a.Next(Result{}) != b.Next(Result{}) {
			t.Fatal("same-seed apps diverged")
		}
	}
}

// TestBoundedAppReservesItsReach: an App bounded at maxRefs reserves
// min(MaxDepth+2, stackReserve, maxRefs+1) stack entries per model, never
// reallocates them when maxRefs < stackReserve, and emits exactly the
// first maxRefs ops of an unbounded App with the same seed, fresh and
// after Reseed: capacity is not state.
func TestBoundedAppReservesItsReach(t *testing.T) {
	profile, layout := PDEProfile(), DefaultLayout()
	for _, maxRefs := range []int{1, 100, 2500, stackReserve - 1, 60000, 70000} {
		bounded := MustApp(profile, layout, 3, 7, maxRefs)
		capCode, capLocal := cap(bounded.code.stack), cap(bounded.local.stack)
		want := min(profile.MaxDepth+2, stackReserve, maxRefs+1)
		if capCode != want || capLocal != want {
			t.Fatalf("maxRefs %d: stack capacities %d/%d, want %d", maxRefs, capCode, capLocal, want)
		}
		fixed := maxRefs < stackReserve
		for i, seed := range []uint64{7, 11} {
			if i > 0 {
				bounded.Reseed(seed)
			}
			unbounded := MustApp(profile, layout, 3, seed, 0)
			n := 0
			for op := bounded.Next(Result{}); op.Kind != OpHalt; op = bounded.Next(Result{}) {
				if ref := unbounded.Next(Result{}); op != ref {
					t.Fatalf("maxRefs %d seed %d: op %d = %+v, unbounded stream has %+v", maxRefs, seed, n, op, ref)
				}
				n++
				if fixed && (cap(bounded.code.stack) != capCode || cap(bounded.local.stack) != capLocal) {
					t.Fatalf("maxRefs %d seed %d: a stack was reallocated at op %d", maxRefs, seed, n)
				}
			}
			if n != maxRefs {
				t.Fatalf("maxRefs %d seed %d: emitted %d ops", maxRefs, seed, n)
			}
		}
	}
}

// TestStackModelLocality: the read stream must be markedly more local than
// uniform — the top-of-stack re-reference rate should be high, and deeper
// reuse must still occur.
func TestStackModelLocality(t *testing.T) {
	rng := NewRNG(3)
	m := newStackModel(rng, 0, 4096, AppProfile{HotFrac: 0.6, HotSet: 16, MaxDepth: 4096}, 0)
	seen := make(map[bus.Addr]int)
	const n = 50000
	for i := 0; i < n; i++ {
		seen[m.next()]++
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct addresses; stream is degenerate", len(seen))
	}
	if len(seen) > n/4 {
		t.Fatalf("%d distinct addresses in %d refs; no locality", len(seen), n)
	}
}

// TestStackModelStaysAStackPastItsSegment: once every offset of a
// segment is on the stack, a draw deeper than the stack references the
// deepest (least recently used) entry, so the stack stays a permutation
// of the segment: a "fresh" offset taken modulo the segment would be a
// second copy of one already there.
func TestStackModelStaysAStackPastItsSegment(t *testing.T) {
	const size = 64
	m := newStackModel(NewRNG(3), 0, size, AppProfile{HotFrac: 0.6, HotSet: 16, MaxDepth: 4096}, 0)
	for range 100_000 {
		m.next()
	}
	seen := make(map[uint16]bool, len(m.stack))
	for _, off := range m.stack {
		if seen[off] {
			t.Fatalf("offset %d is on the stack twice (%d entries for %d offsets)", off, len(m.stack), size)
		}
		seen[off] = true
	}
	if len(m.stack) != size {
		t.Fatalf("stack holds %d entries, want all %d offsets", len(m.stack), size)
	}
}

func TestSpinlockTTSSequence(t *testing.T) {
	s := MustSpinlock(SpinlockConfig{
		Lock: 100, Strategy: StrategyTTS, Iterations: 1,
		CriticalReads: 1, CriticalWrites: 1, GuardedBase: 200, GuardedWords: 4,
	})
	// First op: a plain test read.
	op := s.Next(Result{})
	if op.Kind != OpRead || op.Addr != 100 {
		t.Fatalf("first op = %+v, want test read of lock", op)
	}
	// Lock held: keep spinning with reads.
	op = s.Next(Result{Value: 1})
	if op.Kind != OpRead {
		t.Fatalf("spin op = %+v, want read", op)
	}
	if s.Spins() != 1 {
		t.Fatal("spin not counted")
	}
	// Lock free: escalate to Test-and-Set.
	op = s.Next(Result{Value: 0})
	if op.Kind != OpTestSet {
		t.Fatalf("escalation = %+v, want TS", op)
	}
	// TS failed (someone beat us): back to testing.
	op = s.Next(Result{Value: 1})
	if op.Kind != OpRead {
		t.Fatalf("after lost race = %+v, want test read", op)
	}
	// Free again, TS succeeds: critical section begins.
	s.Next(Result{Value: 0})      // -> TS
	op = s.Next(Result{Value: 0}) // TS success -> first critical op
	if op.Kind != OpRead || op.Addr < 200 || op.Addr >= 204 {
		t.Fatalf("critical op = %+v, want guarded read", op)
	}
	op = s.Next(Result{Value: 5}) // second critical op: the write
	if op.Kind != OpWrite {
		t.Fatalf("critical op 2 = %+v, want guarded write", op)
	}
	// Release.
	op = s.Next(Result{})
	if op.Kind != OpWrite || op.Addr != 100 || op.Data != 0 {
		t.Fatalf("release = %+v", op)
	}
	if s.Acquisitions() != 1 {
		t.Fatalf("acquisitions = %d", s.Acquisitions())
	}
	// Iterations exhausted: halt.
	if op = s.Next(Result{}); op.Kind != OpHalt {
		t.Fatalf("after release = %+v, want halt", op)
	}
}

func TestSpinlockTSNeverTests(t *testing.T) {
	s := MustSpinlock(SpinlockConfig{Lock: 100, Strategy: StrategyTS, Iterations: 1})
	op := s.Next(Result{})
	if op.Kind != OpTestSet {
		t.Fatalf("first op = %+v, want TS", op)
	}
	// Failure spins on TS itself.
	for i := 0; i < 5; i++ {
		op = s.Next(Result{Value: 1})
		if op.Kind != OpTestSet {
			t.Fatalf("TS retry %d = %+v", i, op)
		}
	}
	if s.Attempts() != 6 {
		t.Fatalf("attempts = %d, want 6", s.Attempts())
	}
	// Success: no critical ops configured, so release follows.
	op = s.Next(Result{Value: 0})
	if op.Kind != OpWrite || op.Data != 0 {
		t.Fatalf("release = %+v", op)
	}
}

func TestSpinlockThinkCycles(t *testing.T) {
	s := MustSpinlock(SpinlockConfig{Lock: 1, Strategy: StrategyTS, Iterations: 2, ThinkCycles: 5})
	s.Next(Result{})         // TS
	s.Next(Result{Value: 0}) // success -> release
	op := s.Next(Result{})   // after release -> think
	if op.Kind != OpCompute || op.Cycles != 5 {
		t.Fatalf("think = %+v", op)
	}
	if op = s.Next(Result{}); op.Kind != OpTestSet {
		t.Fatalf("after think = %+v", op)
	}
}

func TestSpinlockValidation(t *testing.T) {
	if _, err := NewSpinlock(SpinlockConfig{Lock: 1, CriticalReads: 1}); err == nil {
		t.Error("critical section without guarded words accepted")
	}
	if _, err := NewSpinlock(SpinlockConfig{Lock: 1, ThinkCycles: -1}); err == nil {
		t.Error("negative think cycles accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustSpinlock did not panic")
			}
		}()
		MustSpinlock(SpinlockConfig{Lock: 1, CriticalWrites: 2})
	}()
}

func TestArrayInitWritesEachWordOnce(t *testing.T) {
	a := NewArrayInit(1000, 5)
	seen := map[bus.Addr]bus.Word{}
	for {
		op := a.Next(Result{})
		if op.Kind == OpHalt {
			break
		}
		if op.Kind != OpWrite {
			t.Fatalf("op = %+v, want write", op)
		}
		if _, dup := seen[op.Addr]; dup {
			t.Fatalf("address %d written twice", op.Addr)
		}
		seen[op.Addr] = op.Data
	}
	if len(seen) != 5 {
		t.Fatalf("wrote %d words, want 5", len(seen))
	}
	if seen[1002] != 3 {
		t.Fatalf("element value = %d, want index+1", seen[1002])
	}
}

func TestHotspotAlternatesReadIncrement(t *testing.T) {
	h := NewHotspot(50, 2)
	op := h.Next(Result{})
	if op.Kind != OpRead || op.Addr != 50 {
		t.Fatalf("op1 = %+v", op)
	}
	op = h.Next(Result{Value: 7})
	if op.Kind != OpWrite || op.Data != 8 {
		t.Fatalf("op2 = %+v, want write of 8", op)
	}
	h.Next(Result{})              // read
	op = h.Next(Result{Value: 8}) // write 9
	if op.Data != 9 {
		t.Fatalf("op4 = %+v", op)
	}
	if op = h.Next(Result{}); op.Kind != OpHalt {
		t.Fatalf("op5 = %+v, want halt", op)
	}
}

func TestProducerConsumerProtocol(t *testing.T) {
	p := NewProducer(10, 11, 2, 0)
	ops := []Op{}
	for {
		op := p.Next(Result{})
		if op.Kind == OpHalt {
			break
		}
		ops = append(ops, op)
		if len(ops) > 20 {
			t.Fatal("producer did not halt")
		}
	}
	// slot, flag, touch, slot, flag, touch
	if ops[0].Addr != 11 || ops[1].Addr != 10 || ops[1].Data != 1 {
		t.Fatalf("producer ops = %+v", ops[:2])
	}

	c := NewConsumer(10, 11, 1)
	op := c.Next(Result{})
	if op.Kind != OpRead || op.Addr != 10 {
		t.Fatalf("consumer op1 = %+v", op)
	}
	// Flag unchanged: spin.
	op = c.Next(Result{Value: 0})
	if op.Addr != 10 {
		t.Fatalf("consumer spin = %+v", op)
	}
	// Flag advanced: read the slot.
	op = c.Next(Result{Value: 1})
	if op.Addr != 11 {
		t.Fatalf("consumer fetch = %+v", op)
	}
	op = c.Next(Result{Value: 1000})
	if op.Kind != OpHalt {
		t.Fatalf("consumer end = %+v", op)
	}
	if c.Received() != 1 || len(c.Values) != 1 || c.Values[0] != 1000 {
		t.Fatalf("consumer state: received=%d values=%v", c.Received(), c.Values)
	}
}

func TestRandomAgentBounds(t *testing.T) {
	r := NewRandom(100, 8, 50, 0.3, 0.1, 1)
	count := 0
	for {
		op := r.Next(Result{})
		if op.Kind == OpHalt {
			break
		}
		count++
		if op.Addr < 100 || op.Addr >= 108 {
			t.Fatalf("address %d out of window", op.Addr)
		}
	}
	if count != 50 {
		t.Fatalf("issued %d ops, want 50", count)
	}
}

// Property: Random agents with the same seed produce identical streams.
func TestQuickRandomDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewRandom(0, 16, 100, 0.4, 0.1, seed)
		b := NewRandom(0, 16, 100, 0.4, 0.1, seed)
		for {
			x, y := a.Next(Result{}), b.Next(Result{})
			if x != y {
				return false
			}
			if x.Kind == OpHalt {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
