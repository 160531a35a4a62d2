package mrc

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/workload"
)

// sizes is the exactness grid: every power of two the acceptance bound
// cares about, from one line past the largest simulated geometry.
var testSizes = PowersOfTwo(0, 13)

// checkExact cross-validates an online profiler against the offline
// stack algorithm over the same stream.
func checkExact(t *testing.T, label string, on *Profiler, off *mattson) {
	t.Helper()
	if on.Refs() != off.Refs() || on.Colds() != off.Colds() || on.Footprint() != off.Footprint() {
		t.Fatalf("%s: refs/colds/footprint = %d/%d/%d online vs %d/%d/%d offline",
			label, on.Refs(), on.Colds(), on.Footprint(), off.Refs(), off.Colds(), off.Footprint())
	}
	onCurve := on.Curve(testSizes)
	offCurve := off.Curve(testSizes)
	if !reflect.DeepEqual(onCurve, offCurve) {
		t.Fatalf("%s: curves differ\nonline:  %+v\noffline: %+v", label, onCurve, offCurve)
	}
	// Spot-check a size beyond the grid and size 0 (no cache).
	for _, s := range []int{0, 1 << 20} {
		if on.Misses(s) != off.Misses(s) {
			t.Fatalf("%s: Misses(%d) = %d online vs %d offline", label, s, on.Misses(s), off.Misses(s))
		}
	}
}

// xorshift is a tiny deterministic generator for the synthetic streams.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// TestProfilerMatchesStackdistStreams drives adversarial address
// patterns through both profilers: uniform random over footprints that
// straddle the bucket boundaries, cyclic scans (the LRU worst case,
// every reference at distance footprint-1), reverse scans (every
// reference at distance 0... footprint-1 mixed), strides, and a
// sparse-directory pattern above the dense window.
func TestProfilerMatchesStackdistStreams(t *testing.T) {
	type gen struct {
		name string
		next func(i int, rng *xorshift) bus.Addr
		n    int
	}
	gens := []gen{
		{"uniform-small", func(i int, rng *xorshift) bus.Addr { return bus.Addr(rng.next() % 7) }, 4000},
		{"uniform-1k", func(i int, rng *xorshift) bus.Addr { return bus.Addr(rng.next() % 1000) }, 20000},
		{"uniform-9k", func(i int, rng *xorshift) bus.Addr { return bus.Addr(rng.next() % 9001) }, 40000},
		{"cyclic-scan", func(i int, rng *xorshift) bus.Addr { return bus.Addr(i % 600) }, 12000},
		{"sawtooth", func(i int, rng *xorshift) bus.Addr {
			p := i % 1024
			if (i/1024)%2 == 1 {
				p = 1023 - p
			}
			return bus.Addr(p)
		}, 16000},
		{"stride-17", func(i int, rng *xorshift) bus.Addr { return bus.Addr((i * 17) % 5000) }, 20000},
		{"zipfish", func(i int, rng *xorshift) bus.Addr {
			// Skewed: half the references hit 8 hot addresses.
			if rng.next()%2 == 0 {
				return bus.Addr(rng.next() % 8)
			}
			return bus.Addr(8 + rng.next()%4000)
		}, 30000},
		{"sparse-window", func(i int, rng *xorshift) bus.Addr {
			// Above denseLimit: exercises the map fallback.
			return bus.Addr(denseLimit) + bus.Addr(rng.next()%300)
		}, 6000},
		{"mixed-windows", func(i int, rng *xorshift) bus.Addr {
			if i%3 == 0 {
				return bus.Addr(denseLimit) + bus.Addr(rng.next()%100)
			}
			return bus.Addr(rng.next() % (3 * pageSize))
		}, 15000},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			on := New()
			off := newMattson()
			rng := xorshift(0x9e3779b97f4a7c15)
			for i := 0; i < g.n; i++ {
				a := g.next(i, &rng)
				on.Touch(a)
				off.Touch(a)
			}
			checkExact(t, g.name, on, off)
		})
	}
}

// teeProbe feeds the online profilers and records the raw streams for
// the offline replay.
type teeProbe struct {
	pe, global *Profiler
	rec        *[]bus.Addr
	all        *[]bus.Addr
}

func (p *teeProbe) OnRef(a bus.Addr) {
	p.pe.Touch(a)
	p.global.Touch(a)
	*p.rec = append(*p.rec, a)
	*p.all = append(*p.all, a)
}

// TestOnlineMatchesOffline is the tentpole cross-validation: for every
// protocol and several seeds, one live profiled run must reproduce the
// offline Mattson curve exactly — per PE and machine-wide — and the
// plain Attach path must match the instrumented run bit for bit.
func TestOnlineMatchesOffline(t *testing.T) {
	const pes = 4
	const refsPerPE = 1500
	layout := workload.DefaultLayout()
	prof := workload.PDEProfile()
	build := func(k coherence.Kind, seed uint64) *machine.Machine {
		agents := make([]workload.Agent, pes)
		for i := range agents {
			agents[i] = workload.MustApp(prof, layout, i, seed, refsPerPE)
		}
		m, err := machine.New(machine.Config{Protocol: coherence.New(k), CacheLines: 64}, agents)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *machine.Machine) {
		t.Helper()
		if _, err := m.Run(uint64(refsPerPE) * 200); err != nil {
			t.Fatal(err)
		}
		if !m.Done() {
			t.Fatal("machine did not drain")
		}
	}
	for _, k := range coherence.Kinds() {
		for _, seed := range []uint64{1, 2, 3} {
			k, seed := k, seed
			t.Run(fmt.Sprintf("%s/seed%d", k, seed), func(t *testing.T) {
				// Instrumented run: online profilers plus raw stream capture.
				m := build(k, seed)
				perPE := make([]*Profiler, pes)
				recs := make([][]bus.Addr, pes)
				global := New()
				var all []bus.Addr
				for i := 0; i < pes; i++ {
					perPE[i] = New()
					m.Cache(i).SetProbe(&teeProbe{pe: perPE[i], global: global, rec: &recs[i], all: &all})
				}
				run(m)

				// Offline replay of the captured streams.
				offAll := newMattson()
				for _, a := range all {
					offAll.Touch(a)
				}
				checkExact(t, "machine", global, offAll)
				for i := 0; i < pes; i++ {
					off := newMattson()
					for _, a := range recs[i] {
						off.Touch(a)
					}
					checkExact(t, fmt.Sprintf("pe%d", i), perPE[i], off)
				}

				// The production Attach path on a fresh identical machine
				// must yield the same curves (and identical metrics: the
				// probe must not perturb the simulation).
				m2 := build(k, seed)
				set := Attach(m2)
				run(m2)
				if !reflect.DeepEqual(set.Global.Curve(testSizes), global.Curve(testSizes)) {
					t.Fatal("Attach path curve differs from instrumented run")
				}
				for i := 0; i < pes; i++ {
					if !reflect.DeepEqual(set.PerPE[i].Curve(testSizes), perPE[i].Curve(testSizes)) {
						t.Fatalf("Attach path pe%d curve differs", i)
					}
				}
				m3 := build(k, seed)
				run(m3)
				if got, want := m2.Metrics(), m3.Metrics(); !reflect.DeepEqual(got, want) {
					t.Fatalf("profiling perturbed the run:\nprofiled:   %+v\nunprofiled: %+v", got, want)
				}
			})
		}
	}
}

// TestDocsShape pins the serialization order: machine scope first, then
// pe0..peN, points ascending — the determinism the store byte-compare
// relies on.
func TestDocsShape(t *testing.T) {
	agents := []workload.Agent{
		workload.NewRandom(0, 128, 400, 0.3, 0, 7),
		workload.NewRandom(4096, 128, 400, 0.3, 0, 8),
	}
	m, err := machine.New(machine.Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 32}, agents)
	if err != nil {
		t.Fatal(err)
	}
	set := Attach(m)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	docs := set.Docs(DefaultSizes())
	if len(docs) != 3 {
		t.Fatalf("got %d docs, want 3", len(docs))
	}
	for i, want := range []string{"machine", "pe0", "pe1"} {
		if docs[i].Scope != want {
			t.Fatalf("docs[%d].Scope = %q, want %q", i, docs[i].Scope, want)
		}
		pts := docs[i].Points
		for j := 1; j < len(pts); j++ {
			if pts[j-1].Lines >= pts[j].Lines {
				t.Fatalf("docs[%d] points not ascending: %+v", i, pts)
			}
		}
		if docs[i].Refs == 0 {
			t.Fatalf("docs[%d] observed no references", i)
		}
	}
	if docs[0].Refs != docs[1].Refs+docs[2].Refs {
		t.Fatalf("machine refs %d != sum of per-PE refs %d+%d", docs[0].Refs, docs[1].Refs, docs[2].Refs)
	}
}

// randomMachine builds an RB machine of pes endless random agents, each
// over its own 512-word footprint with 64-line caches, so references
// miss and stall often enough that a cycle issues anywhere from none to
// pes of them.
func randomMachine(t *testing.T, pes int) *machine.Machine {
	t.Helper()
	agents := make([]workload.Agent, pes)
	for i := range agents {
		agents[i] = workload.NewRandom(bus.Addr(i)<<12, 512, 1<<30, 0.3, 0.02, uint64(i+1))
	}
	m, err := machine.New(machine.Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 64}, agents)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAttachSettlesAtEveryRead reads an attached Set with the feed in
// each state it can be in — one reference buffered, one short of a
// chunk, a chunk just shipped to a drain, one past it, several chunks
// and a remainder — and again after Detach. Every read must equal a twin
// machine whose probes touch inline (the teeProbe of
// TestOnlineMatchesOffline).
func TestAttachSettlesAtEveryRead(t *testing.T) {
	const pes = 3
	m, twin := randomMachine(t, pes), randomMachine(t, pes)
	set := Attach(m)
	inline := &Set{Global: New(), PerPE: make([]*Profiler, pes)}
	var recs [pes][]bus.Addr
	var all []bus.Addr
	for i := range inline.PerPE {
		inline.PerPE[i] = New()
		twin.Cache(i).SetProbe(&teeProbe{pe: inline.PerPE[i], global: inline.Global, rec: &recs[i], all: &all})
	}
	same := func(label string) {
		t.Helper()
		if got, want := set.Docs(testSizes), inline.Docs(testSizes); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: attached read differs from inline touching\nattached: %+v\ninline:   %+v", label, got, want)
		}
	}

	// Reads settle the feed, so a read's buffered count is the stream's
	// growth since the previous read. advance steps the twin a cycle at a
	// time until that growth reaches want, then runs m as many cycles.
	read := uint64(0)
	advance := func(want uint64) (buffered uint64) {
		t.Helper()
		cycles := uint64(0)
		for inline.Global.Refs()-read < want {
			if err := twin.RunFor(1); err != nil {
				t.Fatal(err)
			}
			cycles++
		}
		if err := m.RunFor(cycles); err != nil {
			t.Fatal(err)
		}
		return inline.Global.Refs() - read
	}
	// A cycle can add several references; when one steps past the
	// target, that read is compared too and the target is tried again.
	for _, want := range []uint64{1, feedChunk - 1, feedChunk, feedChunk + 1, 3*feedChunk + 100} {
		for tries := 0; ; tries++ {
			if tries == 50 {
				t.Fatalf("no read landed on %d buffered references", want)
			}
			buffered := advance(want)
			if got := uint64(len(set.Global.feed.fill)); got != buffered%feedChunk {
				t.Fatalf("%d buffered: fill buffer holds %d", buffered, got)
			}
			same(fmt.Sprintf("%d buffered", buffered))
			read = inline.Global.Refs()
			if buffered == want {
				break
			}
		}
	}

	// Detach with chunks shipped and a remainder buffered: everything
	// buffered is still counted, and nothing after.
	if buffered := advance(2*feedChunk + 100); buffered%feedChunk == 0 {
		t.Fatalf("%d buffered at Detach: want a partial chunk", buffered)
	}
	Detach(m)
	for i := 0; i < pes; i++ {
		twin.Cache(i).SetProbe(nil)
	}
	for _, mm := range []*machine.Machine{m, twin} {
		if err := mm.RunFor(feedChunk); err != nil {
			t.Fatal(err)
		}
	}
	same("after Detach")
}

// TestAttachLeavesNoGoroutine: a drain goroutine lives only as long as
// its chunk, whether the Set is read or dropped unread — a daemon that
// profiles for as long as it runs accumulates none. The drain signals
// its chunk done just before it returns, so the count is polled.
func TestAttachLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(label string) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 1000 {
				t.Fatalf("%s: %d goroutines, %d before", label, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	m := randomMachine(t, 4)
	set := Attach(m)
	if err := m.RunFor(20_000); err != nil {
		t.Fatal(err)
	}
	if set.Global.Refs() <= 4*feedChunk {
		t.Fatalf("run shipped too few chunks: %d references", set.Global.Refs())
	}
	settled("after a read")

	dropped := randomMachine(t, 4)
	Attach(dropped)
	if err := dropped.RunFor(20_000); err != nil {
		t.Fatal(err)
	}
	settled("Set dropped unread")
}

// TestProfilerSteadyStateAllocFree pins the tentpole's hot-path budget:
// once the footprint's nodes and directory pages exist, a profiled
// cycle loop allocates exactly as much as an unprofiled one — nothing.
// A 2 000-cycle window carries about 1 840 references, so the five
// measured windows span four or five hand-offs to a drain goroutine;
// spawning one must not allocate either.
func TestProfilerSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const pes = 4
	agents := make([]workload.Agent, pes)
	for i := range agents {
		// Bounded footprint (256 words per PE) so the cold path drains
		// during warmup; effectively endless so the loop never idles.
		agents[i] = workload.NewRandom(bus.Addr(i)<<12, 256, 1<<30, 0.3, 0.02, uint64(i+1))
	}
	m, err := machine.New(machine.Config{Protocol: coherence.New(coherence.KindRB), CacheLines: 64}, agents)
	if err != nil {
		t.Fatal(err)
	}
	Attach(m)
	if err := m.RunFor(20_000); err != nil {
		t.Fatal(err)
	}
	const chunk = 2_000
	avg := testing.AllocsPerRun(5, func() {
		if err := m.RunFor(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if perCycle := avg / chunk; perCycle != 0 {
		t.Errorf("profiled steady state allocates: %.6f allocs/cycle (%v allocs per %d cycles)",
			perCycle, avg, chunk)
	}
}

// BenchmarkProfiledCycle is one cycle of the benchmark harness's
// core-profiled machine (RWB(2), two PDE PEs, 2 048-line caches) with
// its profilers attached, the final read included. At -cpu 1 the drain
// interleaves with the machine on one core.
func BenchmarkProfiledCycle(b *testing.B) {
	agents := make([]workload.Agent, 2)
	for i := range agents {
		agents[i] = workload.MustApp(workload.PDEProfile(), workload.DefaultLayout(), i, 1, 0)
	}
	m, err := machine.New(machine.Config{Protocol: coherence.NewRWB(2), CacheLines: 2048}, agents)
	if err != nil {
		b.Fatal(err)
	}
	set := Attach(m)
	if err := m.RunFor(20_000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := m.RunFor(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	set.Global.Refs()
}

// BenchmarkTouch measures the steady-state hot path: every address
// already resident, mixed reuse distances from a power-law sweep.
func BenchmarkTouch(b *testing.B) {
	p := New()
	const footprint = 4096
	for a := 0; a < footprint; a++ {
		p.Touch(bus.Addr(a))
	}
	rng := uint64(12345)
	addrs := make([]bus.Addr, 8192)
	for i := range addrs {
		rng = rng*6364136223846793005 + 1442695040888963407
		// Power-law-ish reuse: small distances dominate.
		d := int(rng>>33) % footprint
		d = d * d / footprint
		addrs[i] = bus.Addr(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(addrs[i%len(addrs)])
	}
}
