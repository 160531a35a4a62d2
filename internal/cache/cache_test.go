package cache

import (
	"testing"
	"unsafe"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/memory"
)

// rig wires n caches of one protocol to a bus and memory and provides a
// minimal drive loop (the full machine lives in internal/machine; this is
// just enough to unit-test cache behavior end to end).
type rig struct {
	t      *testing.T
	mem    *memory.Memory
	bus    *bus.Bus
	caches []*Cache
}

func newRig(t *testing.T, protoName string, n, lines int) *rig {
	t.Helper()
	proto, err := coherence.ByName(protoName)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{t: t, mem: memory.New()}
	r.bus = bus.New(r.mem)
	for i := 0; i < n; i++ {
		c := MustNew(i, proto, Config{Lines: lines})
		r.bus.Attach(i, c)
		r.bus.AttachRequester(i, c)
		r.caches = append(r.caches, c)
	}
	return r
}

// drive runs bus cycles until cache id's pending operation resolves.
func (r *rig) drive(id int) bus.Word {
	r.t.Helper()
	for cycle := 0; cycle < 1000; cycle++ {
		if v, ok := r.caches[id].TakeResolved(); ok {
			return v
		}
		for _, c := range r.caches {
			if c.NeedsPriority() {
				r.bus.PrioritySlot(c.ID())
			} else if _, want := c.WantsBus(); want && !r.bus.Slotted(c.ID()) {
				r.bus.RequestSlot(c.ID())
			}
		}
		req, res, ok := r.bus.Tick()
		if ok {
			r.caches[req.Source].BusCompleted(req, res)
		}
	}
	r.t.Fatal("drive: no resolution within 1000 cycles")
	return 0
}

func (r *rig) read(id int, a bus.Addr) bus.Word {
	r.t.Helper()
	done, v := r.caches[id].Access(coherence.EvRead, a, 0, coherence.ClassShared)
	if done {
		return v
	}
	return r.drive(id)
}

func (r *rig) write(id int, a bus.Addr, v bus.Word) {
	r.t.Helper()
	done, _ := r.caches[id].Access(coherence.EvWrite, a, v, coherence.ClassShared)
	if !done {
		r.drive(id)
	}
}

func (r *rig) ts(id int, a bus.Addr, set bus.Word) bus.Word {
	r.t.Helper()
	done, old := r.caches[id].AccessRMW(a, set)
	if done {
		return old
	}
	return r.drive(id)
}

func (r *rig) state(id int, a bus.Addr) coherence.State {
	s, _, _ := r.caches[id].Lookup(a)
	return s
}

func TestConfigValidation(t *testing.T) {
	proto := coherence.New(coherence.KindRB)
	if _, err := New(0, proto, Config{Lines: 3}); err == nil {
		t.Error("non-power-of-two Lines accepted")
	}
	if _, err := New(0, proto, Config{Lines: 8, Ways: 3}); err == nil {
		t.Error("Ways not dividing Lines accepted")
	}
	if _, err := New(0, nil, Config{Lines: 8}); err == nil {
		t.Error("nil protocol accepted")
	}
	if c, err := New(0, proto, Config{Lines: 8}); err != nil || c == nil {
		t.Errorf("valid config rejected: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew with bad config did not panic")
			}
		}()
		MustNew(0, proto, Config{Lines: 0})
	}()
}

func TestReadMissInstallsThenHits(t *testing.T) {
	r := newRig(t, "rb", 1, 16)
	r.mem.Poke(5, 42)
	if v := r.read(0, 5); v != 42 {
		t.Fatalf("read = %d, want 42", v)
	}
	if r.state(0, 5) != coherence.Readable {
		t.Fatalf("state = %v, want Readable", r.state(0, 5))
	}
	// Second read hits with no bus traffic.
	before := r.bus.Stats().Transactions()
	if v := r.read(0, 5); v != 42 {
		t.Fatalf("second read = %d", v)
	}
	if r.bus.Stats().Transactions() != before {
		t.Fatal("read hit generated bus traffic")
	}
	st := r.caches[0].Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRBWriteTakesLocalAndInvalidatesOthers(t *testing.T) {
	r := newRig(t, "rb", 3, 16)
	r.mem.Poke(7, 1)
	// Everyone reads the word. (The broadcast only refreshes caches that
	// already contain the address, so each cache fetches it once.)
	for id := 0; id < 3; id++ {
		if v := r.read(id, 7); v != 1 {
			t.Fatal("read wrong value")
		}
		if r.state(id, 7) != coherence.Readable {
			t.Fatalf("cache %d state = %v, want Readable", id, r.state(id, 7))
		}
	}
	// One write moves the writer to Local and invalidates the rest.
	r.write(1, 7, 99)
	if r.state(1, 7) != coherence.Local {
		t.Fatalf("writer state = %v, want Local", r.state(1, 7))
	}
	if r.state(0, 7) != coherence.Invalid || r.state(2, 7) != coherence.Invalid {
		t.Fatal("other caches not invalidated")
	}
	// Write-through: memory has the value.
	if r.mem.Peek(7) != 99 {
		t.Fatalf("memory = %d, want 99 (write-through)", r.mem.Peek(7))
	}
}

func TestRBReadOfLocalLineFlushesAndBroadcasts(t *testing.T) {
	r := newRig(t, "rb", 3, 16)
	r.write(1, 7, 10) // cache 1 Local
	// Dirty it with a second (purely local) write.
	r.write(1, 7, 20)
	if r.mem.Peek(7) != 10 {
		t.Fatal("local write leaked to memory")
	}
	// Cache 0 reads: interrupt, flush, retry; everyone ends Readable.
	if v := r.read(0, 7); v != 20 {
		t.Fatalf("read = %d, want the flushed 20", v)
	}
	if r.mem.Peek(7) != 20 {
		t.Fatal("flush did not update memory")
	}
	for id := 0; id < 3; id++ {
		want := coherence.Readable
		if id == 2 {
			// Cache 2 never touched address 7; under RB it holds no line
			// and cannot pick up the broadcast.
			want = coherence.NotPresent
		}
		if got := r.state(id, 7); got != want {
			t.Fatalf("cache %d state = %v, want %v", id, got, want)
		}
	}
	st := r.bus.Stats()
	if st.KilledReads != 1 || st.Retries != 1 {
		t.Fatalf("bus stats = %+v, want 1 killed read and 1 retry", st)
	}
	if r.caches[1].Stats().FlushSupplied != 1 {
		t.Fatal("owner's flush not counted")
	}
}

func TestRBBroadcastRefreshesInvalidCopies(t *testing.T) {
	r := newRig(t, "rb", 3, 16)
	r.mem.Poke(3, 5)
	r.read(0, 3)
	r.read(1, 3)
	r.write(2, 3, 6) // invalidates 0 and 1
	if r.state(0, 3) != coherence.Invalid || r.state(1, 3) != coherence.Invalid {
		t.Fatal("write did not invalidate")
	}
	// Cache 0 re-reads: 1's Invalid copy is refreshed by the broadcast.
	if v := r.read(0, 3); v != 6 {
		t.Fatalf("read = %d", v)
	}
	if r.state(1, 3) != coherence.Readable {
		t.Fatal("cache 1 did not pick up the read broadcast")
	}
	if _, v, ok := r.caches[1].Lookup(3); !ok || v != 6 {
		t.Fatalf("cache 1 value = %d, want 6", v)
	}
	if r.caches[1].Stats().Snarfs == 0 {
		t.Fatal("broadcast take not counted")
	}
}

func TestEvictionWritesBackLocalLine(t *testing.T) {
	// Direct-mapped 4-line cache: addresses 2 and 6 collide (set = a mod 4).
	r := newRig(t, "rb", 1, 4)
	r.write(0, 2, 11) // Local, then dirty it
	r.write(0, 2, 12)
	if r.mem.Peek(2) != 11 {
		t.Fatal("setup: local write should not reach memory")
	}
	r.read(0, 6) // conflicts: eviction must write 12 back first
	if r.mem.Peek(2) != 12 {
		t.Fatalf("memory = %d after eviction, want 12", r.mem.Peek(2))
	}
	if r.state(0, 2) != coherence.NotPresent {
		t.Fatal("victim still present")
	}
	st := r.caches[0].Stats()
	if st.Writebacks != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 writeback, 1 eviction", st)
	}
	// The whole miss needed two bus transactions: BW (writeback) + BR.
	bs := r.bus.Stats()
	if bs.Writes() != 2 || bs.Reads() != 1 { // writes: 2 CPU write-throughs... see below
		// write(2,11) was a BW; write(2,12) was local; writeback BW; read BR.
		t.Fatalf("bus stats = %+v", bs)
	}
}

func TestRBCleanLocalStillWritesBackOnEvict(t *testing.T) {
	// Paper fidelity: RB has no dirty bit for eviction purposes — every
	// Local line writes back, even if clean. This is what doubles RB's
	// array-initialization traffic (Section 5).
	r := newRig(t, "rb", 1, 4)
	r.write(0, 2, 11) // Local, clean (write-through happened)
	r.read(0, 6)
	st := r.caches[0].Stats()
	if st.Writebacks != 1 {
		t.Fatalf("clean Local line was not written back (writebacks=%d)", st.Writebacks)
	}
}

func TestRWBFirstWriteEvictsSilently(t *testing.T) {
	// The Section 5 claim, cache-level view: a single initializing write
	// leaves an RWB line in F (clean), which evicts without a write-back.
	r := newRig(t, "rwb", 1, 4)
	r.write(0, 2, 11) // F, clean
	if r.state(0, 2) != coherence.FirstWrite {
		t.Fatalf("state = %v, want FirstWrite", r.state(0, 2))
	}
	r.read(0, 6)
	if st := r.caches[0].Stats(); st.Writebacks != 0 {
		t.Fatalf("F line wrote back (writebacks=%d)", st.Writebacks)
	}
}

func TestRWBSecondWriteClaimsLocalViaInvalidate(t *testing.T) {
	r := newRig(t, "rwb", 2, 16)
	r.mem.Poke(4, 0)
	r.read(1, 4) // cache 1 holds R
	r.write(0, 4, 1)
	if r.state(0, 4) != coherence.FirstWrite {
		t.Fatalf("after first write: %v", r.state(0, 4))
	}
	// Cache 1 snarfed the write.
	if s, v, _ := r.caches[1].Lookup(4); s != coherence.Readable || v != 1 {
		t.Fatalf("cache 1 = (%v, %d), want (Readable, 1)", s, v)
	}
	invBefore := r.bus.Stats().Invalidates()
	r.write(0, 4, 2)
	if r.state(0, 4) != coherence.Local {
		t.Fatalf("after second write: %v, want Local", r.state(0, 4))
	}
	if r.state(1, 4) != coherence.Invalid {
		t.Fatal("BI did not invalidate cache 1")
	}
	if r.bus.Stats().Invalidates() != invBefore+1 {
		t.Fatal("no BI on the bus")
	}
	// BI carries no data: memory still has the first write's value.
	if r.mem.Peek(4) != 1 {
		t.Fatalf("memory = %d, want 1 (BI carries no data)", r.mem.Peek(4))
	}
}

func TestRWBSnoopedReadResetsWriteStreak(t *testing.T) {
	// Cache 0 is in F (one write done); cache 1's read is granted before
	// cache 0's second write (round-robin). The snooped read is an
	// intervening reference, so the streak resets: the second write goes
	// out as a BW (not BI) and cache 1 snarfs the new value.
	r := newRig(t, "rwb", 2, 16)
	r.mem.Poke(9, 1)
	r.read(0, 9)
	r.write(0, 9, 2) // cache 0: F, streak 1
	done, _ := r.caches[1].Access(coherence.EvRead, 9, 0, coherence.ClassShared)
	if done {
		t.Fatal("read unexpectedly hit")
	}
	done0, _ := r.caches[0].Access(coherence.EvWrite, 9, 3, coherence.ClassShared)
	if done0 {
		t.Fatal("F-state second write should need the bus")
	}
	// Round-robin after cache 0's last grant favors cache 1: the read
	// serializes first and returns the pre-write value.
	if v := r.drive(1); v != 2 {
		t.Fatalf("cache 1 read %d, want 2 (read serialized before the write)", v)
	}
	r.drive(0)
	// The write was demoted to a BW by the streak reset...
	if got := r.bus.Stats().Invalidates(); got != 0 {
		t.Fatalf("BI count = %d, want 0 (streak was reset)", got)
	}
	if r.state(0, 9) != coherence.FirstWrite {
		t.Fatalf("writer state = %v, want FirstWrite", r.state(0, 9))
	}
	// ...and cache 1 snarfed the broadcast value.
	if _, v, _ := r.caches[1].Lookup(9); v != 3 {
		t.Fatalf("cache 1 value = %d, want snarfed 3", v)
	}
}

func TestRWBPendingReadSatisfiedBySnarf(t *testing.T) {
	// A cache holding an Invalid copy and waiting for the bus can be
	// satisfied by snarfing another PE's bus write — its own bus read is
	// withdrawn, costing zero extra transactions.
	r := newRig(t, "rwb", 3, 16)
	r.mem.Poke(9, 1)
	r.read(1, 9)     // cache 1: R(1)
	r.write(0, 9, 2) // cache 0: F; cache 1 snarfs
	r.write(0, 9, 3) // cache 0: L via BI; cache 1: Invalid
	if r.state(1, 9) != coherence.Invalid {
		t.Fatal("setup: cache 1 should hold an Invalid copy")
	}
	// Dummy transaction by cache 1 so round-robin favors cache 2 next.
	r.read(1, 11)
	// Cache 1 wants to read 9 (pending BR); cache 2 writes 9 first.
	done, _ := r.caches[1].Access(coherence.EvRead, 9, 0, coherence.ClassShared)
	if done {
		t.Fatal("read of Invalid copy unexpectedly hit")
	}
	done2, _ := r.caches[2].Access(coherence.EvWrite, 9, 5, coherence.ClassShared)
	if done2 {
		t.Fatal("cache 2 write unexpectedly hit")
	}
	readsBefore := r.bus.Stats().Reads()
	if v := r.drive(1); v != 5 {
		t.Fatalf("cache 1 read %d, want 5 (snarfed from cache 2's write)", v)
	}
	r.drive(2)
	if got := r.bus.Stats().Reads(); got != readsBefore {
		t.Fatalf("bus reads grew by %d; the pending read should have been withdrawn", got-readsBefore)
	}
	if r.state(1, 9) != coherence.Readable {
		t.Fatalf("cache 1 state = %v, want Readable", r.state(1, 9))
	}
}

func TestGoodmanWriteMissIsTwoTransactions(t *testing.T) {
	r := newRig(t, "goodman", 1, 16)
	r.write(0, 5, 77)
	if r.state(0, 5) != coherence.Reserved {
		t.Fatalf("state = %v, want Reserved", r.state(0, 5))
	}
	bs := r.bus.Stats()
	if bs.Reads() != 1 || bs.Writes() != 1 {
		t.Fatalf("bus stats = %+v, want 1 BR + 1 BW", bs)
	}
	if r.mem.Peek(5) != 77 {
		t.Fatal("write-once did not reach memory")
	}
}

func TestGoodmanDirtyOwnerServicesRead(t *testing.T) {
	r := newRig(t, "goodman", 2, 16)
	r.write(0, 5, 1) // Reserved
	r.write(0, 5, 2) // Dirty (local)
	if r.mem.Peek(5) != 1 {
		t.Fatal("dirty write leaked")
	}
	if v := r.read(1, 5); v != 2 {
		t.Fatalf("read = %d, want 2", v)
	}
	if r.state(0, 5) != coherence.Valid {
		t.Fatalf("owner state = %v, want Valid", r.state(0, 5))
	}
	if r.mem.Peek(5) != 2 {
		t.Fatal("flush did not reach memory")
	}
}

func TestTSLocalFastPath(t *testing.T) {
	r := newRig(t, "rb", 1, 16)
	r.write(0, 8, 0) // Local with value 0
	before := r.bus.Stats().Transactions()
	old := r.ts(0, 8, 1)
	if old != 0 {
		t.Fatalf("TS old = %d, want 0", old)
	}
	if r.bus.Stats().Transactions() != before {
		t.Fatal("local TS generated bus traffic")
	}
	if r.caches[0].Stats().LocalRMWs != 1 {
		t.Fatal("local TS not counted")
	}
	// The lock is held; a second local TS fails.
	if old := r.ts(0, 8, 1); old != 1 {
		t.Fatalf("second TS old = %d, want 1", old)
	}
}

func TestTSBusPath(t *testing.T) {
	r := newRig(t, "rb", 2, 16)
	// Cache 0 acquires over the bus.
	if old := r.ts(0, 8, 1); old != 0 {
		t.Fatal("first TS should succeed")
	}
	if r.state(0, 8) != coherence.Local {
		t.Fatalf("winner state = %v, want Local", r.state(0, 8))
	}
	if r.mem.Peek(8) != 1 {
		t.Fatal("TS write did not reach memory")
	}
	// Cache 1 fails; its cache state is untouched (non-cachable read).
	if old := r.ts(1, 8, 1); old != 1 {
		t.Fatal("second TS should fail")
	}
	if r.state(1, 8) != coherence.NotPresent {
		t.Fatalf("loser state = %v, want NotPresent", r.state(1, 8))
	}
	bs := r.bus.Stats()
	if bs.RMWSuccess != 1 || bs.RMWFailure != 1 {
		t.Fatalf("bus stats = %+v", bs)
	}
}

func TestTSDirtyOwnerFlushSequence(t *testing.T) {
	// The release-and-reacquire sequence behind Figure 6-1's last rows:
	// the holder releases locally (dirty L), the next TS's locked read
	// forces a flush, then succeeds.
	r := newRig(t, "rb", 2, 16)
	r.ts(0, 8, 1)    // acquire: L(1) clean
	r.write(0, 8, 0) // release locally: L(0) dirty; memory still 1
	if r.mem.Peek(8) != 1 {
		t.Fatal("release leaked to memory")
	}
	old := r.ts(1, 8, 1)
	if old != 0 {
		t.Fatalf("TS after flush: old = %d, want 0", old)
	}
	if r.mem.Peek(8) != 1 {
		t.Fatal("acquired lock not in memory")
	}
	// The old holder was invalidated by the success write.
	if r.state(0, 8) != coherence.Invalid {
		t.Fatalf("old holder = %v, want Invalid", r.state(0, 8))
	}
	if r.bus.Stats().RMWFlushes != 1 {
		t.Fatal("locked-read flush not counted")
	}
}

func TestCmStarSharedBypassesCache(t *testing.T) {
	r := newRig(t, "cmstar", 1, 16)
	r.mem.Poke(3, 9)
	done, _ := r.caches[0].Access(coherence.EvRead, 3, 0, coherence.ClassShared)
	if done {
		t.Fatal("shared read serviced by cache")
	}
	if v := r.drive(0); v != 9 {
		t.Fatalf("bypass read = %d, want 9", v)
	}
	if r.state(0, 3) != coherence.NotPresent {
		t.Fatal("bypass read allocated a line")
	}
	if r.caches[0].Stats().Bypasses != 1 {
		t.Fatal("bypass not counted")
	}
	// Code reads are cached.
	done, _ = r.caches[0].Access(coherence.EvRead, 4, 0, coherence.ClassCode)
	if done {
		t.Fatal("first code read should miss")
	}
	r.drive(0)
	if r.state(0, 4) != coherence.Valid {
		t.Fatal("code read did not allocate")
	}
}

func TestLRUWithTwoWays(t *testing.T) {
	// 4 lines, 2 ways -> 2 sets. Addresses 0, 2, 4 share set 0.
	proto := coherence.New(coherence.KindRB)
	mem := memory.New()
	b := bus.New(mem)
	c := MustNew(0, proto, Config{Lines: 4, Ways: 2})
	b.Attach(0, c)
	b.AttachRequester(0, c)
	r := &rig{t: t, mem: mem, bus: b, caches: []*Cache{c}}

	mem.Poke(0, 100)
	mem.Poke(2, 102)
	mem.Poke(4, 104)
	r.read(0, 0)
	r.read(0, 2)
	r.read(0, 0) // touch 0: now 2 is LRU
	r.read(0, 4) // evicts 2
	if r.state(0, 2) != coherence.NotPresent {
		t.Fatal("LRU did not evict address 2")
	}
	if r.state(0, 0) != coherence.Readable || r.state(0, 4) != coherence.Readable {
		t.Fatal("wrong lines evicted")
	}
}

// TestLRUEvictionOrder: at 2 and 4 ways, after a set is filled and then
// re-read in a shuffled order, successive conflict misses evict its ways
// in exactly that order, oldest first, and keep the rest.
func TestLRUEvictionOrder(t *testing.T) {
	for _, c := range []struct {
		ways  int
		touch []int // indices into the set's addresses, oldest use first
	}{
		{2, []int{1, 0}},
		{4, []int{2, 0, 3, 1}},
	} {
		proto := coherence.New(coherence.KindRB)
		mem := memory.New()
		b := bus.New(mem)
		cache := MustNew(0, proto, Config{Lines: 2 * c.ways, Ways: c.ways})
		b.Attach(0, cache)
		b.AttachRequester(0, cache)
		r := &rig{t: t, mem: mem, bus: b, caches: []*Cache{cache}}
		// Two sets: the even addresses share set 0.
		set := make([]bus.Addr, c.ways)
		for i := range set {
			set[i] = bus.Addr(2 * i)
			r.read(0, set[i])
		}
		for _, i := range c.touch {
			r.read(0, set[i])
		}
		for n := range c.touch {
			r.read(0, bus.Addr(2*(c.ways+n)))
			for m, i := range c.touch {
				if present := r.state(0, set[i]) != coherence.NotPresent; present != (m > n) {
					t.Fatalf("%d ways, conflict miss %d: address %d present = %v", c.ways, n, set[i], present)
				}
			}
		}
	}
}

// TestLineIs12Bytes pins the frame layout: addr and data, then four
// one-byte fields, no padding and no LRU stamp (Cache.stamps holds it,
// for set-associative caches only).
func TestLineIs12Bytes(t *testing.T) {
	if size := unsafe.Sizeof(line{}); size != 12 {
		t.Fatalf("line is %d bytes, want 12", size)
	}
	if dm := MustNew(0, coherence.New(coherence.KindRB), Config{Lines: 8}); dm.stamps != nil {
		t.Error("a direct-mapped cache allocated LRU stamps")
	}
}

func TestEntriesListsValidLines(t *testing.T) {
	r := newRig(t, "rb", 1, 16)
	r.write(0, 1, 10)
	r.read(0, 2)
	entries := r.caches[0].Entries()
	if len(entries) != 2 {
		t.Fatalf("Entries() returned %d lines, want 2", len(entries))
	}
	byAddr := map[bus.Addr]Entry{}
	for _, e := range entries {
		byAddr[e.Addr] = e
	}
	if byAddr[1].State != coherence.Local || byAddr[1].Data != 10 {
		t.Fatalf("entry for addr 1 = %+v", byAddr[1])
	}
}

// TestRestoreIsTheInverseOfEntries: what Restore writes, Entries lists and
// the cache then acts on; the frame's previous occupant is gone without a
// write-back, and the holder table and the has-news bit follow.
func TestRestoreIsTheInverseOfEntries(t *testing.T) {
	r := newRig(t, "rwb", 2, 1)
	var news uint64
	c := r.caches[0]
	c.SetNews(&news, 1)
	holders := func(a bus.Addr) uint64 { return c.pres.Mask(a, 0) } // the bus's table

	want := Entry{Addr: 4, State: coherence.FirstWrite, Aux: 1, Dirty: true, Data: 9}
	c.Restore(want)
	if got := c.Entries(); len(got) != 1 || got[0] != want {
		t.Fatalf("Entries() = %+v, want [%+v]", got, want)
	}
	if holders(4) != 1 || news != 1 {
		t.Fatalf("after Restore: holders of 4 = %b, news = %b", holders(4), news)
	}
	// In place: same address, new contents.
	want = Entry{Addr: 4, State: coherence.Local, Data: 7}
	c.Restore(want)
	if got := c.Entries(); len(got) != 1 || got[0] != want || holders(4) != 1 {
		t.Fatalf("Entries() = %+v, holders %b", got, holders(4))
	}
	// The restored line is the real thing: the other cache's read is
	// interrupted by it and gets its word.
	if v := r.read(1, 4); v != 7 || c.Stats().FlushSupplied != 1 {
		t.Fatalf("read of a restored Local line = %d, %d flushes", v, c.Stats().FlushSupplied)
	}
	// A conflicting address takes the frame; the occupant is dropped, not
	// written back.
	c.Restore(Entry{Addr: 5, State: coherence.Local, Dirty: true, Data: 3})
	c.Restore(Entry{Addr: 6})
	if got := c.Entries(); len(got) != 1 || got[0].Addr != 6 || holders(5) != 0 || holders(6) != 1 {
		t.Fatalf("Entries() = %+v, holders of 5 = %b, of 6 = %b", got, holders(5), holders(6))
	}
	if r.mem.Peek(5) != 0 || c.Stats().Writebacks != 0 {
		t.Fatalf("Restore wrote back: mem[5] = %d", r.mem.Peek(5))
	}
}

// TestNewsFollowsThePlannedSet: a blocked cache's has-news bit rises only
// for changes plan can see — its pending op and the frames of that op's
// set. Snoops on another set and in-cache hits of an idle cache leave it
// low and the memoized request standing; an invalidated victim and a
// snarfed target raise it and change the plan.
func TestNewsFollowsThePlannedSet(t *testing.T) {
	const p, victim, q = bus.Addr(2), bus.Addr(6), bus.Addr(1) // 4 direct-mapped frames: p and victim share a set
	for _, proto := range []string{"rb", "rwb"} {
		t.Run(proto, func(t *testing.T) {
			r := newRig(t, proto, 2, 4)
			c := r.caches[0]
			var news uint64
			c.SetNews(&news, 1)
			c.Restore(Entry{Addr: victim, State: coherence.Local, Dirty: true, Data: 11})
			c.Restore(Entry{Addr: q, State: coherence.Readable, Data: 5})

			news = 0
			if done, _ := c.Access(coherence.EvRead, q, 0, coherence.ClassShared); !done {
				t.Fatal("read of a Readable line missed")
			}
			if news != 0 {
				t.Error("an idle cache's read hit is news")
			}
			if done, _ := c.Access(coherence.EvRead, p, 0, coherence.ClassShared); done {
				t.Fatal("read of an absent address hit")
			}
			want, ok := c.BusGrant(0, 1)
			if !ok || want.Op != bus.OpWrite || want.Addr != victim {
				t.Fatalf("plan = %+v (%v), want the write-back of %d", want, ok, victim)
			}
			news = 0
			for _, s := range []struct {
				name  string
				snoop func()
			}{
				{"SnoopRead", func() { c.SnoopRead(q, 1) }},
				{"ObserveReadData", func() { c.ObserveReadData(q, 5, 1) }},
				{"ObserveWrite", func() { c.ObserveWrite(bus.OpWrite, q, 7, 1) }},
			} {
				s.snoop()
				if got, ok := c.BusGrant(0, 1); news != 0 || !ok || got != want {
					t.Fatalf("%s on another set: news = %b, plan = %+v (%v), want %+v", s.name, news, got, ok, want)
				}
			}

			c.ObserveWrite(bus.OpInv, victim, 0, 1)
			if got, ok := c.BusGrant(0, 1); news != 1 || !ok || got.Op != bus.OpRead || got.Addr != p {
				t.Fatalf("victim invalidated: news = %b, plan = %+v (%v), want a read of %d", news, got, ok, p)
			}
		})
	}

	t.Run("rwb-snarf", func(t *testing.T) {
		r := newRig(t, "rwb", 2, 4)
		c := r.caches[0]
		var news uint64
		c.SetNews(&news, 1)
		c.Restore(Entry{Addr: p, State: coherence.Invalid})
		if done, _ := c.Access(coherence.EvRead, p, 0, coherence.ClassShared); done {
			t.Fatal("read of an Invalid copy hit")
		}
		if _, want := c.WantsBus(); !want {
			t.Fatal("pending read wants no bus")
		}
		news = 0
		c.ObserveWrite(bus.OpWrite, p, 42, 1)
		if news != 1 {
			t.Fatal("a snarf of the pending address is not news")
		}
		if _, want := c.WantsBus(); want {
			t.Fatal("snarfed read still wants the bus")
		}
		if v, ok := c.TakeResolved(); !ok || v != 42 {
			t.Fatalf("resolved = %d (%v), want 42", v, ok)
		}
	})
}

func TestMissRatio(t *testing.T) {
	r := newRig(t, "rb", 1, 16)
	r.read(0, 1) // miss
	r.read(0, 1) // hit
	r.read(0, 1) // hit
	r.read(0, 2) // miss
	st := r.caches[0].Stats()
	if got := st.MissRatio(); got != 0.5 {
		t.Fatalf("MissRatio = %g, want 0.5", got)
	}
	var empty Stats
	if empty.MissRatio() != 0 {
		t.Fatal("empty MissRatio != 0")
	}
}

func TestAccessWhileBusyPanics(t *testing.T) {
	r := newRig(t, "rb", 1, 16)
	r.caches[0].Access(coherence.EvRead, 1, 0, coherence.ClassShared) // pending
	defer func() {
		if recover() == nil {
			t.Fatal("second Access did not panic")
		}
	}()
	r.caches[0].Access(coherence.EvRead, 2, 0, coherence.ClassShared)
}

func TestWriteThroughWriteMissDoesNotAllocate(t *testing.T) {
	r := newRig(t, "writethrough", 1, 16)
	r.write(0, 5, 50)
	if r.state(0, 5) != coherence.NotPresent {
		t.Fatal("write miss allocated")
	}
	if r.mem.Peek(5) != 50 {
		t.Fatal("write lost")
	}
	// Read allocates; a write hit then updates both copy and memory.
	r.read(0, 5)
	r.write(0, 5, 51)
	if s, v, _ := r.caches[0].Lookup(5); s != coherence.Valid || v != 51 {
		t.Fatalf("line = (%v, %d)", s, v)
	}
	if r.mem.Peek(5) != 51 {
		t.Fatal("write hit did not write through")
	}
}

func TestIllinoisCleanExclusiveEndToEnd(t *testing.T) {
	// One cache reads a quiet line -> Exclusive; its write is then free.
	r := newRig(t, "illinois", 2, 16)
	r.mem.Poke(5, 9)
	if v := r.read(0, 5); v != 9 {
		t.Fatal("read wrong value")
	}
	if r.state(0, 5) != coherence.Reserved {
		t.Fatalf("quiet read installed %v, want Exclusive (Reserved)", r.state(0, 5))
	}
	before := r.bus.Stats().Transactions()
	r.write(0, 5, 10)
	if r.bus.Stats().Transactions() != before {
		t.Fatal("writing a clean-exclusive line used the bus")
	}
	if r.state(0, 5) != coherence.DirtyState {
		t.Fatalf("state after silent upgrade = %v", r.state(0, 5))
	}
	// The second cache's read asserts the shared line was quiet, gets the
	// dirty data via the owner's flush, and both end Shared.
	if v := r.read(1, 5); v != 10 {
		t.Fatalf("cross read = %d, want 10", v)
	}
	if r.state(0, 5) != coherence.Valid || r.state(1, 5) != coherence.Valid {
		t.Fatalf("post-share states = %v, %v", r.state(0, 5), r.state(1, 5))
	}
	// Now the line is shared: a fresh reader installs Shared, not
	// Exclusive.
	r.mem.Poke(6, 1)
	r.read(0, 6)
	if v := r.read(1, 6); v != 1 {
		t.Fatal("shared read wrong")
	}
	if r.state(1, 6) != coherence.Valid {
		t.Fatalf("shared-line read installed %v, want Shared (Valid)", r.state(1, 6))
	}
}

func TestIllinoisWriteMissOnQuietLineIsReadPlusSilentUpgrade(t *testing.T) {
	r := newRig(t, "illinois", 2, 16)
	r.write(0, 5, 77)
	// The fetch installed Exclusive, so the write part was free: exactly
	// one bus transaction (the read), zero bus writes.
	bs := r.bus.Stats()
	if bs.Reads() != 1 || bs.Writes() != 0 {
		t.Fatalf("bus stats = reads %d writes %d, want 1/0", bs.Reads(), bs.Writes())
	}
	if r.state(0, 5) != coherence.DirtyState {
		t.Fatalf("state = %v, want Modified", r.state(0, 5))
	}
}

func TestTwoPhasePrimitivesAtCacheLevel(t *testing.T) {
	r := newRig(t, "rb", 2, 16)
	c := r.caches[0]
	if c.Protocol().Name() != "rb" {
		t.Fatal("Protocol accessor broken")
	}

	// Locked read: non-cachable, takes the bus lock.
	c.AccessLockedRead(8)
	if v := r.drive(0); v != 0 {
		t.Fatalf("locked read = %d", v)
	}
	if h, a := r.bus.Locked(); h != 0 || a != 8 {
		t.Fatalf("lock = (%d,%d)", h, a)
	}
	if _, _, present := c.Lookup(8); present {
		t.Fatal("locked read installed a line")
	}

	// Cached unlock write: follows the protocol (RB -> Local) and
	// releases the lock.
	c.AccessUnlockWrite(8, 1, true)
	r.drive(0)
	if h, _ := r.bus.Locked(); h != -1 {
		t.Fatal("unlock write did not release")
	}
	if r.state(0, 8) != coherence.Local {
		t.Fatalf("state after cached unlock = %v", r.state(0, 8))
	}

	// TryLocalRMW fast path on the Local line.
	if done, old := c.TryLocalRMW(8, 2); !done || old != 1 {
		t.Fatalf("TryLocalRMW = (%v, %d), want (true, 1)", done, old)
	}
	// Not exclusive -> declined.
	if done, _ := r.caches[1].TryLocalRMW(8, 2); done {
		t.Fatal("TryLocalRMW succeeded without an exclusive copy")
	}

	// Bypass (failed-TS) unlock write: restores a value without touching
	// cache state.
	r.caches[1].AccessLockedRead(8)
	r.drive(1)
	r.caches[1].AccessUnlockWrite(8, 1, false)
	r.drive(1)
	if _, _, present := r.caches[1].Lookup(8); present {
		t.Fatal("bypass unlock installed a line")
	}
	if h, _ := r.bus.Locked(); h != -1 {
		t.Fatal("bypass unlock did not release")
	}
}

func TestBusyPanicsForTwoPhasePrimitives(t *testing.T) {
	r := newRig(t, "rb", 1, 16)
	r.caches[0].AccessLockedRead(8) // pending
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s while busy did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AccessLockedRead", func() { r.caches[0].AccessLockedRead(9) })
	mustPanic("AccessUnlockWrite", func() { r.caches[0].AccessUnlockWrite(9, 1, true) })
	mustPanic("AccessRMW", func() { r.caches[0].AccessRMW(9, 1) })
}

func TestRMWWithVictimWriteback(t *testing.T) {
	// A Test-and-Set whose target's frame holds a dirty Local victim must
	// write the victim back before the RMW installs the new line.
	r := newRig(t, "rb", 1, 4)
	r.write(0, 2, 11)    // Local
	r.write(0, 2, 12)    // dirty
	old := r.ts(0, 6, 1) // same frame (2 % 4 == 6 % 4)
	if old != 0 {
		t.Fatalf("TS old = %d", old)
	}
	if r.mem.Peek(2) != 12 {
		t.Fatal("victim not written back before RMW install")
	}
	if r.state(0, 6) != coherence.Local {
		t.Fatalf("RMW target state = %v", r.state(0, 6))
	}
}

func TestWriteThroughRMWKeepsNoLine(t *testing.T) {
	// WriteThrough's RMWSuccess next state is Invalid when the issuer had
	// no line: the rmwCompleted drop-copy path.
	r := newRig(t, "writethrough", 1, 16)
	r.read(0, 6) // install Valid
	if old := r.ts(0, 6, 1); old != 0 {
		t.Fatal("TS failed")
	}
	// Valid issuer keeps an updated copy under writethrough.
	if s, v, _ := r.caches[0].Lookup(6); s != coherence.Valid || v != 1 {
		t.Fatalf("line = (%v, %d)", s, v)
	}
	// And from NotPresent the line stays out.
	if old := r.ts(0, 7, 1); old != 0 {
		t.Fatal("TS failed")
	}
	if _, _, present := r.caches[0].Lookup(7); present {
		t.Fatal("writethrough RMW installed a line")
	}
}

// TestCreditReadHitsEqualsAccesses: a parked read credited n times leaves
// the cache exactly as n more read hits would have — counters, LRU clock
// and stamps, OnResolve calls — and its wake bit rises only when a snoop
// changes the line.
func TestCreditReadHitsEqualsAccesses(t *testing.T) {
	for _, proto := range []string{"rb", "rwb", "goodman", "illinois", "writethrough"} {
		t.Run(proto, func(t *testing.T) {
			build := func() (*rig, *int) {
				r := newRig(t, proto, 1, 4)
				c := MustNew(0, r.caches[0].Protocol(), Config{Lines: 4, Ways: 2})
				r.bus = bus.New(r.mem)
				r.bus.Attach(0, c)
				r.bus.AttachRequester(0, c)
				r.caches[0] = c
				fired := new(int)
				c.OnResolve = func(ResolveInfo) { *fired++ }
				r.mem.Poke(0, 7)
				r.read(0, 0)
				r.read(0, 2) // fills set 0
				r.read(0, 0) // a hit
				return r, fired
			}
			hits, hitsFired := build()
			for range 5 {
				if v := hits.read(0, 0); v != 7 {
					t.Fatalf("read %d", v)
				}
			}
			parked, parkedFired := build()
			c := parked.caches[0]
			if c.Park(0, coherence.ClassShared) {
				t.Fatal("parked without a wake bit")
			}
			var wake uint64
			c.SetWake(&wake, 1)
			if !c.Park(0, coherence.ClassShared) {
				t.Fatal("a read hit that changes nothing did not park")
			}
			c.CreditReadHits(5)
			h := hits.caches[0]
			if c.Stats() != h.Stats() || c.useClock != h.useClock || *parkedFired != *hitsFired {
				t.Fatalf("credited: %+v clock %d, %d resolves; hits: %+v clock %d, %d resolves",
					c.Stats(), c.useClock, *parkedFired, h.Stats(), h.useClock, *hitsFired)
			}
			for i := range c.stamps {
				if c.stamps[i] != h.stamps[i] {
					t.Fatalf("stamps %v, want %v", c.stamps, h.stamps)
				}
			}
			if wake != 0 {
				t.Fatal("woken without a change")
			}
			c.ObserveWrite(bus.OpWrite, 0, 8, 1)
			if wake != 1 {
				t.Fatal("a snooped write to the parked line did not wake it")
			}
		})
	}
}
