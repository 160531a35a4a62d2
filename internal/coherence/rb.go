package coherence

// rbTable is the paper's first scheme (Section 3, Figure 3-1): three states
// per address line — Invalid, Readable, Local — with the data answering
// every bus read broadcast to all caches.
//
// The configurations reachable for an address (the Section 4 lemma) are:
//
//   - shared: every cache containing the address is Readable, and memory is
//     current;
//   - local: exactly one cache is Local (holding the latest value) and all
//     others containing the address are Invalid.
//
// A write moves the writer to Local (write-through plus invalidation of all
// other copies); a read of a Local line by anyone else moves the address
// back to the shared configuration via the interrupt-flush-retry sequence.
// A successful Test-and-Set is a write: the issuer becomes Local and the
// write part is an ordinary bus write that invalidates every other copy
// (Figure 6-1: "P2 Locks S" yields I L I).
//
// evict is the one difference between its two variants. "Only those
// overwritten items that are tagged local need to be written back to the
// memory": the paper has no dirty tag, so under rb even a clean Local line
// (whose write-through already updated memory) is written back — the cost
// the RWB scheme's F state avoids (Section 5). rb-dirty is the RB scheme
// plus one dirty bit per line, used only at eviction: a clean Local line
// is dropped silently. This is the obvious 1984-hardware-feasible fix for
// RB's double-write on array initialization, quantified by the
// ablation-arrayinit experiment.
func rbTable(scheme string, evict When) *Table {
	return Build(Table{
		Scheme: scheme,
		Arcs: []Arc{
			// "the cache generates a bus read and upon successful
			// completion ... the cache state is changed to Read."
			{From: Invalid, On: CR, Next: Readable, Action: ActRead, Dirty: DirtyClear},
			// "a bus write is generated ..., the cache value is updated to
			// this new value, and the cache state is set to Local." The line
			// is clean: the write went through to memory.
			{From: Invalid, On: CW, Next: Local, Action: ActWrite, Dirty: DirtyClear},
			// "In response to a bus write, a cache in the Invalid state
			// will do nothing." RB caches do not read the data part of
			// writes; BI never occurs in a pure RB machine.
			{From: Invalid, On: BR | BW | BI, Next: Invalid},
			// "the value returned in response to the read is stored into
			// the cache and the cache state is changed to Read. (Note that
			// ... the value read will, in effect, be broadcast to all the
			// processors for future use.)"
			{From: Invalid, On: BRdata, Next: Readable, TakeData: true, Dirty: DirtyClear},

			// "the cached value is returned to the processor."
			{From: Readable, On: CR, Next: Readable},
			// "a bus write is generated (this informs the other caches that
			// the variable is now considered local), ... the cache is tagged
			// as Local."
			{From: Readable, On: CW, Next: Local, Action: ActWrite, Dirty: DirtyClear},
			// "A bus read ... has no effect on a cache in state R." Read
			// data finds it already holding the (identical) value.
			{From: Readable, On: BR | BI | BRdata, Next: Readable},
			// "a bus write causes the cache to change its state to
			// Invalid."
			{From: Readable, On: BW, Next: Invalid},

			{From: Local, On: CR, Next: Local},
			// "the value in the cache is updated to this new value (no bus
			// activity is generated)" — the only transition that makes a line
			// dirty.
			{From: Local, On: CW, Next: Local, Dirty: DirtySet},
			// "The bus read is interrupted and replaced by a bus write of
			// the cached value. The cache state is changed to Read."
			{From: Local, On: BR, Next: Readable, Inhibit: true, Dirty: DirtyClear},
			// "Bus writes cause a cache in the local state to change its
			// state to Invalid."
			{From: Local, On: BW | BI, Next: Invalid, Dirty: DirtyClear},
			{From: Local, On: BRdata, Next: Local},
		},
		Owners: map[State]Owner{Local: {
			// A locked read is non-cachable, so only a dirty Local owner
			// (whose value memory does not have) must flush; it keeps its
			// Local state, exactly as the spinning rows of Figure 6-1 keep
			// P2 in L.
			Flush: IfDirty, FlushTo: Local,
			Evict: evict,
		}},
	})
}

var rb = rbTable("rb", Always)

// RB is the rb table under the one name benchmark/core.go, frozen outside
// benchmark-archetype PRs, spells as a literal. Everything else says
// New(KindRB); ROADMAP direction 1 respells the literal and deletes this.
type RB struct{}

func (RB) Name() string                                       { return rb.Name() }
func (RB) States() []State                                    { return rb.States() }
func (RB) OnProc(s State, aux uint8, e ProcEvent) ProcOutcome { return rb.OnProc(s, aux, e) }
func (RB) OnSnoop(s State, aux uint8, dirty bool, ev SnoopEvent) SnoopOutcome {
	return rb.OnSnoop(s, aux, dirty, ev)
}
func (RB) RMWFlush(s State, dirty bool) (bool, State, DirtyEffect) { return rb.RMWFlush(s, dirty) }
func (RB) RMWSuccess(s State, aux uint8) (State, uint8, Action)    { return rb.RMWSuccess(s, aux) }
func (RB) LocalRMW(s State) bool                                   { return rb.LocalRMW(s) }
func (RB) Cachable(c Class, e ProcEvent) bool                      { return rb.Cachable(c, e) }
func (RB) WritebackOnEvict(s State, dirty bool) bool               { return rb.WritebackOnEvict(s, dirty) }
func (RB) ReadMissTarget(sharedLine bool) State                    { return rb.ReadMissTarget(sharedLine) }
