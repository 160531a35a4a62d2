package coherence

// goodmanTable is the write-once scheme of [GOO83] ("Using Cache Memory to
// Reduce Processor-Memory Traffic"), the design the paper's schemes
// extend. The paper classifies it as "event broadcasting": caches note the
// occurrence of bus reads and writes but never the data, so — unlike RB —
// an Invalid copy cannot be refreshed by someone else's bus read (Invalid
// ignores BRdata), and — unlike RWB — a bus write always invalidates
// rather than updates every holder of a copy.
//
// States: Invalid, Valid (clean, possibly shared), Reserved (written
// exactly once since fetched; memory current; no other copies), DirtyState
// (written more than once; memory stale; sole copy).
//
// quietReadMiss is the one difference between its two variants. illinois
// is the Illinois/MESI-style protocol of Papamarcos & Patel, published at
// the same ISCA as this paper (1984) — the natural contemporaneous
// comparison point. It refines write-once with a clean-exclusive state: a
// read miss installs Exclusive when the bus's shared line is quiet (no
// other cache held a copy), so a subsequent write needs no bus transaction
// at all; the Invalid --CR--> arc is its Shared target. Its states map
// onto Valid = Shared, Reserved = Exclusive (clean), DirtyState = Modified,
// and like Goodman — unlike the paper's schemes — it is event-broadcast
// only: observed transactions never deliver usable data.
func goodmanTable(scheme string, quietReadMiss State) *Table {
	return Build(Table{
		Scheme:        scheme,
		QuietReadMiss: quietReadMiss,
		Arcs: []Arc{
			{From: Invalid, On: CR, Next: Valid, Action: ActRead, Dirty: DirtyClear},
			// Write miss: fetch the line, then write through once (the
			// "write-once" that gives the scheme its name).
			{From: Invalid, On: CW, Next: Reserved, Action: ActReadThenWrite, Dirty: DirtyClear},
			{From: Invalid, On: BR | BW | BI | BRdata, Next: Invalid},

			{From: Valid, On: CR | BR | BI | BRdata, Next: Valid},
			// First write: write through, invalidating all other copies, and
			// reserve the line.
			{From: Valid, On: CW, Next: Reserved, Action: ActWrite, Dirty: DirtyClear},
			{From: Valid, On: BW, Next: Invalid},

			{From: Reserved, On: CR | BI | BRdata, Next: Reserved},
			// Second write: purely local; memory is now stale. This is the
			// Illinois payoff: writing a clean-exclusive line is free.
			{From: Reserved, On: CW, Next: DirtyState, Dirty: DirtySet},
			// Another cache fetches the line; memory is current, so no
			// inhibit is needed, but exclusivity is lost.
			{From: Reserved, On: BR, Next: Valid},
			{From: Reserved, On: BW, Next: Invalid},

			{From: DirtyState, On: CR | BI | BRdata, Next: DirtyState},
			{From: DirtyState, On: CW, Next: DirtyState, Dirty: DirtySet},
			// Memory is stale: interrupt the read, supply the value (the
			// bus writes it through), and demote to Valid.
			{From: DirtyState, On: BR, Next: Valid, Inhibit: true, Dirty: DirtyClear},
			{From: DirtyState, On: BW, Next: Invalid, Dirty: DirtyClear},

			// The successful set of a Test-and-Set is a write-through, so
			// the issuer holds a written-once line. Reserved and Dirty lines
			// are exclusive (no other cache holds a copy): theirs completes
			// in the cache.
			{From: Invalid, On: TS, Next: Reserved, Action: ActWrite},
			{From: Valid, On: TS, Next: Reserved, Action: ActWrite},
			{From: Reserved, On: TS, Next: Reserved},
			{From: DirtyState, On: TS, Next: Reserved},
		},
		Owners: map[State]Owner{DirtyState: {
			// DirtyState is by definition dirty; flushing for a locked read
			// brings memory current, leaving the line effectively Reserved
			// (sole copy, memory current).
			Flush: Always, FlushTo: Reserved,
			// Only DirtyState lines have values absent from memory.
			Evict: Always,
		}},
	})
}
