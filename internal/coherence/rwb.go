package coherence

import "fmt"

// NewRWB returns the paper's second scheme (Section 5, Figure 5-1): caches
// also read the data part of bus writes ("write broadcast"), a new
// FirstWrite (F) state marks a line whose most recent writer this cache is,
// and a line only turns Local after k uninterrupted writes by the same PE,
// signalled with a bus invalidate (BI).
//
// The configurations for an address are the RB ones plus an intermediate
// one: exactly one cache in F and every other interested cache in R, all
// holding the latest (broadcast) value, with memory current.
//
// The paper uses two writes ("two writes to a variable with out any
// intervening references to the variable by any other PE is enough to
// indicate local usage") and notes that "straightforward modifications are
// possible if one wishes at least k uninterrupted writes"; the table's K is
// that k, the one number NewRWB changes, and the one counted arc,
// F --CW-->, is where it acts. k must be at least 2: with k=1 the first
// write would go straight to Local, which is exactly the RB scheme. The
// per-line aux value is the uninterrupted write streak while in F.
//
// A successful Test-and-Set is a write, so it follows the write-streak
// rules — from R or I the issuer enters F and the write part is broadcast
// as a bus write that the other caches snarf (Figure 6-3: "P2 Locks S"
// yields R F R, all holding 1); from F with a full streak the issuer enters
// L and the write part is an invalidate. An issuer already Local stays so;
// the transaction was on the bus and no other cache holds a copy, so
// broadcasting the write is harmless and keeps memory current.
func NewRWB(k uint8) *Table {
	if k < 2 {
		panic(fmt.Sprintf("rwb: threshold %d, need >= 2 (use RB for write-invalidate-on-first-write)", k))
	}
	return Build(Table{
		Scheme: "rwb",
		K:      k,
		Arcs: []Arc{
			{From: Invalid, On: CR, Next: Readable, Action: ActRead, Dirty: DirtyClear},
			// "a bus write caused by a cache miss will be treated as above
			// causing all other caches to assume state R and this cache state
			// F." First write of a potential streak.
			{From: Invalid, On: CW, Next: FirstWrite, Action: ActWrite, Dirty: DirtyClear, Streak: StreakStart},
			{From: Invalid, On: BR | BI, Next: Invalid},
			// "The data written is read by all caches and they in turn
			// enter state R."
			{From: Invalid, On: BW | BRdata, Next: Readable, TakeData: true, Dirty: DirtyClear},

			{From: Readable, On: CR, Next: Readable},
			// "The first write to a variable ... in shared configuration
			// causes all caches to remain in state R except for the i'th cache
			// that goes into state F."
			{From: Readable, On: CW, Next: FirstWrite, Action: ActWrite, Dirty: DirtyClear, Streak: StreakStart},
			{From: Readable, On: BR | BRdata, Next: Readable},
			// Adopt the broadcast value, stay Readable: this is the
			// "cyclical pattern: written by some one PE and then read by
			// others" optimization — subsequent reads cause no bus
			// activity.
			{From: Readable, On: BW, Next: Readable, TakeData: true, Dirty: DirtyClear},
			{From: Readable, On: BI, Next: Invalid},

			// Own reads do not interrupt the streak.
			{From: FirstWrite, On: CR | BRdata, Next: FirstWrite, Streak: StreakKeep},
			// k > 2: keep writing through until the streak reaches k.
			{From: FirstWrite, On: CW, Next: FirstWrite, Action: ActWrite, Dirty: DirtyClear, Streak: StreakCount},
			// "A subsequent write by PE_i then confirms the fact that the
			// variable is to be assumed local. Cache i enters state L and
			// broadcasts an invalidate signal." BI carries no data, so the
			// line is dirty from here on.
			{From: FirstWrite, On: CW, Next: Local, Action: ActInv, Dirty: DirtySet, Streak: StreakFull},
			// "While still in this intermediate configuration ..., all
			// reads have no configuration effect and data can be fetched
			// from any cache" (memory is current, so it responds). The
			// read is an intervening reference by another PE, so the
			// write streak restarts.
			{From: FirstWrite, On: BR, Next: FirstWrite},
			// "A write by some other PE_j will cause cache j to change to
			// state F and cause a bus write to occur. The data written is
			// read by all caches and they in turn enter state R."
			{From: FirstWrite, On: BW, Next: Readable, TakeData: true, Dirty: DirtyClear},
			{From: FirstWrite, On: BI, Next: Invalid, Dirty: DirtyClear},

			{From: Local, On: CR | BRdata, Next: Local},
			{From: Local, On: CW, Next: Local, Dirty: DirtySet},
			// Identical to RB: interrupt, flush, become Readable.
			{From: Local, On: BR, Next: Readable, Inhibit: true, Dirty: DirtyClear},
			// Unlike RB the broadcast data is usable, so the owner demotes
			// to Readable with the new value instead of Invalid.
			{From: Local, On: BW, Next: Readable, TakeData: true, Dirty: DirtyClear},
			{From: Local, On: BI, Next: Invalid, Dirty: DirtyClear},
		},
		Owners: map[State]Owner{Local: {
			// As in RB, only a dirty Local owner flushes for a locked read
			// (F lines are always clean — every F write went through to
			// memory).
			Flush: IfDirty, FlushTo: Local,
			// Local is the only state whose value may be absent from
			// memory. This is the Section 5 array-initialization claim:
			// under RB an initializing write leaves the line Local
			// (write-back on eviction, two bus writes per element), under
			// RWB it leaves the line FirstWrite (clean, one bus write per
			// element).
			Evict: Always,
		}},
	})
}
