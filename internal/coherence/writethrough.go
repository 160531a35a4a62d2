package coherence

// writeThroughTable is the classic write-through-with-invalidate baseline:
// every write goes to the bus and memory, every other copy is invalidated,
// and a cache never gains information from transactions it merely observes
// (beyond the invalidation itself). It bounds the paper's schemes from
// below: correct, simple, and maximally bus-hungry for write-heavy and
// lock-heavy workloads.
//
// States: Invalid and Valid. Writes do not allocate (a write miss updates
// memory without installing the line), the common choice for write-through
// caches of the period. Memory is always current, so nothing ever flushes
// or is written back; Valid lines may be shared, so Test-and-Set always
// takes the bus.
//
// The parameters are the differences between its two variants: the class
// filter, a Valid line's state after it observes a bus write, and after
// its own successful Test-and-Set (under writethrough the issuer keeps its
// updated copy). cmstar emulates the cache configuration of the paper's
// motivating measurements (Table 1-1, from Raskin's Cm* experiments):
// "only code and local data were considered cachable and a write-through
// policy was adopted for local data. Thus writes to local data were
// counted as cache misses since they caused communication external to the
// processor/cache. All references to shared (non-code) data also caused a
// cache miss." Unlike the paper's schemes it is not transparent: it needs
// the reference's class (which the Cm* experiments knew statically) to
// decide cachability, and shared and unclassified references bypass the
// cache entirely; the cache layer only consults the arcs for cachable
// references. There is then no coherence problem to solve — caches hold
// only code and private data, so an observed bus write never concerns a
// cached line and nothing reacts. And Test-and-Set targets shared data,
// which stays out of the cache.
func writeThroughTable(scheme string, uncached [numClasses]bool, observedWrite, testSet State) *Table {
	return Build(Table{
		Scheme:   scheme,
		Uncached: uncached,
		Arcs: []Arc{
			{From: Invalid, On: CR, Next: Valid, Action: ActRead, Dirty: DirtyClear},
			// Write miss: write through without allocating. The set of a
			// Test-and-Set is an ordinary write-through too.
			{From: Invalid, On: CW, Next: Invalid, Action: ActWrite, NoAllocate: true},
			{From: Invalid, On: BR | BW | BI | BRdata, Next: Invalid},

			{From: Valid, On: CR | BR | BI | BRdata, Next: Valid},
			// Write hit: update the copy and write through.
			{From: Valid, On: CW, Next: Valid, Action: ActWrite, Dirty: DirtyClear},
			{From: Valid, On: BW, Next: observedWrite},
			{From: Valid, On: TS, Next: testSet, Action: ActWrite},
		},
	})
}
