package coherence

// noCache sends every reference to the bus: the configuration a
// shared-memory machine has before any of the paper's machinery is added,
// and the denominator for all bus-traffic comparisons (Section 7's
// bandwidth arithmetic with a miss ratio of 1). Nothing is cachable, so
// every access is an uncached bus transaction and nothing reacts.
var noCache = Build(Table{
	Scheme:   "nocache",
	Uncached: [numClasses]bool{true, true, true, true},
	Arcs: []Arc{
		{From: Invalid, On: CR, Next: Invalid, Action: ActRead, NoAllocate: true},
		{From: Invalid, On: CW, Next: Invalid, Action: ActWrite, NoAllocate: true},
		{From: Invalid, On: BR | BW | BI | BRdata, Next: Invalid},
	},
})
