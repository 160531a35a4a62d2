// Package mrc is the online miss-ratio-curve profiler: a MIMIR-style
// logarithmically bucketed reuse-distance estimator that rides the live
// cache reference path (cache.Probe) and, from a single simulation run,
// yields the hit-rate-vs-cache-size curve of every power-of-two
// fully-associative LRU cache — per PE and machine-wide — without a
// cache-size sweep.
//
// # Exactness
//
// MIMIR buckets trade accuracy for speed; this implementation keeps the
// speed and discards the error at the sizes anyone asks about. Bucket
// boundaries sit exactly at powers of two: bucket 0 holds reuse distance
// 0 and bucket b>=1 holds distances [2^(b-1), 2^b). A fully-associative
// LRU of S=2^j lines misses a reference iff its reuse distance is >= S
// (Mattson), and every distance >= 2^j lands in a bucket >= j+1 whole —
// so at power-of-two sizes the bucketed histogram reproduces Mattson's
// stack algorithm (the naive reference in mattson_test.go) exactly:
//
//	Misses(2^j) = colds + sum_{b >= j+1} counts[b]
//
// Between powers of two the curve is bounded by its bracketing exact
// points (miss count is monotone non-increasing in size), which is the
// bucket-error bound DESIGN.md states.
//
// # Mechanics
//
// The profiler keeps the exact LRU stack as an intrusive doubly-linked
// list over an index-addressed node arena, with a marker pointing at the
// last node of each bucket (stack position 2^k-1). A hit at bucket b
// moves the node to the front; instead of renumbering the stack, each
// marker for buckets 0..b-1 slides one node toward the head — the single
// node per bucket that crossed a power-of-two boundary gets its bucket
// field bumped. That is O(log footprint) pointer moves per reference,
// no allocation, and no per-node position bookkeeping.
//
// Address-to-node lookup uses the same dense paged directory idiom as
// internal/memory: O(1), allocation-free once the footprint's pages
// exist, with a sparse map fallback above the dense window. All growth
// (arena, pages, map) happens on cold references only, so a warmed
// steady state stays allocation-free.
//
// # Feeding
//
// A standalone profiler (New) is fed by Touch. Attach gives a machine one
// feed: its cache probes only buffer (PE, address) pairs, and each full
// chunk is drained into the per-PE and machine-wide profilers on a second
// goroutine, one chunk at a time in stream order. Every reader first
// waits for the drain in flight and applies the partial buffer, so a read
// mid-run is exact. The touching work is unchanged; it moves to another core.
package mrc

import (
	"fmt"
	"math/bits"

	"repro/internal/bus"
)

const (
	// maxBuckets bounds the bucket index: distances up to 2^32 distinct
	// addresses, far beyond any simulable footprint.
	maxBuckets = 34

	// pageBits sizes the dense directory pages (4096 entries, 16 KiB).
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// denseLimit caps the dense directory's address window; addresses at
	// or above it fall back to the sparse map. 2^24 matches
	// internal/memory's window and covers every generated layout.
	denseLimit = 1 << 24

	// none is the nil node index.
	none = int32(-1)
)

// node is one LRU-stack entry. prev is toward the head (more recently
// used), next toward the tail.
type node struct {
	addr   bus.Addr
	prev   int32
	next   int32
	bucket uint8
}

// Profiler is one reference stream's online reuse-distance histogram.
// It is not safe for concurrent use. An attached profiler is fed only by
// its machine, and its readers settle the feed first, so they run on the
// goroutine that runs the machine or one that happens after it.
type Profiler struct {
	feed  *feed // nil unless attached
	nodes []node

	// pages is the dense addr -> node-index directory (value+1; 0 means
	// absent). sparse backs addresses >= denseLimit.
	pages  [][]int32
	sparse map[bus.Addr]int32

	head, tail int32
	length     int

	// markers[k] is the node at stack position 2^k-1 (the last node of
	// bucket k), or none while the stack is shorter than 2^k.
	markers [maxBuckets]int32

	counts [maxBuckets]uint64
	colds  uint64
	refs   uint64
}

// New creates an empty profiler.
func New() *Profiler {
	p := &Profiler{head: none, tail: none, sparse: make(map[bus.Addr]int32)}
	for i := range p.markers {
		p.markers[i] = none
	}
	return p
}

// find returns the node index holding addr, or none.
func (p *Profiler) find(a bus.Addr) int32 {
	if a < denseLimit {
		pg := int(a >> pageBits)
		if pg >= len(p.pages) || p.pages[pg] == nil {
			return none
		}
		return p.pages[pg][int(a)&pageMask] - 1
	}
	if ni, ok := p.sparse[a]; ok {
		return ni
	}
	return none
}

// Touch records one reference. The steady state (every address already
// seen) is allocation-free; first-ever references go through the cold
// path, which may grow the arena or the directory.
func (p *Profiler) Touch(a bus.Addr) {
	p.refs++
	ni := p.find(a)
	if ni < 0 {
		p.insertCold(a)
		return
	}
	nodes := p.nodes
	n := &nodes[ni]
	b := int(n.bucket)
	p.counts[b]++
	if b == 0 {
		// Distance 0: the node is already the head; nothing moves.
		return
	}
	// The node leaves position d in [2^(b-1), 2^b) for position 0; every
	// node above it slides down one. Only the last node of each bucket
	// 0..b-1 crosses a power-of-two boundary: it is the marker's node,
	// its bucket bumps, and the marker retreats to its predecessor.
	// (The stack holds > d nodes, so markers 0..b-1 all exist.)
	for k := b - 1; k >= 1; k-- {
		mk := p.markers[k]
		nodes[mk].bucket = uint8(k + 1)
		p.markers[k] = nodes[mk].prev
	}
	oldHead := p.head
	nodes[oldHead].bucket = 1
	// Unlink n (it has a predecessor: b >= 1 means it is not the head).
	prev, next := n.prev, n.next
	if p.markers[b] == ni {
		// n was the last node of its own bucket (position 2^b-1 exactly);
		// its predecessor slides into that slot. The predecessor's bucket
		// is already right: either it shares bucket b, or (b == 1) it is
		// the old head whose bucket the line above just set.
		p.markers[b] = prev
	}
	nodes[prev].next = next
	if next >= 0 {
		nodes[next].prev = prev
	} else {
		p.tail = prev
	}
	// Relink at the head.
	n.prev = none
	n.next = oldHead
	n.bucket = 0
	nodes[oldHead].prev = ni
	p.head = ni
	p.markers[0] = ni
}

// insertCold handles a first-ever reference: allocate a node, push it on
// the head, and slide every marker whose position the push shifted. Not
// on the hot path by definition — the reference is a compulsory miss —
// so this is where all growth allocation lives.
func (p *Profiler) insertCold(a bus.Addr) {
	p.colds++
	ni := int32(len(p.nodes))
	p.nodes = append(p.nodes, node{addr: a, prev: none, next: p.head})
	p.setIndex(a, ni)
	L := p.length
	for k := 0; k < maxBuckets-1 && (1<<k)-1 <= L; k++ {
		if L >= 1<<k {
			// Marker k exists: its node crosses into bucket k+1.
			mk := p.markers[k]
			p.nodes[mk].bucket = uint8(k + 1)
			if k == 0 {
				p.markers[0] = ni
			} else {
				p.markers[k] = p.nodes[mk].prev
			}
		} else {
			// L == 2^k-1: the push grows the stack to 2^k and marker k is
			// born at the old tail (now position 2^k-1, already bucket k).
			if k == 0 {
				p.markers[0] = ni
			} else {
				p.markers[k] = p.tail
			}
		}
	}
	if p.head >= 0 {
		p.nodes[p.head].prev = ni
	}
	p.head = ni
	if p.tail < 0 {
		p.tail = ni
	}
	p.length = L + 1
}

// setIndex records addr -> node index in the directory.
func (p *Profiler) setIndex(a bus.Addr, ni int32) {
	if a < denseLimit {
		pg := int(a >> pageBits)
		for pg >= len(p.pages) {
			p.pages = append(p.pages, nil)
		}
		if p.pages[pg] == nil {
			p.pages[pg] = make([]int32, pageSize)
		}
		p.pages[pg][int(a)&pageMask] = ni + 1
		return
	}
	p.sparse[a] = ni
}

// Refs returns the number of references recorded.
func (p *Profiler) Refs() uint64 { p.settle(); return p.refs }

// Colds returns the number of first-ever references (compulsory misses).
func (p *Profiler) Colds() uint64 { p.settle(); return p.colds }

// Footprint returns the number of distinct addresses seen.
func (p *Profiler) Footprint() int { p.settle(); return p.length }

// Misses returns the exact miss count of a fully-associative LRU cache
// with the given number of lines. lines must be zero (no cache: every
// reference misses) or a power of two — the sizes the bucket boundaries
// make exact.
func (p *Profiler) Misses(lines int) uint64 {
	p.settle()
	if lines <= 0 {
		return p.refs
	}
	if bits.OnesCount(uint(lines)) != 1 {
		panic(fmt.Sprintf("mrc: Misses(%d): size must be a power of two", lines))
	}
	j := bits.TrailingZeros(uint(lines))
	misses := p.colds
	for b := j + 1; b < maxBuckets; b++ {
		misses += p.counts[b]
	}
	return misses
}

// MissRatio returns Misses(lines)/Refs.
func (p *Profiler) MissRatio(lines int) float64 {
	p.settle()
	if p.refs == 0 {
		return 0
	}
	return float64(p.Misses(lines)) / float64(p.refs)
}

// CurvePoint is one (size, miss ratio) sample.
type CurvePoint struct {
	Lines     int     `json:"lines"`
	Misses    uint64  `json:"misses"`
	MissRatio float64 `json:"miss_ratio"`
}

// Curve evaluates the miss curve at the given sizes (each a power of
// two), ascending in the result.
func (p *Profiler) Curve(sizes []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, CurvePoint{Lines: s, Misses: p.Misses(s), MissRatio: p.MissRatio(s)})
	}
	// Sizes are caller-ordered; emit ascending without assuming it.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Lines > out[j].Lines; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Buckets returns the raw bucketed histogram in ascending bucket order:
// point i carries the bucket's smallest distance in Lines and its count
// in Misses. Emission order is fixed by the array — never a map walk —
// so serialized curves are deterministic.
func (p *Profiler) Buckets() []CurvePoint {
	p.settle()
	out := make([]CurvePoint, 0, maxBuckets)
	for b := 0; b < maxBuckets; b++ {
		if p.counts[b] == 0 {
			continue
		}
		lo := 0
		if b >= 1 {
			lo = 1 << (b - 1)
		}
		out = append(out, CurvePoint{Lines: lo, Misses: p.counts[b]})
	}
	return out
}

// DefaultSizes is the conventional evaluation grid: every power of two
// from a single line to 8192 lines, bracketing all simulated cache
// geometries.
func DefaultSizes() []int { return PowersOfTwo(0, 13) }

// PowersOfTwo returns 2^lo .. 2^hi inclusive, the conventional sweep.
func PowersOfTwo(lo, hi int) []int {
	if lo < 0 || hi < lo || hi > 30 {
		panic(fmt.Sprintf("mrc: bad power range [%d, %d]", lo, hi))
	}
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, 1<<uint(i))
	}
	return out
}
