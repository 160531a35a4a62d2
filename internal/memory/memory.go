// Package memory models the shared main memory of the paper's machine: a
// word-addressed store reached only over the shared bus. The paper treats
// memory as "yet another cache (although somewhat special)" in the
// Section 4 product machine — it is the default responder for bus reads
// and the target of every write-through.
//
// The store is dense and page-granular: addresses below the dense limit
// live in lazily allocated fixed-size pages (a slice index, a mask, no
// hashing), so the simulator's steady-state read/write path performs no
// map operations and no allocations once a page exists. Addresses at or
// above the limit — huge or deliberately sparse address spaces, e.g.
// replayed traces with 32-bit addresses — fall back to a sparse map with
// identical semantics. Each page tracks which words were ever stored, so
// Footprint and Snapshot keep the exact "words ever written" meaning the
// map-backed store had.
//
// The package also supports deliberate corruption of stored words, used by
// the Section 8 reliability experiment ("the exploitation of replicated
// values in the various caches to improve the reliability of the memory").
package memory

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/bus"
)

const (
	// pageBits sizes a page at 256 words (1 KiB of data): every job builds
	// its own machines, and a short run touches only a few hundred words
	// in each of a few regions, so a larger page is mostly zeroes it paid
	// to allocate.
	pageBits  = 8
	pageWords = 1 << pageBits
	pageMask  = pageWords - 1
	// denseLimit bounds the dense page directory to 65 536 page pointers
	// (addresses below 16M words). Higher addresses take the sparse path.
	denseLimit = bus.Addr(1) << 24
)

// page is one dense storage unit: the words plus a bitmap of which were
// ever stored (WriteWord, Poke or Corrupt), preserving the "words ever
// written" accounting of Footprint and Snapshot.
// All page state is //phase:any: the store is reached both from bus
// transactions (WriteWord) and from oracle bookkeeping (Poke), which the
// OnResolve hook fires from every phase.
type page struct {
	//phase:any
	words [pageWords]bus.Word
	//phase:any
	written [pageWords / 64]uint64
	//phase:any
	count int // set bits in written
}

// mark records that offset o has been stored to.
func (p *page) mark(o uint32) {
	w, bit := o>>6, uint64(1)<<(o&63)
	if p.written[w]&bit == 0 {
		p.written[w] |= bit
		p.count++
	}
}

// Stats counts memory port activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	Corrupt    uint64 // words deliberately corrupted via Corrupt
	LostWrites uint64 // bus writes swallowed by the write interceptor
}

// Memory is a dense word-addressed store (with a sparse fallback for
// addresses beyond the dense limit). The zero value is not usable; call
// New. Reads of never-written words return zero, matching a machine
// whose memory is cleared at power-on (and letting the paper's lock
// convention — 0 means free — hold without initialization).
type Memory struct {
	//phase:any
	pages []*page // directory, indexed by addr >> pageBits
	//phase:any
	sparse map[bus.Addr]bus.Word // addresses >= denseLimit; nil until needed
	// stats counts bus-port traffic only, so only bus-phase entry points
	// (ReadWord, WriteWord) touch it; Poke and Peek bypass the counters.
	//phase:bus
	stats Stats

	// onWrite, when non-nil, is consulted on every bus-visible WriteWord;
	// returning true swallows the write (a "lost write" fault). Nil — the
	// default — keeps the store path a single pointer test. Poke and
	// Corrupt bypass it: they model harness actions, not bus traffic.
	onWrite func(a bus.Addr, w bus.Word) bool
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{}
}

// pageFor returns the dense page of a, or nil when never touched.
func (m *Memory) pageFor(a bus.Addr) *page {
	if pi := int(a >> pageBits); pi < len(m.pages) {
		return m.pages[pi]
	}
	return nil
}

// ensurePage returns the dense page of a, allocating it (and growing the
// directory) on first touch. The allocation is one-time per page; the
// steady-state store path never reaches it. The directory grows through
// append, so a run that keeps touching new highest pages copies it an
// amortised constant number of times per entry.
func (m *Memory) ensurePage(a bus.Addr) *page {
	pi := int(a >> pageBits)
	if pi >= len(m.pages) {
		m.pages = append(m.pages, make([]*page, pi+1-len(m.pages))...)
	}
	p := m.pages[pi]
	if p == nil {
		p = &page{}
		m.pages[pi] = p
	}
	return p
}

// load returns the stored word without touching the port counters.
func (m *Memory) load(a bus.Addr) bus.Word {
	if a < denseLimit {
		if p := m.pageFor(a); p != nil {
			return p.words[a&pageMask]
		}
		return 0
	}
	return m.sparse[a]
}

// store writes the word without touching the port counters. The dense
// path is allocation-free once a page exists; ensurePage allocates once
// per page.
func (m *Memory) store(a bus.Addr, w bus.Word) {
	if a < denseLimit {
		p := m.ensurePage(a)
		p.words[a&pageMask] = w
		p.mark(uint32(a) & pageMask)
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[bus.Addr]bus.Word)
	}
	m.sparse[a] = w
}

// ReadWord implements bus.Memory; memory is reached only over the bus.
//
//phase:bus
func (m *Memory) ReadWord(a bus.Addr) bus.Word {
	m.stats.Reads++
	return m.load(a)
}

// WriteWord implements bus.Memory; memory is reached only over the bus.
//
//phase:bus
func (m *Memory) WriteWord(a bus.Addr, w bus.Word) {
	m.stats.Writes++
	if m.onWrite != nil && m.onWrite(a, w) {
		m.stats.LostWrites++
		return
	}
	m.store(a, w)
}

// SetWriteInterceptor installs (or, with nil, removes) the lost-write
// fault hook consulted by WriteWord.
func (m *Memory) SetWriteInterceptor(f func(a bus.Addr, w bus.Word) bool) {
	m.onWrite = f
}

// Peek returns the stored word without counting a port access; simulation
// harnesses and the consistency oracle use it.
func (m *Memory) Peek(a bus.Addr) bus.Word { return m.load(a) }

// Poke stores a word without counting a port access; used to preload
// initial images (e.g. all-Readable initial lock values in the Figure 6
// scenarios) and by the consistency oracle, whose OnResolve hook fires
// from every phase.
//
//phase:any
func (m *Memory) Poke(a bus.Addr, w bus.Word) { m.store(a, w) }

// Written reports whether the word was ever stored (written, poked or
// corrupted) — the dense store's membership test, used by the machine's
// pristine-value bookkeeping in place of a map lookup.
func (m *Memory) Written(a bus.Addr) bool {
	if a < denseLimit {
		p := m.pageFor(a)
		if p == nil {
			return false
		}
		o := uint32(a) & pageMask
		return p.written[o>>6]&(uint64(1)<<(o&63)) != 0
	}
	_, ok := m.sparse[a]
	return ok
}

// Corrupt flips the given bit mask into the stored word, modeling a memory
// fault. It returns the corrupted value.
func (m *Memory) Corrupt(a bus.Addr, mask bus.Word) bus.Word {
	m.stats.Corrupt++
	w := m.load(a) ^ mask
	m.store(a, w)
	return w
}

// Stats returns a snapshot of the accumulated counters.
func (m *Memory) Stats() Stats { return m.stats }

// Footprint returns the number of distinct words ever written.
func (m *Memory) Footprint() int {
	n := len(m.sparse)
	for _, p := range m.pages {
		if p != nil {
			n += p.count
		}
	}
	return n
}

// Range calls f for every word ever written, in ascending address order
// (dense pages are walked in place; sparse addresses are sorted first),
// stopping early if f returns false. The sorted order is what keeps
// consumers — final-memory verification, snapshot diffs — deterministic.
func (m *Memory) Range(f func(a bus.Addr, w bus.Word) bool) {
	for pi, p := range m.pages {
		if p == nil {
			continue
		}
		base := bus.Addr(pi) << pageBits
		for wi, mask := range p.written {
			for mask != 0 {
				bit := bits.TrailingZeros64(mask)
				mask &^= 1 << bit
				o := bus.Addr(wi*64 + bit)
				if !f(base+o, p.words[o]) {
					return
				}
			}
		}
	}
	if len(m.sparse) == 0 {
		return
	}
	addrs := make([]bus.Addr, 0, len(m.sparse))
	for a := range m.sparse {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		if !f(a, m.sparse[a]) {
			return
		}
	}
}

// Snapshot copies the current contents; the consistency property tests use
// it to compare final memory images across protocols.
func (m *Memory) Snapshot() map[bus.Addr]bus.Word {
	out := make(map[bus.Addr]bus.Word, m.Footprint())
	m.Range(func(a bus.Addr, w bus.Word) bool {
		out[a] = w
		return true
	})
	return out
}

// String summarizes the memory for diagnostics.
func (m *Memory) String() string {
	return fmt.Sprintf("memory{words=%d reads=%d writes=%d}", m.Footprint(), m.stats.Reads, m.stats.Writes)
}
