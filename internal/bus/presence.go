package bus

// Presence is an exact per-address record of which snooper ids hold a
// cache frame for the address (valid frame, matching tag — precisely the
// condition under which the cache's lookup succeeds). Every snoop
// callback (SnoopRead, SnoopRMWRead, ObserveWrite, ObserveReadData) and
// the shared-line probe (HasCopy) are no-ops for a cache whose lookup
// misses, so the bus dispatches a transaction only to the recorded
// holders instead of broadcasting it to every attached snooper. With many
// PEs the broadcast would be the simulator's dominant cost — each
// transaction would probe every cache's tag store — and the masked
// dispatch is behavior-identical because skipped caches would have done
// nothing.
//
// The table is an optimization contract, not a coherence directory. Each
// bus creates one (a Set shares one across its banks) and hands it at
// Attach to every snooper that keeps it (PresenceKeeper); those snoopers
// must keep it exact by calling Add when a frame starts holding an
// address (install) and Remove when it stops (eviction, write-back
// invalidation, an RMW dropping its copy). The protocol state of the
// frame is irrelevant — a valid frame in state Invalid is still recorded,
// because its cache still reacts to snoops (if only by running the
// protocol's identity transitions), exactly as lookup would find it.
//
// A mask word covers 64 ids, and the table keeps one plane of words per
// 64 ids (plane id>>6), grown by Attach, so a machine of up to 64 PEs
// keeps exactly one. The caches maintain the table from whichever phase
// installs or evicts a frame (bus completions, snoop reactions, CPU-phase
// evictions), so the holder state is //phase:any.
type Presence struct {
	// planes is grown only by Attach, and gen, the table generation, is
	// written only by Bus.Reset: both between runs, never from phase code, so
	// they carry no phase annotation. Pages stamped with an older
	// generation hold no ids (they are cleared and re-stamped on the next
	// Add).
	planes []presencePlane
	gen    uint64
}

// presencePlane holds the mask words of 64 consecutive ids: dense pages
// for the low address range, a sparse map above it.
type presencePlane struct {
	//phase:any
	pages []*presencePage
	//phase:any
	sparse map[Addr]uint64 // addresses >= presenceDenseLimit
}

// A dense page holds the mask words of 256 consecutive addresses (2 KiB),
// the memory store's page size: short runs touch few words per region.
const (
	presencePageBits   = 8
	presencePageWords  = 1 << presencePageBits
	presencePageMask   = presencePageWords - 1
	presenceDenseLimit = Addr(1) << 24
)

type presencePage struct {
	//phase:any
	masks [presencePageWords]uint64
	//phase:any
	gen uint64 // Presence.gen value this page's masks belong to
}

// grow makes room for snooper id's plane.
func (p *Presence) grow(id int) {
	for len(p.planes) <= id>>6 {
		p.planes = append(p.planes, presencePlane{})
	}
}

// reset empties the table without releasing its pages: the generation
// counter is bumped, so every dense page reads as holder-free and is
// cleared in place the first time the new generation records a holder.
func (p *Presence) reset() {
	p.gen++
	for i := range p.planes {
		clear(p.planes[i].sparse)
	}
}

// Add records that snooper id holds a frame for a. The page-growth
// allocations are one-time per page, and the directory grows through
// append (amortised); the steady-state path is a mask OR.
//
//phase:any
func (p *Presence) Add(a Addr, id int) {
	pl, bit := &p.planes[id>>6], uint64(1)<<(id&63)
	if a < presenceDenseLimit {
		pi := int(a >> presencePageBits)
		if pi >= len(pl.pages) {
			pl.pages = append(pl.pages, make([]*presencePage, pi+1-len(pl.pages))...)
		}
		pg := pl.pages[pi]
		if pg == nil {
			pg = &presencePage{gen: p.gen}
			pl.pages[pi] = pg
		} else if pg.gen != p.gen {
			// Recycled from before the last Reset: clear in place, never
			// reallocate — the whole point of the generation stamp.
			pg.masks = [presencePageWords]uint64{}
			pg.gen = p.gen
		}
		pg.masks[a&presencePageMask] |= bit
		return
	}
	if pl.sparse == nil {
		pl.sparse = make(map[Addr]uint64)
	}
	pl.sparse[a] |= bit
}

// Remove records that snooper id no longer holds a frame for a.
//
//phase:any
func (p *Presence) Remove(a Addr, id int) {
	pl, bit := &p.planes[id>>6], uint64(1)<<(id&63)
	if a < presenceDenseLimit {
		pi := int(a >> presencePageBits)
		if pi < len(pl.pages) && pl.pages[pi] != nil && pl.pages[pi].gen == p.gen {
			pl.pages[pi].masks[a&presencePageMask] &^= bit
		}
		return
	}
	if m, ok := pl.sparse[a]; ok {
		m &^= bit
		if m == 0 {
			delete(pl.sparse, a)
		} else {
			pl.sparse[a] = m
		}
	}
}

// Mask returns mask word w of a's holders: bit i set means id 64*w+i
// holds a frame for a.
func (p *Presence) Mask(a Addr, w int) uint64 {
	pl := &p.planes[w]
	if a < presenceDenseLimit {
		pi := int(a >> presencePageBits)
		if pi < len(pl.pages) && pl.pages[pi] != nil && pl.pages[pi].gen == p.gen {
			return pl.pages[pi].masks[a&presencePageMask]
		}
		return 0
	}
	return pl.sparse[a]
}
