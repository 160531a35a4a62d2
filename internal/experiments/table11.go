package experiments

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mrc"
	"repro/internal/report"
	"repro/internal/workload"
)

// Table 1-1: the Cm* emulated cache results that motivate the paper.
// Raskin's experiment cached only code and local data, wrote local data
// through (counting every local write as a miss), and counted every
// shared reference as a miss; we rerun that emulation over synthetic
// reference streams with the paper's reference mix and sweep the same
// four cache sizes.

func init() {
	register(Experiment{
		ID:      "table1-1",
		Title:   "Cm* Emulated Cache Results",
		Axes:    Axes{Seed: true, Scale: true},
		Version: 1,
		Chart:   &ChartSpec{Labels: []int{0, 1}, Value: 2}, // read miss %
		Run:     table11,
	})
}

// table11Sizes are the cache sizes of the paper's table, in words.
var table11Sizes = []int{256, 512, 1024, 2048}

// cmStarRow is one measured Table 1-1 row, typed so the machine oracle
// (cmstar_test.go) compares it exactly, not as rounded cells.
type cmStarRow struct {
	CacheSize     int
	App           string
	ReadMissPct   float64
	LocalWritePct float64
	SharedPct     float64
	TotalMissPct  float64
}

// table11Rows runs the emulation and returns the raw measurements: one
// stream pass per application feeds all four cache sizes.
func table11Rows(p Params) []cmStarRow {
	p = p.withDefaults()
	profiles := []workload.AppProfile{workload.PDEProfile(), workload.QuicksortProfile()}
	geoms := make([]cache.Config, len(table11Sizes))
	for i, size := range table11Sizes {
		geoms[i] = cache.Config{Lines: size, Ways: 1}
	}
	passes := make([]cmStarCounts, len(profiles))
	sets := make([]*mrc.Set, len(profiles))
	for a, prof := range profiles {
		passes[a], sets[a] = cmStarPass(p, prof, 4, 60000*p.Scale, geoms)
	}
	var rows []cmStarRow
	for i, size := range table11Sizes {
		for a, prof := range profiles {
			c := passes[a]
			rows = append(rows, table11Row(size, prof.Name, c.refs, c.readMisses[i], c.localWrites, c.shared))
			if sets[a] != nil {
				p.Profile.Add(fmt.Sprintf("table11/size=%d/%s", size, prof.Name), p.Seed, sets[a])
			}
		}
	}
	return rows
}

// table11Row turns one size's counts, summed over the PEs, into a row.
// Every local write is external communication under write-through, and
// every shared reference bypasses the cache.
func table11Row(size int, app string, refs, readMiss, localWrite, shared uint64) cmStarRow {
	pct := func(n uint64) float64 { return 100 * float64(n) / float64(refs) }
	return cmStarRow{
		CacheSize:     size,
		App:           app,
		ReadMissPct:   pct(readMiss),
		LocalWritePct: pct(localWrite),
		SharedPct:     pct(shared),
		TotalMissPct:  pct(readMiss + localWrite + shared),
	}
}

// cmStarCounts is one stream pass summed over its PEs, with the read
// misses of cachable data (code and local reads) per cache geometry.
type cmStarCounts struct {
	refs, localWrites, shared uint64
	readMisses                []uint64
}

// cmStarPass drives pes App PEs with no machine and feeds every geometry
// of geoms from the one stream. Under cmstar no PE touches a line another
// caches, so bus timing and snoop order cannot change a hit. The PEs
// advance in lockstep, one reference each in index order: the union
// stream of the returned mrc.Set, which is nil unless p.Profile is set.
func cmStarPass(p Params, prof workload.AppProfile, pes, refsPerPE int, geoms []cache.Config) (cmStarCounts, *mrc.Set) {
	c := cmStarCounts{readMisses: make([]uint64, len(geoms))}
	apps := make([]*workload.App, pes)
	for pe := range apps {
		apps[pe] = workload.MustApp(prof, workload.DefaultLayout(), pe, p.Seed, refsPerPE)
	}
	frames := make([]lruFrames, pes*len(geoms)) // PE-major
	for i := range frames {
		g := geoms[i%len(geoms)]
		frames[i] = lruFrames{sets: g.Lines / g.Ways, ways: g.Ways, addrs: make([]bus.Addr, g.Lines), stamps: make([]uint64, g.Lines)}
	}
	var set *mrc.Set
	if p.Profile != nil {
		set = &mrc.Set{PerPE: make([]*mrc.Profiler, pes), Global: mrc.New()}
		for pe := range set.PerPE {
			set.PerPE[pe] = mrc.New()
		}
	}
	for halted := false; !halted; {
		for pe, app := range apps {
			op := app.Next(workload.Result{})
			if halted = op.Kind == workload.OpHalt; halted {
				break // every PE has refsPerPE references: all halt in this round
			}
			c.refs++
			if set != nil { // the cache's probe fires before its cachability check
				set.PerPE[pe].Touch(op.Addr)
				set.Global.Touch(op.Addr)
			}
			write := op.Kind == workload.OpWrite
			switch {
			case op.Class == coherence.ClassShared:
				c.shared++
				continue
			case write && op.Class == coherence.ClassLocal:
				c.localWrites++
			}
			for i := pe * len(geoms); i < (pe+1)*len(geoms); i++ {
				frames[i].access(op.Addr, write, c.refs)
			}
		}
	}
	for i := range frames {
		c.readMisses[i%len(geoms)] += frames[i].misses
	}
	return c, set
}

// lruFrames is one PE's cache under one geometry, cache.Cache's frames
// cut down to the address and the LRU stamp, 0 for an invalid frame.
type lruFrames struct {
	sets, ways int
	addrs      []bus.Addr
	stamps     []uint64
	misses     uint64
}

// access applies one cachable reference, the now-th of the pass, as
// cache.Cache does under cmstar: a hit refreshes the stamp, a read miss
// installs into the first invalid way of the set or else the least
// recently used one, and a write miss does not allocate.
func (f *lruFrames) access(a bus.Addr, write bool, now uint64) {
	base := (int(a) & (f.sets - 1)) * f.ways
	v := base
	for i := base; i < base+f.ways; i++ {
		if f.stamps[i] != 0 && f.addrs[i] == a {
			f.stamps[i] = now
			return
		}
		if f.stamps[i] < f.stamps[v] {
			v = i
		}
	}
	if !write {
		f.misses++
		f.addrs[v] = a
		f.stamps[v] = now
	}
}

// table11 renders the measurements in the paper's layout.
func table11(p Params) (*Table, error) {
	rows := table11Rows(p)
	t := &report.Table{
		ID:      "table1-1",
		Title:   "Cm* Emulated Cache Results (set size 1 word)",
		Columns: []string{"Cache Size", "App", "Read Miss %", "Local Writes %", "Shared R/W %", "Total Miss %"},
		Note: "synthetic reference streams calibrated to the paper's mix (shared 5%/10%, " +
			"local writes 8%/6.7%); absolute read-miss numbers depend on the locality " +
			"calibration, the shape (halving with cache size) is the reproduced property",
	}
	for _, r := range rows {
		t.AddRowf(r.CacheSize, r.App, r.ReadMissPct, r.LocalWritePct, r.SharedPct, r.TotalMissPct)
	}
	return t, nil
}
