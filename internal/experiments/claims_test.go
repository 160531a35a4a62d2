package experiments

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The paper's claims, one row each, checked against the rendered tables
// of one pass over the registry. EXPERIMENTS.md prints every experiment's
// table at seed 1 and these rows with their verdicts between generated
// markers; TestExperimentsDoc keeps those blocks equal to the pass.

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks")

// claimSeeds are the seeds a seeded experiment is checked at.
const claimSeeds = 4

// claim is one paper-facing statement about one experiment's table.
type claim struct {
	exp    string // experiment id
	source string // where the paper makes it: "§5", "Fig. 6-2", "Table 1-1"
	text   string
	paper  string // the paper's value or relation; "—" when it states none
	check  relation
}

// relation reads its cells from a rendered table and says whether it
// holds; measured is what the doc prints for the table.
type relation interface {
	eval(tb *Table) (measured string, ok bool, err error)
	String() string // the check, as the doc prints it
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }

func column(tb *Table, name string) (int, error) {
	for i, c := range tb.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%s has no column %q", tb.ID, name)
}

// sel picks cells of a rendered table: column col of every row whose key
// columns hold the given values ("Protocol=rb"; "rb|rwb" accepts either).
// A column written "Txns per bus[1]" reads element 1 of a "[a b]" cell.
type sel struct {
	col   string
	where []string
}

func at(col string, where ...string) sel { return sel{col, where} }

func (s sel) values(tb *Table) ([]float64, error) {
	col, elem := s.col, -1
	var err error
	if i := strings.LastIndexByte(col, '['); i > 0 {
		if elem, err = strconv.Atoi(strings.TrimSuffix(col[i+1:], "]")); err != nil {
			return nil, err
		}
		col = col[:i]
	}
	ci, err := column(tb, col)
	if err != nil {
		return nil, err
	}
	keys := make([]int, len(s.where))
	for i, w := range s.where {
		name, _, _ := strings.Cut(w, "=")
		if keys[i], err = column(tb, name); err != nil {
			return nil, err
		}
	}
	var out []float64
rows:
	for _, row := range tb.Rows {
		for i, w := range s.where {
			_, want, _ := strings.Cut(w, "=")
			if !strings.Contains("|"+want+"|", "|"+row[keys[i]]+"|") {
				continue rows
			}
		}
		cell := row[ci]
		if elem >= 0 {
			cell = strings.Fields(strings.Trim(cell, "[]"))[elem]
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %s cell %q: %v", tb.ID, s.col, cell, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no row where %v", tb.ID, s.where)
	}
	return out, nil
}

// quotient is a/b for every pair of cells the two selections pick, taken
// in table order.
type quotient struct{ a, b sel }

func ratio(a, b sel) quotient { return quotient{a, b} }

func (q quotient) values(tb *Table) ([]float64, error) {
	as, err := q.a.values(tb)
	if err != nil {
		return nil, err
	}
	bs, err := q.b.values(tb)
	if err != nil || len(as) != len(bs) {
		return nil, fmt.Errorf("%s: %d cells against %d (%v)", tb.ID, len(as), len(bs), err)
	}
	for i := range as {
		as[i] /= bs[i]
	}
	return as, nil
}

// cells is a list of numbers read off a table: a sel or a quotient.
type cells interface {
	values(tb *Table) ([]float64, error)
}

// bounds holds every value of src in [lo, hi]; it measures the value
// nearest to breaking the bound.
type bounds struct {
	src    cells
	lo, hi float64
	check  string
}

func near(src cells, want, tol float64) bounds {
	if tol == 0 {
		return bounds{src, want, want, "= " + num(want)}
	}
	return bounds{src, want - tol, want + tol, "within ±" + num(tol)}
}

func atMost(src cells, x float64) bounds  { return bounds{src, math.Inf(-1), x, "≤ " + num(x)} }
func atLeast(src cells, x float64) bounds { return bounds{src, x, math.Inf(1), "≥ " + num(x)} }
func between(src cells, lo, hi float64) bounds {
	return bounds{src, lo, hi, "in [" + num(lo) + ", " + num(hi) + "]"}
}

func (b bounds) String() string {
	if _, ok := b.src.(quotient); ok {
		return "ratio " + b.check
	}
	return b.check
}

func (b bounds) eval(tb *Table) (string, bool, error) {
	vs, err := b.src.values(tb)
	if err != nil {
		return "", false, err
	}
	worst, slack := 0.0, math.Inf(1)
	for _, v := range vs {
		if d := math.Min(v-b.lo, b.hi-v); d < slack {
			worst, slack = v, d
		}
	}
	return num(worst), slack >= 0, nil
}

// monotone holds when the selected cells, in table order, fall (dir -1)
// or rise (dir +1) at every step.
type monotone struct {
	s   sel
	dir float64
}

func (m monotone) String() string {
	if m.dir < 0 {
		return "falls at every step"
	}
	return "rises at every step"
}

func (m monotone) eval(tb *Table) (string, bool, error) {
	vs, err := m.s.values(tb)
	if err != nil {
		return "", false, err
	}
	ok := true
	for i := 1; i < len(vs); i++ {
		ok = ok && m.dir*(vs[i]-vs[i-1]) > 0
	}
	return num(vs[0]) + " → " + num(vs[len(vs)-1]), ok, nil
}

// matrix holds when the table, cut to cols, is rows cell for cell; "*"
// matches any cell.
type matrix struct {
	cols []string
	rows [][]string
}

func (m matrix) String() string { return "cell for cell" }

func (m matrix) eval(tb *Table) (string, bool, error) {
	if len(tb.Rows) != len(m.rows) {
		return fmt.Sprintf("%d rows, want %d", len(tb.Rows), len(m.rows)), false, nil
	}
	for i, c := range m.cols {
		ci, err := column(tb, c)
		if err != nil {
			return "", false, err
		}
		for r, want := range m.rows {
			if got := tb.Rows[r][ci]; want[i] != "*" && got != want[i] {
				return fmt.Sprintf("row %d %s: %s, want %s", r+1, c, got, want[i]), false, nil
			}
		}
	}
	return "equal", true, nil
}

// mae holds when the mean absolute error of the selected cells against
// the paper's values is at most bound.
type mae struct {
	paper []paperCell
	bound float64
}

type paperCell struct {
	s    sel
	want float64
}

func (m mae) String() string { return "mean error ≤ " + num(m.bound) }

func (m mae) eval(tb *Table) (string, bool, error) {
	sum := 0.0
	for _, c := range m.paper {
		vs, err := c.s.values(tb)
		if err != nil {
			return "", false, err
		}
		sum += math.Abs(vs[0] - c.want)
	}
	e := sum / float64(len(m.paper))
	return fmt.Sprintf("%.2f", e), e <= m.bound, nil
}

var (
	fig6Cols = []string{"P1 Cache", "P2 Cache", "P3 Cache", "S (mem)", "Observation"}
	arcCols  = []string{"State", "Request", "Next State", "Modifier"}
	spinning = "Observation=Others try to get S (No Bus Traffic) (Load from Caches)"
)

// claims: experiment, paper source, claim, the paper's value, check.
var claims = []claim{
	{"table1-1", "Table 1-1", "Read misses fall with every doubling of the cache (pde)", "26.1 → 6.1", monotone{at("Read Miss %", "App=pde"), -1}},
	{"table1-1", "Table 1-1", "Read misses fall with every doubling of the cache (qsort)", "25.0 → 5.8, but 28.8 at 512", monotone{at("Read Miss %", "App=qsort"), -1}},
	{"table1-1", "Table 1-1", "At 256 words the read misses are in the mid-20s", "26.1 / 25.0", between(at("Read Miss %", "Cache Size=256"), 18, 35)},
	{"table1-1", "Table 1-1", "At 2048 words the read misses are single digits", "6.1 / 5.8", atMost(at("Read Miss %", "Cache Size=2048"), 10)},
	{"table1-1", "Table 1-1", "From 256 to 2048 words the read misses fall at least 3×", "4.3× / 4.3×", atMost(ratio(at("Read Miss %", "Cache Size=2048"), at("Read Miss %", "Cache Size=256")), 1.0/3)},
	{"table1-1", "Table 1-1", "Local writes are a fixed share (pde)", "8 %", near(at("Local Writes %", "App=pde"), 8, 1)},
	{"table1-1", "Table 1-1", "Local writes are a fixed share (qsort)", "6.7 %", near(at("Local Writes %", "App=qsort"), 6.7, 1)},
	{"table1-1", "Table 1-1", "Shared references are a fixed share (pde)", "5 %", near(at("Shared R/W %", "App=pde"), 5, 1)},
	{"table1-1", "Table 1-1", "Shared references are a fixed share (qsort)", "10 %", near(at("Shared R/W %", "App=qsort"), 10, 1)},
	{"table1-1", "Table 1-1", "Read-miss cells against the paper's, without its 28.8 at 512/qsort (pp)", "7 cells",
		mae{[]paperCell{
			{at("Read Miss %", "Cache Size=256", "App=pde"), 26.1}, {at("Read Miss %", "Cache Size=512", "App=pde"), 21.7},
			{at("Read Miss %", "Cache Size=1024", "App=pde"), 11.3}, {at("Read Miss %", "Cache Size=2048", "App=pde"), 6.1},
			{at("Read Miss %", "Cache Size=256", "App=qsort"), 25.0}, {at("Read Miss %", "Cache Size=1024", "App=qsort"), 10.8},
			{at("Read Miss %", "Cache Size=2048", "App=qsort"), 5.8},
		}, 2.0}},

	{"fig3-1", "Fig. 3-1", "The RB diagram: three states, no BI", "the figure's arcs",
		matrix{arcCols, [][]string{
			{"I", "CR", "R", "3 (generate BR)"}, {"I", "CW", "L", "1 (generate BW)"},
			{"I", "BR", "I", "-"}, {"I", "BW", "I", "-"},
			{"R", "CR", "R", "-"}, {"R", "CW", "L", "1 (generate BW)"},
			{"R", "BR", "R", "-"}, {"R", "BW", "I", "-"},
			{"L", "CR", "L", "-"}, {"L", "CW", "L", "-"},
			{"L", "BR", "R", "2 (interrupt BR, supply data)"}, {"L", "BW", "I", "-"},
		}}},
	{"fig5-1", "Fig. 5-1", "The RWB diagram: four states, BI and the broadcast take", "the figure's arcs",
		matrix{arcCols, [][]string{
			{"I", "CR", "R", "3 (generate BR)"}, {"I", "CW", "F", "1 (generate BW)"},
			{"I", "BR", "I", "-"}, {"I", "BW", "R", "take broadcast data"},
			{"I", "BI", "I", "-"}, {"R", "CR", "R", "-"},
			{"R", "CW", "F", "1 (generate BW)"}, {"R", "BR", "R", "-"},
			{"R", "BW", "R", "take broadcast data"}, {"R", "BI", "I", "-"},
			{"F", "CR", "F", "-"}, {"F", "CW", "L", "4 (generate BI)"},
			{"F", "BR", "F", "-"}, {"F", "BW", "R", "take broadcast data"},
			{"F", "BI", "I", "-"}, {"L", "CR", "L", "-"},
			{"L", "CW", "L", "-"}, {"L", "BR", "R", "2 (interrupt BR, supply data)"},
			{"L", "BW", "R", "take broadcast data"}, {"L", "BI", "I", "-"},
		}}},

	// The paper's S column reads 0 right after the release; memory gets
	// the 0 only when the next locked read flushes the Local owner.
	{"fig6-1", "Fig. 6-1", "The state matrix of Test-and-Set under RB", "the figure's matrix",
		matrix{fig6Cols, [][]string{
			{"R(0)", "R(0)", "R(0)", "0", "Initial State"},
			{"I(-)", "L(1)", "I(-)", "1", "P2 Locks S"},
			{"I(-)", "L(1)", "I(-)", "1", "Others try to get S (Bus Traffic)"},
			{"I(-)", "L(0)", "I(-)", "*", "P2 releases S"},
			{"L(1)", "I(-)", "I(-)", "1", "P1 get the S"},
			{"L(1)", "I(-)", "I(-)", "1", "Others try to get S"},
		}}},
	{"fig6-1", "Fig. 6-1", "Every spinning Test-and-Set is a bus transaction (6 attempts)", "Bus Traffic", near(at("Bus txns", "Observation=Others try to get S (Bus Traffic)"), 6, 0)},
	{"fig6-2", "Fig. 6-2", "The state matrix of Test-and-Test-and-Set under RB", "the figure's matrix",
		matrix{fig6Cols, [][]string{
			{"R(0)", "R(0)", "R(0)", "0", "Initial State"},
			{"I(-)", "L(1)", "I(-)", "1", "P2 locks S"},
			{"R(1)", "R(1)", "R(1)", "1", "Others test S (fetch refreshes all caches)"},
			{"R(1)", "R(1)", "R(1)", "1", "Others try to get S (No Bus Traffic) (Load from Caches)"},
			{"I(-)", "L(0)", "I(-)", "0", "P2 releases S"},
			{"R(0)", "R(0)", "R(0)", "0", "A Bus Read to S"},
			{"L(1)", "I(-)", "I(-)", "1", "P1 get the S"},
			{"R(1)", "R(1)", "R(1)", "1", "Others try to get S"},
		}}},
	{"fig6-2", "Fig. 6-2", "Spinning on a held lock costs no bus transaction", "No Bus Traffic", near(at("Bus txns", spinning), 0, 0)},
	{"fig6-3", "Fig. 6-3", "The state matrix of Test-and-Test-and-Set under RWB: F/R after each acquisition, I(-) only at the release", "the figure's matrix",
		matrix{fig6Cols, [][]string{
			{"R(0)", "R(0)", "R(0)", "0", "Initial State"},
			{"R(1)", "F(1)", "R(1)", "1", "P2 locks S"},
			{"R(1)", "F(1)", "R(1)", "1", "Others try to get S (No Bus Traffic) (Load from Caches)"},
			{"I(-)", "L(0)", "I(-)", "1", "P2 releases S"},
			{"R(0)", "R(0)", "R(0)", "0", "A Bus Read to S"},
			{"F(1)", "R(1)", "R(1)", "1", "P1 get the S"},
			{"F(1)", "R(1)", "R(1)", "1", "Others try to get S"},
		}}},
	{"fig6-3", "Fig. 6-3", "Spinning on a held lock costs no bus transaction", "No Bus Traffic", near(at("Bus txns", spinning), 0, 0)},

	{"section7-sbb", "§7", "128 PEs at 1 MACS with a 10 % miss ratio need SBB = 12.8 MACS", "12.8 MACS", near(at("Required SBB (MACS)", "Processors (m)=128"), 12.8, 0.05)},
	{"fig7-1", "Fig. 7-1", "Two interleaved buses split the traffic evenly (bus 0 against bus 1)", "even split", between(ratio(at("Txns per bus[0]", "Buses=2"), at("Txns per bus[1]", "Buses=2")), 1/1.5, 1.5)},
	{"fig7-1", "Fig. 7-1", "Each of two buses carries about half the single-bus load", "1/2", atMost(ratio(at("Txns per bus[0]", "Buses=2"), at("Txns per bus[0]", "Buses=1")), 0.65)},
	{"section7-saturation", "§7", "Without caches the bus is saturated at every machine size", "—", atLeast(at("Bus utilization", "Protocol=nocache"), 0.95)},
	{"section7-saturation", "§7", "With RB caches 2 PEs leave the bus headroom", "—", atMost(at("Bus utilization", "Protocol=rb", "Processors=2"), 0.9)},
	{"section7-saturation", "§7", "With RB caches the bus saturates by 8 PEs and stays saturated", "—", atLeast(at("Bus utilization", "Protocol=rb", "Processors=8|16|32"), 0.95)},
	{"section7-saturation", "§7", "With RB caches utilization grows with the PE count up to saturation", "—", monotone{at("Bus utilization", "Protocol=rb", "Processors=2|4|8"), 1}},
	{"section7-saturation", "§7", "RB caches cut bus transactions per reference at least 3× (4 PEs)", "miss ratio 1/h", atMost(ratio(at("Bus txns/ref", "Protocol=rb", "Processors=4"), at("Bus txns/ref", "Protocol=nocache", "Processors=4")), 1.0/3)},

	{"ablation-arrayinit", "§5", "RB pays two bus writes per element", "2", near(at("Per element", "Protocol=rb"), 2, 0.01)},
	{"ablation-arrayinit", "§5", "RWB pays one bus write per element", "1", near(at("Per element", "Protocol=rwb"), 1, 0.01)},
	{"ablation-arrayinit", "§5", "RB with a dirty bit at eviction pays one", "—", near(at("Per element", "Protocol=rb-dirty"), 1, 0.01)},
	{"ablation-lock", "§6", "TTS costs well under TS per acquisition, under every protocol", "eliminates the hot spot", atMost(ratio(at("Txns/acquisition", "Strategy=tts"), at("Txns/acquisition", "Strategy=ts")), 1/1.5)},
	{"ablation-lock", "Fig. 6-3", "RWB's TTS is no costlier than RB's", "less invalidation", atMost(ratio(at("Txns/acquisition", "Protocol=rwb", "Strategy=tts"), at("Txns/acquisition", "Protocol=rb", "Strategy=tts")), 1.1)},
	{"ablation-mix", "§2", "At 5 % writes RB is cheaper than write-through", "—", atMost(ratio(at("Bus txns/ref", "Write frac=0.050", "Protocol=rb"), at("Bus txns/ref", "Write frac=0.050", "Protocol=writethrough")), 1)},
	{"ablation-mix", "§2", "RB's traffic grows with the write fraction", "assumption 1", monotone{at("Bus txns/ref", "Protocol=rb"), 1}},
	{"ablation-mix", "§5", "RWB is no costlier than Goodman at any write fraction", "—", atMost(ratio(at("Bus txns/ref", "Protocol=rwb"), at("Bus txns/ref", "Protocol=goodman")), 1.15)},
	{"ablation-threshold", "§5 fn. 6", "A private writer is no cheaper at k = 4 than at k = 2", "—", atMost(ratio(at("Bus txns/ref", "k=2", "Workload=private-writer"), at("Bus txns/ref", "k=4", "Workload=private-writer")), 1)},
	{"ablation-fault", "§8", "Every shared word is corrupted", "—", near(at("Words corrupted"), 256, 0)},
	{"ablation-fault", "§5", "RWB can restore at least as many words as RB", "a higher probability of a correct copy", atMost(ratio(at("Fraction", "Protocol=rb"), at("Fraction", "Protocol=rwb")), 1)},
	{"ablation-fault", "§5", "RWB restores some words", "—", atLeast(at("Recovered", "Protocol=rwb"), 1)},
	{"ablation-private", "§2", "Dynamic classification drives private traffic to about zero (rb, rwb, illinois, goodman)", "no static classification", atMost(at("Bus txns/ref", "Protocol=rb|rwb|illinois|goodman"), 0.05)},
	{"ablation-private", "§2", "Write-through pays for every store", "—", atLeast(at("Bus txns/ref", "Protocol=writethrough"), 0.4)},
	{"ablation-assoc", "§2 assumption 7", "4 ways at 512 words miss no more than direct-mapped", "—", atMost(ratio(at("Read miss %", "Cache size=512", "Ways=4"), at("Read miss %", "Cache size=512", "Ways=1")), 1.05)},
	{"ablation-assoc", "§2 assumption 7", "4 ways at 2048 words miss no more than direct-mapped", "—", atMost(ratio(at("Read miss %", "Cache size=2048", "Ways=4"), at("Read miss %", "Cache size=2048", "Ways=1")), 1.05)},
	{"ablation-barrier", "§6", "RB's cache-resident barrier spin costs under a third of no cache's", "—", atMost(ratio(at("Txns/round", "Protocol=rb"), at("Txns/round", "Protocol=nocache")), 1.0/3)},
	{"ablation-barrier", "§6", "RWB's update release is no costlier than RB's invalidation", "—", atMost(ratio(at("Txns/round", "Protocol=rwb"), at("Txns/round", "Protocol=rb")), 1.1)},
	{"extension-hier", "§8", "The cluster caches absorb most of the local traffic", "—", atLeast(at("Filter ratio"), 0.5)},
	{"extension-hier", "§8", "4 clusters send the global bus far less than 4× one cluster's local traffic", "—", atMost(ratio(at("Global txns", "Clusters=4"), at("Local txns", "Clusters=1")), 4)},
	{"ablation-rmwstyle", "§6", "The two-phase TS throttles its own hot spot below the fused one", "—", atMost(ratio(at("Txns/acquisition", "RMW style=two-phase", "Strategy=ts"), at("Txns/acquisition", "RMW style=fused", "Strategy=ts")), 1)},
	{"ablation-rmwstyle", "§6", "TTS rescues the fused TS", "eliminates the hot spot", atMost(ratio(at("Txns/acquisition", "RMW style=fused", "Strategy=tts"), at("Txns/acquisition", "RMW style=fused", "Strategy=ts")), 1/1.5)},
	{"ablation-rmwstyle", "§6", "Under the two-phase TS, TTS lands within 2× of TS either way", "—", between(ratio(at("Txns/acquisition", "RMW style=two-phase", "Strategy=tts"), at("Txns/acquisition", "RMW style=two-phase", "Strategy=ts")), 0.5, 2)},
}

// paperRun is every non-trace experiment run once per seed it depends on.
type paperRun struct {
	ids    []string            // registry order
	tables map[string][]*Table // seeds 1..claimSeeds, or one table for a seed-free experiment
}

// paperOnce runs the pass on every core, once per test binary.
var paperOnce = sync.OnceValues(func() (*paperRun, error) {
	run := &paperRun{tables: map[string][]*Table{}}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, e := range All() {
		if strings.HasPrefix(e.ID, "trace-") {
			continue
		}
		tables := make([]*Table, 1)
		if e.Axes.Seed {
			tables = make([]*Table, claimSeeds)
		}
		run.ids = append(run.ids, e.ID)
		run.tables[e.ID] = tables
		for i := range tables {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				var err error
				if tables[i], err = e.Run(Params{Seed: uint64(i + 1)}); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("%s seed %d: %w", e.ID, i+1, err))
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	return run, errors.Join(errs...)
})

func paperPass(t *testing.T) *paperRun {
	t.Helper()
	run, err := paperOnce()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// verdict evaluates c at every table of its experiment.
func (c claim) verdict(tables []*Table) (measured string, ok bool, err error) {
	ms := make([]string, len(tables))
	ok = true
	for i, tb := range tables {
		m, holds, err := c.check.eval(tb)
		if err != nil {
			return "", false, err
		}
		ms[i], ok = m, ok && holds
	}
	return strings.Join(ms, " / "), ok, nil
}

func TestClaims(t *testing.T) {
	run := paperPass(t)
	for _, c := range claims {
		if _, ok := run.tables[c.exp]; !ok {
			t.Errorf("claim %q names no registered experiment %q", c.text, c.exp)
		}
	}
	for _, id := range run.ids {
		t.Run(id, func(t *testing.T) { view(t, id, anyClaim) })
	}
}

// view checks the claims of exp that keep selects. TestClaims checks
// every experiment's whole set; the named tests below are views over it.
func view(t *testing.T, exp string, keep func(claim) bool) {
	run, n := paperPass(t), 0
	for _, c := range claims {
		if c.exp != exp || !keep(c) {
			continue
		}
		n++
		measured, ok, err := c.verdict(run.tables[exp])
		if err != nil {
			t.Errorf("%s: %v", c.text, err)
		} else if !ok {
			t.Errorf("%s (%s): measured %s, check %v (paper: %s)", c.text, c.source, measured, c.check, c.paper)
		}
	}
	if n == 0 {
		t.Fatalf("no claim checks %s", exp)
	}
}

func anyClaim(claim) bool { return true }
func isMAE(c claim) bool  { _, ok := c.check.(mae); return ok }
func notMAE(c claim) bool { return !isMAE(c) }

func TestTable11Shape(t *testing.T)         { view(t, "table1-1", notMAE) }
func TestTable11PaperError(t *testing.T)    { view(t, "table1-1", isMAE) }
func TestFigure63MatchesPaper(t *testing.T) { view(t, "fig6-3", anyClaim) }

// TestFigure63LessInvalidationThanFigure62: RWB leaves fewer I(-) cells
// ("note the substantial minimization of cache invalidation").
func TestFigure63LessInvalidationThanFigure62(t *testing.T) {
	run := paperPass(t)
	invalid := func(id string) (n int) {
		for _, row := range run.tables[id][0].Rows {
			n += strings.Count(strings.Join(row[:3], " "), "I(-)")
		}
		return n
	}
	if rb, rwb := invalid("fig6-2"), invalid("fig6-3"); rwb >= rb {
		t.Fatalf("RWB shows %d I(-) cells, RB %d; want fewer under RWB", rwb, rb)
	}
}

// docBlock is an experiment's generated EXPERIMENTS.md block: its table
// at seed 1, then its claim rows.
func docBlock(run *paperRun, id string) string {
	var b strings.Builder
	b.WriteString(run.tables[id][0].Markdown())
	measured := "Measured"
	if len(run.tables[id]) > 1 {
		measured = fmt.Sprintf("Measured, seeds 1–%d", claimSeeds)
	}
	b.WriteString("\n| Claim | Source | Paper | Check | " + measured + " | Verdict |\n|---|---|---|---|---|---|\n")
	for _, c := range claims {
		if c.exp != id {
			continue
		}
		m, ok, err := c.verdict(run.tables[id])
		verdict := "holds"
		if err != nil {
			m, verdict = err.Error(), "**error**"
		} else if !ok {
			verdict = "**fails**"
		}
		b.WriteString("| " + strings.Join([]string{c.text, c.source, c.paper, c.check.String(), m, verdict}, " | ") + " |\n")
	}
	return b.String()
}

// TestExperimentsDoc keeps EXPERIMENTS.md's generated blocks equal to the
// pass; -update rewrites them.
func TestExperimentsDoc(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	run := paperPass(t)
	for _, id := range run.ids {
		begin, end := "<!-- experiment:"+id+":begin -->\n", "<!-- experiment:"+id+":end -->"
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Errorf("%s: no generated block for %s (markers %q ... %q)", path, id, begin, end)
			continue
		}
		i += len(begin)
		if want := docBlock(run, id); doc[i:j] != want {
			if !*update {
				t.Errorf("%s: the %s block is stale (regenerate with -update); want:\n%s", path, id, want)
				continue
			}
			doc = doc[:i] + want + doc[j:]
		}
	}
	if *update && doc != string(raw) {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
