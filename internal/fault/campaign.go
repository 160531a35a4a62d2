package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Version is the campaign cells' cache epoch: it salts every cell's
// content-hash key, so bumping it after any behavioral change to the fault
// layer orphans stale memoized results instead of resuming from them.
const Version = 1

// CampaignConfig spans a fault campaign: protocols × classes × seeds, each
// cell running Trials independently planned faults.
type CampaignConfig struct {
	// Protocols are coherence scheme names (coherence.ByName); default
	// {rb, rwb, goodman, illinois}.
	Protocols []string
	// Classes defaults to every fault class.
	Classes []Class
	// Seeds are the campaign's workload seeds; each seed is its own
	// reference run and trial set. Default {1}.
	Seeds []uint64
	// Trials per (protocol, class, seed) cell; default 4.
	Trials int
	// Trial sizes each cell's machine; Trial.Protocol is overridden per
	// cell.
	Trial TrialConfig
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Protocols) == 0 {
		c.Protocols = []string{"rb", "rwb", "goodman", "illinois"}
	}
	if len(c.Classes) == 0 {
		c.Classes = Classes()
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1}
	}
	if c.Trials == 0 {
		c.Trials = 4
	}
	c.Trial = c.Trial.withDefaults()
	return c
}

// Validate resolves every protocol and class name and rejects a negative
// trial count or shape before any job runs.
func (c CampaignConfig) Validate() error {
	cfg := c.withDefaults()
	for _, name := range cfg.Protocols {
		if _, err := coherence.ByName(name); err != nil {
			return err
		}
	}
	if cfg.Trials < 0 || cfg.Trial.Refs < 0 || cfg.Trial.PEs < 0 {
		return fmt.Errorf("fault: Trials %d, Refs %d and PEs %d must not be negative", cfg.Trials, cfg.Trial.Refs, cfg.Trial.PEs)
	}
	if cfg.Trial.AddrRange <= cfg.Trial.PEs {
		return fmt.Errorf("fault: AddrRange %d must exceed PEs %d", cfg.Trial.AddrRange, cfg.Trial.PEs)
	}
	return nil
}

// CellID names one (protocol, class) campaign cell, e.g.
// "fault-rb-bus-drop". Protocol and class names both contain dashes, but
// the class vocabulary is closed, so ParseCellID splits unambiguously on
// the class suffix.
func CellID(protocol string, class Class) string {
	return "fault-" + protocol + "-" + class.String()
}

// ParseCellID inverts CellID.
func ParseCellID(id string) (protocol string, class Class, err error) {
	rest, ok := strings.CutPrefix(id, "fault-")
	if !ok {
		return "", 0, fmt.Errorf("fault: cell id %q does not start with \"fault-\"", id)
	}
	for _, c := range Classes() {
		if p, found := strings.CutSuffix(rest, "-"+c.String()); found {
			return p, c, nil
		}
	}
	return "", 0, fmt.Errorf("fault: cell id %q names no known fault class", id)
}

// Specs expands the campaign into sweep specs, one per (protocol, class,
// seed) cell in protocol-major order. Each spec carries exactly one seed,
// so the engine's per-spec aggregation is a pass-through and every cell
// table survives verbatim into the outcome — the matrix is built from
// those, not from mean±stddev blends. The spec version is
// ConfigVersion(c): the cache epoch is salted by the trial shape, so
// campaigns of different shapes never share memoized cells.
func (c CampaignConfig) Specs() []sweep.Spec {
	cfg := c.withDefaults()
	version := ConfigVersion(cfg)
	var specs []sweep.Spec
	for _, proto := range cfg.Protocols {
		for _, class := range cfg.Classes {
			for _, seed := range cfg.Seeds {
				specs = append(specs, sweep.Spec{
					Experiment: CellID(proto, class),
					Version:    version,
					Axes:       experiments.Axes{Seed: true},
					Seeds:      []uint64{seed},
				})
			}
		}
	}
	return specs
}

// cellColumns is the schema of every cell table; Matrix parses counts back
// out of it by these names.
var cellColumns = []string{"cell", "protocol", "class", "seed", "trials", "masked", "detected", "silent", "details"}

// Cell is one executed campaign cell: the fault-free reference run of
// the cell's seed and its classified trials, in trial order.
type Cell struct {
	Ref    *Reference
	Trials []TrialResult
}

// RunCell executes the (protocol, class, seed) cell: a fault-free
// reference run for the seed, then Trials planned faults of the class.
// The sweep runners tabulate the result.
func (c CampaignConfig) RunCell(protoName string, class Class, seed uint64) (*Cell, error) {
	cfg := c.withDefaults()
	proto, err := coherence.ByName(protoName)
	if err != nil {
		return nil, err
	}
	id := CellID(protoName, class)
	tcfg := cfg.Trial
	tcfg.Protocol = proto
	ref, err := tcfg.ReferenceIn(seed)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", id, seed, err)
	}
	cell := &Cell{Ref: ref}
	// Per-trial plan seeds come from one seeded stream, so trial t of
	// cell (proto, class, seed) is the same fault everywhere, forever.
	trialRNG := workload.NewRNG(seed ^ 0xfa17fa17fa17fa17)
	for t := 0; t < cfg.Trials; t++ {
		res, err := RunTrialIn(tcfg, ref, class, seed, trialRNG.Uint64())
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trial %d: %w", id, seed, t, err)
		}
		cell.Trials = append(cell.Trials, res)
	}
	return cell, nil
}

// runCell executes one campaign cell and tallies it into a one-row
// table.
func runCell(cfg CampaignConfig, spec sweep.JobSpec) (*report.Table, error) {
	protoName, class, err := ParseCellID(spec.Experiment)
	if err != nil {
		return nil, err
	}
	cell, err := cfg.RunCell(protoName, class, spec.Seed)
	if err != nil {
		return nil, err
	}
	var counts [3]int
	var details []string
	for t, res := range cell.Trials {
		counts[res.Outcome]++
		details = append(details, fmt.Sprintf("t%d %v: %s", t, res.Outcome, res.Detail))
	}
	table := &report.Table{
		ID:      spec.Experiment,
		Title:   fmt.Sprintf("Fault cell %s vs %s", protoName, class),
		Columns: cellColumns,
	}
	table.AddRow(spec.Experiment, protoName, class.String(),
		strconv.FormatUint(spec.Seed, 10), strconv.Itoa(cfg.Trials),
		strconv.Itoa(counts[Masked]), strconv.Itoa(counts[Detected]), strconv.Itoa(counts[Silent]),
		strings.Join(details, " | "))
	return table, nil
}

// NewCellRunner returns the sweep.Runner that executes one campaign cell
// with a fresh machine per reference and trial.
func NewCellRunner(c CampaignConfig) sweep.Runner {
	cfg := c.withDefaults()
	return func(spec sweep.JobSpec) (*report.Table, error) {
		return runCell(cfg, spec)
	}
}

// cellCounts is one cell table's parsed tally.
type cellCounts struct {
	Protocol string
	Class    Class
	Seed     uint64
	Trials   int
	Masked   int
	Detected int
	Silent   int
	Details  string
}

// parseCell reads the tally back out of a cell table (which may have come
// from the on-disk store, not this process).
func parseCell(t *report.Table) (cellCounts, error) {
	if t == nil || len(t.Rows) != 1 {
		return cellCounts{}, fmt.Errorf("fault: cell table %q is not one row", tableID(t))
	}
	col := make(map[string]int, len(t.Columns))
	for i, name := range t.Columns {
		col[name] = i
	}
	row := t.Rows[0]
	get := func(name string) (string, error) {
		i, ok := col[name]
		if !ok || i >= len(row) {
			return "", fmt.Errorf("fault: cell table %q has no %q column", t.ID, name)
		}
		return row[i], nil
	}
	var cc cellCounts
	var err error
	if cc.Protocol, err = get("protocol"); err != nil {
		return cc, err
	}
	className, err := get("class")
	if err != nil {
		return cc, err
	}
	if cc.Class, err = ParseClass(className); err != nil {
		return cc, err
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"trials", &cc.Trials}, {"masked", &cc.Masked}, {"detected", &cc.Detected}, {"silent", &cc.Silent}} {
		s, err := get(f.name)
		if err != nil {
			return cc, err
		}
		if *f.dst, err = strconv.Atoi(s); err != nil {
			return cc, fmt.Errorf("fault: cell table %q: bad %s count %q", t.ID, f.name, s)
		}
	}
	if s, err := get("seed"); err == nil {
		cc.Seed, _ = strconv.ParseUint(s, 10, 64)
	}
	cc.Details, _ = get("details")
	return cc, nil
}

func tableID(t *report.Table) string {
	if t == nil {
		return "<nil>"
	}
	return t.ID
}

// Matrix folds a completed campaign into the per-protocol resilience
// matrix: one row per protocol, one column per fault class, each cell
// "masked/detected/silent" summed over seeds and trials. Rows and columns
// follow the campaign config's declared order, so the rendering is
// byte-stable across runs and worker counts.
func Matrix(c CampaignConfig, out *sweep.Outcome) (*report.Table, error) {
	cfg := c.withDefaults()
	type key struct {
		proto string
		class Class
	}
	sums := make(map[key]*cellCounts)
	for _, jr := range out.Jobs {
		cc, err := parseCell(jr.Table)
		if err != nil {
			return nil, err
		}
		k := key{cc.Protocol, cc.Class}
		if agg, ok := sums[k]; ok {
			agg.Trials += cc.Trials
			agg.Masked += cc.Masked
			agg.Detected += cc.Detected
			agg.Silent += cc.Silent
		} else {
			copied := cc
			sums[k] = &copied
		}
	}
	columns := []string{"protocol"}
	for _, class := range cfg.Classes {
		columns = append(columns, class.String())
	}
	columns = append(columns, "silent-total")
	matrix := &report.Table{
		ID:      "fault-matrix",
		Title:   "Per-protocol resilience matrix (masked/detected/silent per class)",
		Note:    fmt.Sprintf("%d trial(s) × %d seed(s) per cell; silent divergences are expected only for mem-bit-flip (oracle blind spot on never-written addresses)", cfg.Trials, len(cfg.Seeds)),
		Columns: columns,
	}
	for _, proto := range cfg.Protocols {
		row := []string{proto}
		silentTotal := 0
		for _, class := range cfg.Classes {
			cc := sums[key{proto, class}]
			if cc == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%d/%d/%d", cc.Masked, cc.Detected, cc.Silent))
			silentTotal += cc.Silent
		}
		row = append(row, strconv.Itoa(silentTotal))
		matrix.AddRow(row...)
	}
	return matrix, nil
}

// SilentViolations scans a completed campaign for silent divergences in
// detectable classes — each one is an oracle hole, and cmd/faultcampaign
// and TestCampaignNoSilentDivergence fail on any. The returned strings
// name the offending cells in canonical job order.
func SilentViolations(out *sweep.Outcome) ([]string, error) {
	var bad []string
	for _, jr := range out.Jobs {
		cc, err := parseCell(jr.Table)
		if err != nil {
			return nil, err
		}
		if cc.Silent > 0 && cc.Class.Detectable() {
			bad = append(bad, fmt.Sprintf("%s seed=%d: %d silent divergence(s): %s",
				CellID(cc.Protocol, cc.Class), cc.Seed, cc.Silent, cc.Details))
		}
	}
	return bad, nil
}

// RenderReport renders the full campaign artifact: the resilience matrix
// followed by every cell table in canonical order. Byte-identical for the
// same config and seeds regardless of worker count or cache state.
func RenderReport(c CampaignConfig, out *sweep.Outcome, format string) (string, error) {
	matrix, err := Matrix(c, out)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(matrix.Render(format))
	sb.WriteString("\n")
	for _, jr := range out.Jobs {
		sb.WriteString(jr.Table.Render(format))
		sb.WriteString("\n")
	}
	return sb.String(), nil
}
