// Package lint is the module's static-analysis pass, built entirely on
// the standard library (go/parser, go/ast, go/types, go/importer — no
// golang.org/x/tools). It complements the dynamic verification layers
// (internal/check's product-machine exploration, the race detector) with
// two analyzers:
//
//   - determinism: map iteration whose order can reach simulator state,
//     stats output, trace emission or a content hash is flagged, as are
//     time.Now, wall-clock timers, and math/rand in simulation packages —
//     every BENCH comparison and Figure 6-x reproduction depends on runs
//     being bit-identical.
//   - phaseaudit: "//phase:bus|snoop|cpu|any" annotations declare which
//     cycle-loop phase owns each mutable simulator field; the analyzer
//     walks the call graph from the annotated phase roots and flags every
//     write reached from a phase that does not own it (phaseaudit.go).
//
// The gate is TestModuleIsClean, which runs both over the whole module;
// there is no command-line front end. Switch exhaustiveness is not a
// lint rule: every enum switch clause whose removal changes behaviour
// fails a test of its own package or of a golden. Allocation freedom of
// the cycle loop is not one either: the runtime pin
// machine.TestSteadyStateAllocFree runs a table of machine shapes in
// steady state and fails on any allocation. Nor are the protocol tables:
// they are data, and coherence's Table.Audit checks them where they live.
//
// Findings can be suppressed with a "//lint:ignore reason" comment on the
// offending line or the line directly above it; prefix the reason with an
// analyzer name (or comma-separated list) to scope the suppression.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string // "determinism" or "phaseaudit"
	Message  string
}

// String renders the diagnostic in go vet's file:line:col format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Config controls a Run.
type Config struct {
	// Dirs are package directories to analyze (see ExpandPatterns).
	Dirs []string
}

// Run loads every package in cfg.Dirs, applies the analyzers, and returns
// the diagnostics no //lint:ignore directive covers, sorted by position.
// The per-package analyzer (determinism) sees one package at a time; the
// whole-program analyzer (phaseaudit) sees every loaded package at once,
// because phase ownership is a cross-package property. The error is
// non-nil only for load failures (unparsable or untypeable code), not
// for findings.
func Run(cfg Config) ([]Diagnostic, error) {
	l := newLoader()
	var all []*Package
	for _, dir := range cfg.Dirs {
		pkgs, err := l.load(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", dir, err)
		}
		all = append(all, pkgs...)
	}
	var diags []Diagnostic
	for _, p := range all {
		diags = append(diags, checkDeterminism(p)...)
	}
	diags = append(diags, checkPhases(all, "")...)
	sortDiags(diags)
	return diags, nil
}

// ExpandPatterns resolves "dir/..." package patterns to the package
// directories under dir. Directories named testdata, vendored trees, and
// dot/underscore-prefixed entries below dir are skipped, mirroring the go
// tool.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		root, ok := strings.CutSuffix(pat, "/...")
		if !ok {
			return nil, fmt.Errorf("pattern %q does not end in /...", pat)
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if path = filepath.Clean(path); hasGoFiles(path) && !seen[path] {
				seen[path] = true
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}
