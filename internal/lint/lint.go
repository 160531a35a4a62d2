// Package lint is protolint's engine: a static-analysis pass over this
// module built entirely on the standard library (go/parser, go/ast,
// go/types, go/importer — no golang.org/x/tools). It complements the
// dynamic verification layers (internal/check's product-machine
// exploration, the race detector) with three analyzer families:
//
//   - exhaustive: every switch over a module-defined enum type (a named
//     integer or string type with declared constants, e.g.
//     coherence.State) must either cover all declared constants or carry
//     an explicit default clause, so adding a protocol state or event
//     kind cannot silently fall through.
//   - determinism: map iteration whose order can reach simulator state,
//     stats output, or trace emission is flagged, as are time.Now,
//     wall-clock timers, and math/rand in simulation packages — every
//     BENCH comparison and Figure 6-x reproduction depends on runs being
//     bit-identical.
//   - phaseaudit: "//phase:bus|snoop|cpu|any" annotations declare which
//     cycle-loop phase owns each mutable simulator field; the analyzer
//     walks the call graph from the annotated phase roots and flags every
//     write reached from a phase that does not own it (phaseaudit.go).
//
// Allocation freedom of the cycle loop is not a lint rule: the runtime
// pin machine.TestSteadyStateAllocFree runs a table of machine shapes in
// steady state and fails on any allocation. Nor are the protocol tables:
// they are data, and coherence's Table.Audit checks them where they live.
//
// Findings can be suppressed with a "//lint:ignore reason" comment on the
// offending line or the line directly above it; prefix the reason with an
// analyzer name (or comma-separated list) to scope the suppression.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. Suppressed findings are only present when
// Config.IncludeSuppressed is set.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string // "exhaustive", "determinism" or "phaseaudit"
	Message    string
	Suppressed bool // covered by a //lint:ignore directive
}

// String renders the diagnostic in go vet's file:line:col format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Config controls a Run.
type Config struct {
	// Dirs are package directories to analyze (see ExpandPatterns).
	Dirs []string
	// IncludeSuppressed keeps findings covered by //lint:ignore
	// directives in the result, marked with Suppressed=true, instead of
	// dropping them. The -format=json CLI output uses this so CI tooling
	// can see waivers.
	IncludeSuppressed bool
}

// Run loads every package in cfg.Dirs, applies the analyzers, and returns
// all diagnostics sorted by position. The per-package analyzers
// (exhaustive, determinism) see one package at a time; the whole-program
// analyzer (phaseaudit) sees every loaded package at once, because phase
// ownership is a cross-package property. The error is non-nil only for
// load failures (unparsable or untypeable code), not for findings.
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
		p.includeSuppressed = cfg.IncludeSuppressed
		diags = append(diags, checkExhaustive(p)...)
		diags = append(diags, checkDeterminism(p)...)
	}
	diags = append(diags, checkPhases(all, "")...)
	sortDiags(diags)
	return diags, nil
}

// Unsuppressed counts the findings not covered by an ignore directive —
// the number that decides protolint's exit code.
func Unsuppressed(diags []Diagnostic) int {
	n := 0
	for _, d := range diags {
		if !d.Suppressed {
			n++
		}
	}
	return n
}

// jsonDiag is the machine-readable rendering of one finding, one JSON
// object per line (JSON Lines, so CI tooling can stream-parse).
type jsonDiag struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// WriteJSON renders diagnostics as JSON Lines.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		jd := jsonDiag{
			Analyzer:   d.Analyzer,
			File:       filepath.ToSlash(d.Pos.Filename),
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		}
		if err := enc.Encode(jd); err != nil {
			return err
		}
	}
	return nil
}

// ExpandPatterns resolves command-line package patterns to directories.
// "./..." (or "dir/...") walks recursively; other arguments name single
// package directories. Directories named testdata, vendored trees, and
// dot/underscore-prefixed entries are skipped, mirroring the go tool.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			root, recursive = ".", true
		}
		if root == "" {
			root = "."
		}
		if !recursive {
			if !hasGoFiles(root) {
				return nil, fmt.Errorf("no Go files in %s", root)
			}
			add(root)
			continue
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
			if hasGoFiles(path) {
				add(path)
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
