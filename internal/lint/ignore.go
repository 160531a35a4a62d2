package lint

import (
	"go/token"
	"strings"
)

// ignoreDirective is the comment prefix that suppresses a finding:
//
//	//lint:ignore reason for suppressing
//	//lint:ignore phaseaudit reason for suppressing
//	//lint:ignore phaseaudit,determinism reason for suppressing
//
// placed either on the flagged line itself (trailing comment) or on the
// line directly above it. If the first word is a known analyzer name (or a
// comma-separated list of them), the suppression is scoped to exactly those
// analyzers — an ignored phaseaudit finding does not hide a determinism
// finding on the same line. Otherwise the whole first word is part of the
// reason and the directive suppresses every analyzer (the original
// behavior). A reason is required; a bare "//lint:ignore" — or a scoped
// directive with no reason after the analyzer list — suppresses nothing.
const ignoreDirective = "lint:ignore"

// knownAnalyzers is the set of analyzer names a scoped ignore directive can
// name. Adding an analyzer here is part of adding the analyzer.
var knownAnalyzers = map[string]bool{
	"determinism": true,
	"phaseaudit":  true,
}

// ignoreScope records which analyzers one source line's directives
// suppress.
type ignoreScope struct {
	all       bool
	analyzers map[string]bool
}

func (s *ignoreScope) covers(analyzer string) bool {
	return s != nil && (s.all || s.analyzers[analyzer])
}

// parseIgnoreScope splits a directive's payload into its analyzer scope.
// It returns nil for an inert directive (no reason).
func parseIgnoreScope(rest string) *ignoreScope {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	names := strings.Split(fields[0], ",")
	scoped := true
	for _, n := range names {
		if !knownAnalyzers[n] {
			scoped = false
			break
		}
	}
	if !scoped {
		// The first word is part of the reason; suppress everything.
		return &ignoreScope{all: true}
	}
	if len(fields) == 1 {
		return nil // scoped directive with no reason: inert
	}
	sc := &ignoreScope{analyzers: map[string]bool{}}
	for _, n := range names {
		sc.analyzers[n] = true
	}
	return sc
}

// collectIgnores scans every file's comments for ignore directives and
// records the suppressed lines.
func (p *Package) collectIgnores() {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignoreDirective)
				if !ok {
					continue
				}
				sc := parseIgnoreScope(rest)
				if sc == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.ignores[pos.Filename]
				if lines == nil {
					lines = map[int]*ignoreScope{}
					p.ignores[pos.Filename] = lines
				}
				// The directive covers its own line (trailing comment)
				// and the next line (comment above the flagged code).
				lines[pos.Line] = mergeScopes(lines[pos.Line], sc)
				lines[pos.Line+1] = mergeScopes(lines[pos.Line+1], sc)
			}
		}
	}
}

// mergeScopes unions two directives that cover the same line.
func mergeScopes(a, b *ignoreScope) *ignoreScope {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &ignoreScope{all: a.all || b.all, analyzers: map[string]bool{}}
	for n := range a.analyzers {
		out.analyzers[n] = true
	}
	for n := range b.analyzers {
		out.analyzers[n] = true
	}
	return out
}

// suppressed reports whether a finding by the given analyzer anchored at
// pos is covered by an ignore directive.
func (p *Package) suppressed(pos token.Pos, analyzer string) bool {
	position := p.Fset.Position(pos)
	return p.ignores[position.Filename][position.Line].covers(analyzer)
}

// diag appends a Diagnostic anchored at pos, unless an ignore directive
// covers it.
func (p *Package) diag(diags []Diagnostic, pos token.Pos, analyzer, msg string) []Diagnostic {
	if p.suppressed(pos, analyzer) {
		return diags
	}
	return append(diags, Diagnostic{Pos: p.Fset.Position(pos), Analyzer: analyzer, Message: msg})
}
