package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteRealTests: every Test… name README.md, DESIGN.md and
// EXPERIMENTS.md cite is a test function of some _test.go in the tree, so
// a renamed or deleted test cannot leave a doc pointing at nothing.
func TestDocsCiteRealTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\bTest[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(raw), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no _test.go in the tree defines", doc, name)
			}
		}
	}
}

// TestDocsCiteRealCommands: every `go run ./X` and `go test ./X` path
// README.md, DESIGN.md and EXPERIMENTS.md cite is a package directory in
// the tree, every `paperrepro -only a,b` id is a registered experiment
// (or the trace experiment the same line registers with -trace
// name=path), and every `make X` target, in an inline code span or on a
// fenced line that starts with make, is a target of the Makefile, so a
// deleted program, a renamed experiment or a dropped target cannot leave
// a doc pointing at nothing.
func TestDocsCiteRealCommands(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	command := regexp.MustCompile("\\bgo (?:run|test)\\b[^\n`]*")
	path := regexp.MustCompile(`(?:^|\s)(\./[\w./-]*)`)
	only := regexp.MustCompile("\\bpaperrepro\\b[^\n`]*?\\s-only[ =]([^\\s`]+)")
	trace := regexp.MustCompile(`\s-trace ([a-z0-9-]+)=`)
	id := regexp.MustCompile(`^[a-z0-9][a-z0-9.-]*$`)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w.-]+):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	fence := regexp.MustCompile("(?ms)^```.*?^```")
	span := regexp.MustCompile("`make\\s([^`]*)`")
	fencedMake := regexp.MustCompile(`(?m)^[ \t]*make[ \t]([^#\n]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var makes []string
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(raw), ""), -1) {
			makes = append(makes, m[1])
		}
		for _, block := range fence.FindAllString(string(raw), -1) {
			for _, m := range fencedMake.FindAllStringSubmatch(block, -1) {
				makes = append(makes, m[1])
			}
		}
		for _, args := range makes {
			for _, arg := range strings.Fields(args) {
				if strings.HasPrefix(arg, "-") || strings.Contains(arg, "=") {
					continue // a flag or a VAR=value
				}
				if !targets[arg] {
					t.Errorf("%s: \"make %s\" names target %s, which the Makefile does not define", doc, strings.TrimSpace(args), arg)
				}
				break
			}
		}
		for _, cmd := range command.FindAllString(string(raw), -1) {
			for _, m := range path.FindAllStringSubmatch(cmd, -1) {
				dir := strings.TrimSuffix(strings.TrimSuffix(m[1], "..."), "/")
				if gos, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gos) == 0 {
					t.Errorf("%s: %q cites %s, which is not a package directory", doc, cmd, m[1])
				}
			}
		}
		for _, m := range only.FindAllStringSubmatch(string(raw), -1) {
			for _, name := range strings.Split(m[1], ",") {
				if !id.MatchString(name) || ids[name] {
					continue // a placeholder such as ID or trace-<name>
				}
				if tr := trace.FindStringSubmatch(m[0]); tr != nil && name == "trace-"+tr[1] {
					continue
				}
				t.Errorf("%s: %q names experiment %s, which is not registered", doc, m[0], name)
			}
		}
	}
}
