package check

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/coherence"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// subject is one protocol of the census.
type subject struct {
	name  string
	proto coherence.Protocol
}

// registered lists the transparent registered kinds, the premise of the
// one-address product machine (Cm* filters by class).
func registered() []subject {
	var out []subject
	for _, k := range coherence.Kinds() {
		t := coherence.New(k)
		transparent := true
		for _, u := range t.Uncached {
			transparent = transparent && u == t.Uncached[0]
		}
		if transparent {
			out = append(out, subject{t.Name(), t})
		}
	}
	return out
}

// subjects adds the footnote-6 RWB thresholds.
func subjects() []subject {
	out := registered()
	for _, k := range []uint8{3, 4, 7} {
		out = append(out, subject{fmt.Sprintf("rwb(k=%d)", k), coherence.NewRWB(k)})
	}
	return out
}

// census explores with run and renders what it reached as one golden line:
// the state count, the transition count, and a sha256 over the sorted %+v
// renderings of every reachable Snapshot, so Aux, Dirty and HasLatest of
// every line are in the digest. inner, when non-nil, is checked at every
// state as Options.Invariant would be.
func census(run func(Options) (Result, error), inner func(Snapshot) error) (string, error) {
	var seen []string
	res, err := run(Options{Invariant: func(s Snapshot) error {
		seen = append(seen, fmt.Sprintf("%+v", s))
		if inner != nil {
			return inner(s)
		}
		return nil
	}})
	if err != nil {
		return "", err
	}
	if len(seen) != res.States {
		return "", fmt.Errorf("Invariant saw %d states, Result counts %d", len(seen), res.States)
	}
	sort.Strings(seen)
	return fmt.Sprintf("states=%d transitions=%d sha256=%x",
		res.States, res.Transitions, sha256.Sum256([]byte(strings.Join(seen, "\n")))), nil
}

// censusAll runs the census over subs at n = 2…5.
func censusAll(t *testing.T, subs []subject, line func(s subject, n int) (string, error)) string {
	t.Helper()
	var b strings.Builder
	for _, s := range subs {
		for n := 2; n <= 5; n++ {
			l, err := line(s, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.name, n, err)
			}
			fmt.Fprintf(&b, "%s n=%d %s\n", s.name, n, l)
		}
	}
	return b.String()
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestReachableGolden pins the reachable product states themselves, not
// only their number. testdata/reachable.golden was written by the table
// interpreter Run used to carry (its own busRead/busWrite/busInv over
// has-latest bits) at the commit before Run drove the simulator; the
// machine must reproduce it byte for byte.
func TestReachableGolden(t *testing.T) {
	t.Parallel() // the censuses share nothing: every exploration builds its own machine
	got := censusAll(t, subjects(), func(s subject, n int) (string, error) {
		return census(func(o Options) (Result, error) {
			o.Caches = n
			return Run(s.proto, o)
		}, nil)
	})
	compareGolden(t, "testdata/reachable.golden", got)
}
