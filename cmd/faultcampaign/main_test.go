package main

import (
	"bytes"
	"os"
	"testing"
)

// TestCampaignGolden: testdata/rb-rwb.golden is the parent's stdout for
// `-protocols rb,rwb -trials 2 -refs 120 -seeds 1`, recorded before this
// command had a test. Its cache-spurious-inv and cache-stale rows perturb
// cache lines, so it also pins the cache's frame layout to the bytes the
// campaign reports. The report must not depend on the worker count.
func TestCampaignGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/rb-rwb.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []string{"1", "2"} {
		var out, errb bytes.Buffer
		code := run([]string{"-protocols", "rb,rwb", "-trials", "2", "-refs", "120", "-seeds", "1", "-j", j}, &out, &errb)
		if code != 0 || errb.Len() != 0 {
			t.Fatalf("-j %s: exit %d, stderr %q", j, code, errb.String())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-j %s: report differs from the golden:\n--- got\n%s--- want\n%s", j, out.Bytes(), want)
		}
	}
}

// TestUsageErrors: a bad flag or list is exit 2 or 1 with a line on
// stderr, and no report.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-seeds", "x"}, 1},
		{[]string{"-protocols", "mesi"}, 1},
		{[]string{"-format", "bogus"}, 1},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.code || out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("%q: exit %d (want %d), stdout %q, stderr %q", c.args, code, c.code, out.String(), errb.String())
		}
	}
}
