package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestStreamIdentityGolden pins the first 5 M ops of unbounded PDE and
// qsort Apps (pe 3, seed 7) as a SHA-256 of each op's (addr, data, kind,
// class). Every stack outgrows stackReserve and fills its 8 192-word
// segment inside the prefix, so this is the check that growing on demand
// is not state (the 200 000-cycle fingerprints never pass 4 096 entries);
// the hash must also match after Reseed on the grown App. The hashes were
// recorded when every stack reserved MaxDepth+2 entries up front, and
// re-recorded when a draw past a full segment began to reference the
// deepest entry instead of a duplicate; the first 400 000 ops of both
// streams hash alike before and after that change. It runs without the
// race detector, like the alloc pins (check.sh stage 5).
func TestStreamIdentityGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("10 M references take 13 s under the race detector; run without -race")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		profile AppProfile
		want    string
	}{
		{PDEProfile(), "f417f9fb2912491d81f6dbaa90fea75b4d68319271f412590f901c971dd37b28"},
		{QuicksortProfile(), "7a35d14006e72b68722f947ce70c5d4ce25ad372e20d3f75639d5d52c7490de3"},
	} {
		app := MustApp(tc.profile, DefaultLayout(), 3, 7, 0)
		for _, pass := range []string{"fresh", "reseeded"} {
			if pass == "reseeded" {
				app.Reseed(7)
			}
			if got := streamHash(app, 5_000_000); got != tc.want {
				t.Errorf("%s %s: stream hash %s, want %s", tc.profile.Name, pass, got, tc.want)
			}
		}
		if c, l := cap(app.code.stack), cap(app.local.stack); c <= stackReserve || l <= stackReserve {
			t.Errorf("%s: stack capacities %d/%d never grew past stackReserve; the test checks nothing", tc.profile.Name, c, l)
		}
	}
}

// streamHash hashes the next n ops of app, 10 bytes each.
func streamHash(app *App, n int) string {
	h := sha256.New()
	var buf [10]byte
	for range n {
		op := app.Next(Result{})
		binary.LittleEndian.PutUint32(buf[0:], uint32(op.Addr))
		binary.LittleEndian.PutUint32(buf[4:], uint32(op.Data))
		buf[8], buf[9] = byte(op.Kind), byte(op.Class)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
