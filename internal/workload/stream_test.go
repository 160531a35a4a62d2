package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestStreamIdentityGolden pins the first 5 M ops of unbounded PDE and
// qsort Apps (pe 3, seed 7) as a SHA-256 of each op's (addr, data, kind,
// class), recorded when every stack reserved MaxDepth+2 entries up front.
// Every stack outgrows stackReserve inside the prefix, so this is the
// check that growing on demand is not state (the 200 000-cycle
// fingerprints never pass 4 096 entries); the hash must also match after
// Reseed on the grown App. It runs without the race detector, like the
// alloc pins (check.sh stage 5).
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
		{PDEProfile(), "cb37ad76154c33d7624f394b28450c983bba7806a6ef30da025071133b9a4886"},
		{QuicksortProfile(), "866407ca5f78d73d705fd4302cebae4814a3725708b2edd03b2aa7ebc32b495d"},
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
