package lint

import "testing"

func TestDeterminismFixture(t *testing.T) {
	// The fixture seeds seventeen violations — a chaos plan seeded from
	// the wall clock, two math/rand imports (the original fixture file
	// and the random shard pick), a map
	// range that prints, one that appends without sorting, one that
	// returns an iteration element, a time.Now call, a map range that
	// journals through json.Encoder, one that emits report rows, a
	// dense-store snapshot whose sparse-overflow keys escape unsorted,
	// a fault plan seeded from the wall clock, a request id minted
	// from the wall clock, a request id hashed straight from a map walk
	// (hash.Hash.Write), a slice filled by a running position counter,
	// a slice sorted before the loop that fills it, a sweep-job body
	// bounded by a time.After deadline, and a miss-ratio curve
	// serialized straight out of a histogram map — while the
	// seed-derived chaos plan, collect-then-sort, any-match,
	// commutative-fold, map-fill, sorted-journal, ignore-waived,
	// sorted-snapshot, seeded fault-plan, content-hash request-id,
	// counter-then-sort, store-by-key, sorted-set hash, cycle-budget
	// job, array-ordered curve emission, sorted-histogram curve and
	// rendezvous shard-pick forms stay silent. Diagnostics arrive sorted
	// by position, i.e. source order (chaosplan.go, determinism.go,
	// hashed.go, jobs.go, mrccurve.go, shardpick.go).
	expectDiags(t, runOn(t, "testdata/determinism"), [][2]string{
		{"determinism", "wall-clock input"},
		{"determinism", "import of math/rand"},
		{"determinism", "reaches output through fmt.Println"},
		{"determinism", `reaches slice "keys" via append without a subsequent sort`},
		{"determinism", "selects the returned value"},
		{"determinism", "wall-clock input"},
		{"determinism", "reaches output through json.Encoder.Encode"},
		{"determinism", "reaches output through report.Table.AddRowf"},
		{"determinism", `reaches slice "addrs" via append without a subsequent sort`},
		{"determinism", "wall-clock input"},
		{"determinism", "wall-clock input"},
		{"determinism", "reaches output through hash.Hash.Write"},
		{"determinism", `reaches slice "out" by position without a subsequent sort`},
		{"determinism", `reaches slice "out" via append without a subsequent sort`},
		{"determinism", "time.After: wall-clock input"},
		{"determinism", `reaches slice "points" via append without a subsequent sort`},
		{"determinism", "import of math/rand"},
	})
}
