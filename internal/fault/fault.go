// Package fault is the deterministic fault-injection and resilience layer
// (DESIGN.md S23). It builds seeded fault plans — one precisely located
// perturbation per trial — and injects them through the explicit hooks the
// simulator's layers expose: the bus's Injector port (dropped, duplicated
// and snoop-suppressed transactions, frozen arbitration), the memory's
// write interceptor and Corrupt (lost writes, single-bit flips), and the
// cache's Inject* methods (spurious invalidation, stale data).
//
// Every trial runs against the machine's always-on divergence oracles —
// the read-latest consistency oracle, the watchdog, the final-memory
// verification and the final-state coherence audit — and is classified:
//
//   - masked: the run completed, every oracle passed, and the final memory
//     image is byte-identical to the fault-free reference. The fault had
//     no observable effect (it hit a dead copy, was overwritten, or was
//     absorbed by redundancy — e.g. a dirty cache line re-supplying a lost
//     memory write).
//   - detected: an oracle tripped — the consistency oracle at a read, the
//     watchdog on a wedged transaction, the final-memory check, or the
//     coherence audit — naming the divergence.
//   - silent-divergence: the run completed, every oracle passed, and the
//     final image still differs from the reference. The fault corrupted
//     state the oracles cannot see.
//
// The campaign workload is single-writer-per-address (each PE reads the
// whole shared range but writes only addresses it owns), which makes the
// fault-free final image independent of transaction interleaving — a
// purely timing-shifting fault (a delay, a retried transaction) converges
// back to the reference image and is correctly classified as masked
// rather than spuriously "divergent". A dropped bus transaction is one:
// the bus re-asserts its issuer's request line, and the issuer re-derives
// and re-issues it when next granted.
//
// Everything is seeded: same seed + same campaign spec → byte-identical
// report, across worker counts, because the fault plan, the workload, and
// the simulator are all driven by workload.RNG and the sweep engine merges
// in canonical order.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/bus"
)

// Class enumerates the injectable fault classes, one per hook point.
type Class uint8

const (
	// BusDrop suppresses one granted bus transaction: the cycle is
	// consumed but neither memory nor any snooper (nor the issuer) sees
	// the transaction. The issuer's request line stays asserted, so the
	// drop only shifts timing, and the campaign workload masks it
	// (TestBusDropIsMasked).
	BusDrop Class = iota
	// BusDup executes one granted transaction twice back to back.
	BusDup
	// BusSnoopSuppress executes one granted transaction with snooping
	// muted: no shared-line sample, no owner interrupt, no broadcast —
	// the classic "missed snoop".
	BusSnoopSuppress
	// BusArbFreeze wedges the arbiter for a bounded run of cycles: no
	// grants, request lines stay asserted.
	BusArbFreeze
	// MemBitFlip XORs one bit into one stored memory word.
	MemBitFlip
	// MemLostWrite silently swallows one bus write inside the memory.
	MemLostWrite
	// CacheSpuriousInv drops one valid cache line with no write-back.
	CacheSpuriousInv
	// CacheStale XORs one bit into one valid cache line's data.
	CacheStale
	numClasses
)

// String returns the class's kebab-case name (the campaign cell-id and
// CLI vocabulary).
func (c Class) String() string {
	switch c {
	case BusDrop:
		return "bus-drop"
	case BusDup:
		return "bus-dup"
	case BusSnoopSuppress:
		return "bus-snoop-suppress"
	case BusArbFreeze:
		return "bus-arb-freeze"
	case MemBitFlip:
		return "mem-bit-flip"
	case MemLostWrite:
		return "mem-lost-write"
	case CacheSpuriousInv:
		return "cache-spurious-inv"
	case CacheStale:
		return "cache-stale"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Classes returns every fault class in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// ParseClass resolves a kebab-case class name.
func ParseClass(name string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q (have %v)", name, Classes())
}

// Detectable reports whether the oracles guarantee the class can never be
// silent: every injected fault of the class is either masked or detected.
// The one exception is MemBitFlip — a flip on an address no bus write ever
// touched passes the consistency oracle (its pristine-value fallback reads
// the corrupted word itself) and lands outside the final-memory check's
// domain, so it can corrupt the image silently. That blind spot is
// structural (the oracles only know values the program produced) and is
// exactly what the campaign's silent-divergence column measures.
func (c Class) Detectable() bool { return c != MemBitFlip }

// DetectableClasses returns the classes for which a silent divergence is
// an oracle bug by construction — the set TestCampaignNoSilentDivergence
// asserts zero silents over.
func DetectableClasses() []Class {
	var out []Class
	for _, c := range Classes() {
		if c.Detectable() {
			out = append(out, c)
		}
	}
	return out
}

// Outcome is a trial's classification.
type Outcome uint8

const (
	// Masked: every oracle passed and the final image matches the
	// fault-free reference.
	Masked Outcome = iota
	// Detected: an oracle tripped (consistency, watchdog, final-memory,
	// or coherence audit).
	Detected
	// Silent: every oracle passed but the final image diverged.
	Silent
)

// String names the outcome as the report column header does.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Detected:
		return "detected"
	case Silent:
		return "silent"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// imagesDiff returns the lowest address at which the two final images
// disagree. Map iteration order never reaches the result: the keys of
// both images are collected and sorted first.
func imagesDiff(got, want map[bus.Addr]bus.Word) (addr bus.Addr, differs bool) {
	addrs := make([]bus.Addr, 0, len(got)+len(want))
	for a := range got {
		addrs = append(addrs, a)
	}
	for a := range want {
		if _, ok := got[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		gv, gok := got[a]
		wv, wok := want[a]
		if gok != wok || gv != wv {
			return a, true
		}
	}
	return 0, false
}
