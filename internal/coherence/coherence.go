// Package coherence holds the paper's cache consistency schemes as data:
// one Table per scheme — the RB scheme of Section 3 (Figure 3-1), the RWB
// scheme of Section 5 (Figure 5-1), and the comparison baselines: Goodman's
// write-once protocol [GOO83], Illinois, a write-through-invalidate
// protocol, the Cm*-style cache used for Table 1-1 (code and local data
// cachable, write-through local data, shared data uncached), and a no-cache
// configuration — and one interpreter (table.go) that answers the Protocol
// method set from any of them.
//
// A Protocol is deliberately side-effect free: it maps (state, event) to an
// outcome and never touches a cache. The same tables therefore drive the
// cycle-level simulator (internal/cache, internal/machine), the transition
// diagram renderings of Figures 3-1 and 5-1 (internal/experiments) and the
// table audit (Table.Audit, audit.go); the exhaustive product-machine
// consistency checker (internal/check) that mechanizes the Section 4 proof
// reads no table itself, it drives that simulator.
package coherence

import (
	"fmt"
	"sort"
)

// State is the tag attached to a cache address line. Each protocol uses a
// subset. The paper's states are Invalid (I), Readable (R), Local (L) and —
// for RWB — FirstWrite (F); the Goodman baseline uses Valid, Reserved and
// DirtyState.
type State uint8

const (
	// Invalid: "the data in the cache is assumed to be incorrect and thus
	// any reference to it will cause a corresponding bus action."
	Invalid State = iota
	// Readable: "the data in the cache is valid and consistent with main
	// memory, and can be read immediately from the cache."
	Readable
	// Local: "the data can be read or written locally causing no bus
	// activity." At most one cache holds a line in Local (the lemma of
	// Section 4); it holds the latest value and interrupts bus reads.
	Local
	// FirstWrite is the RWB scheme's intermediate state F: this cache
	// performed the most recent write, which was broadcast, so every other
	// interested cache is Readable with the same value.
	FirstWrite
	// NotPresent models an address whose line is absent from the cache
	// (the NP extension in the Section 4 product machine). The cache
	// layer, not the protocols, normally deals with allocation; NP appears
	// in protocol tables only through the model checker.
	NotPresent
	// Valid is the Goodman/write-through "clean, possibly shared" state.
	Valid
	// Reserved is Goodman's written-once state: memory is current and no
	// other cache holds a copy.
	Reserved
	// DirtyState is Goodman's written-many state: memory is stale and this
	// cache owns the only copy.
	DirtyState
	numStates
)

// Letter returns the single-letter tag used in the paper's figures.
func (s State) Letter() string {
	switch s {
	case Invalid:
		return "I"
	case Readable:
		return "R"
	case Local:
		return "L"
	case FirstWrite:
		return "F"
	case NotPresent:
		return "NP"
	case Valid:
		return "V"
	case Reserved:
		return "Rv"
	case DirtyState:
		return "D"
	}
	return fmt.Sprintf("S%d", uint8(s))
}

// String returns the descriptive name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "Invalid"
	case Readable:
		return "Readable"
	case Local:
		return "Local"
	case FirstWrite:
		return "FirstWrite"
	case NotPresent:
		return "NotPresent"
	case Valid:
		return "Valid"
	case Reserved:
		return "Reserved"
	case DirtyState:
		return "Dirty"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ProcEvent is a processor-side access offered to the cache.
type ProcEvent uint8

const (
	// EvRead is a CPU read request (CR in the figures).
	EvRead ProcEvent = iota
	// EvWrite is a CPU write request (CW in the figures).
	EvWrite
)

func (e ProcEvent) String() string {
	if e == EvRead {
		return "CR"
	}
	return "CW"
}

// Class is the reference's data class. The paper's schemes are transparent
// and never consult it; only the Cm*-style baseline (whose emulation could
// not cache shared data, Table 1-1) and the workload statistics use it.
type Class uint8

const (
	ClassUnknown Class = iota
	ClassCode          // instruction fetch / read-only shared
	ClassLocal         // private data
	ClassShared        // read/write shared data
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassCode:
		return "code"
	case ClassLocal:
		return "local"
	case ClassShared:
		return "shared"
	default:
		return "unknown"
	}
}

// Action is the bus activity a transition requires.
type Action uint8

const (
	// ActNone: the access is satisfied entirely within the cache.
	ActNone Action = iota
	// ActRead: generate a bus read (modifier 3 in the figures).
	ActRead
	// ActWrite: generate a bus write, i.e. write through (modifier 1).
	ActWrite
	// ActInv: generate the RWB bus invalidate signal (modifier 4).
	ActInv
	// ActReadThenWrite: fetch the line with a bus read, then write it
	// through — Goodman's write-miss sequence.
	ActReadThenWrite
)

func (a Action) String() string {
	switch a {
	case ActNone:
		return "-"
	case ActRead:
		return "BR"
	case ActWrite:
		return "BW"
	case ActInv:
		return "BI"
	case ActReadThenWrite:
		return "BR+BW"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// DirtyEffect describes how a transition changes the line's dirty bit.
// Dirtiness matters only for the Local/Dirty states: a line becomes dirty
// exactly when it is written without bus activity, and the dirty bit gates
// the flush on a snooped locked (RMW) read.
type DirtyEffect uint8

const (
	DirtyKeep DirtyEffect = iota
	DirtySet
	DirtyClear
)

// ProcOutcome is the protocol's answer to a CPU access.
type ProcOutcome struct {
	Next    State  // state after the access (and its bus action) completes
	NextAux uint8  // protocol-private per-line counter (RWB write streak)
	Action  Action // required bus activity
	Dirty   DirtyEffect
	// NoAllocate marks a bus access whose result must not be cached: the
	// Cm*-style baseline's shared references and all no-cache traffic.
	NoAllocate bool
}

// SnoopEvent is a bus transaction observed by a non-issuing cache.
type SnoopEvent uint8

const (
	// SnBusRead: another cache issued a bus read for this address; the
	// outcome's Inhibit decides whether this cache kills and services it.
	SnBusRead SnoopEvent = iota
	// SnBusWrite: another cache performed a bus write (including the flush
	// writes that replace interrupted reads); the data is on the bus.
	SnBusWrite
	// SnBusInv: the RWB invalidate signal.
	SnBusInv
	// SnReadData: the data answering a bus read is on the bus — the
	// broadcast that the RB scheme exploits.
	SnReadData
)

func (e SnoopEvent) String() string {
	switch e {
	case SnBusRead:
		return "BR"
	case SnBusWrite:
		return "BW"
	case SnBusInv:
		return "BI"
	case SnReadData:
		return "BRdata"
	}
	return fmt.Sprintf("SnoopEvent(%d)", uint8(e))
}

// SnoopOutcome is the protocol's reaction to an observed transaction.
type SnoopOutcome struct {
	Next    State
	NextAux uint8
	// Inhibit (SnBusRead only): interrupt the read and supply the cached
	// value; the bus converts the slot into a write-through of that value
	// (modifier 2 in the figures).
	Inhibit bool
	// TakeData (SnBusWrite/SnReadData): adopt the broadcast value into the
	// cache line.
	TakeData bool
	Dirty    DirtyEffect
}

// Protocol is what the cache asks of a scheme. *Table
// answers it, and documents each rule where the table states it; the
// interface remains so that a test can wrap a table and break one answer,
// and for the RB shim. Implementations must be pure: identical arguments
// yield identical outcomes, with no retained state (per-line counters
// travel through aux).
type Protocol interface {
	// Name returns the scheme's short name ("rb", "rwb", ...).
	Name() string
	// States returns the states the scheme uses, in presentation order.
	States() []State
	// OnProc maps a CPU access against a line in (s, aux) to an outcome.
	OnProc(s State, aux uint8, e ProcEvent) ProcOutcome
	// OnSnoop maps an observed bus transaction against a line in
	// (s, aux, dirty) to a reaction. It is never invoked for transactions
	// the line's own cache issued.
	OnSnoop(s State, aux uint8, dirty bool, ev SnoopEvent) SnoopOutcome
	// RMWFlush decides whether a line must flush its value so a locked
	// (Test-and-Set) read observes the latest value, and the line's state
	// afterwards (Owner.Flush).
	RMWFlush(s State, dirty bool) (flush bool, next State, d DirtyEffect)
	// RMWSuccess maps the issuer's line state across a successful
	// Test-and-Set; broadcast is the transaction's write-part op as seen
	// by the other caches (ActWrite or ActInv).
	RMWSuccess(s State, aux uint8) (next State, nextAux uint8, broadcast Action)
	// LocalRMW reports whether a Test-and-Set may complete entirely within
	// a cache holding the line in state s (Table.Arcs).
	LocalRMW(s State) bool
	// Cachable reports whether references of the given class may be
	// cached (Table.Uncached).
	Cachable(c Class, e ProcEvent) bool
	// WritebackOnEvict reports whether a line in state s (with the given
	// dirty bit) must be written back to memory when its frame is reused
	// (Owner.Evict).
	WritebackOnEvict(s State, dirty bool) bool
	// ReadMissTarget is the state a line still Invalid when its fetch
	// completes is installed in, given the bus's shared line: the
	// Invalid --CR--> target, or Table.QuietReadMiss.
	ReadMissTarget(sharedLine bool) State
}

// Kind identifies a protocol implementation.
type Kind uint8

const (
	// KindRB is the paper's RB (read-broadcast) scheme, Section 3.
	KindRB Kind = iota
	// KindRWB is the paper's RWB (read-write-broadcast) scheme, Section 5.
	KindRWB
	// KindGoodman is Goodman's write-once scheme [GOO83], the design the
	// paper extends ("event broadcasting" only).
	KindGoodman
	// KindWriteThrough is a write-through-invalidate baseline.
	KindWriteThrough
	// KindCmStar emulates the Cm* measurement setup of Table 1-1.
	KindCmStar
	// KindNoCache sends every reference to the bus.
	KindNoCache
	// KindIllinois is the Illinois/MESI-style protocol (Papamarcos &
	// Patel, ISCA 1984) with a clean-exclusive state.
	KindIllinois
	// KindRBDirty is RB with a dirty bit consulted at eviction.
	KindRBDirty
	numKinds
)

// registry is the one ordered list of schemes: Kinds, Kind.String, New and
// ByName all read it, so a kind's name is its table's name. A variant is
// its base table with the stated differences as arguments.
var registry = [numKinds]*Table{
	KindRB:           rb,
	KindRWB:          NewRWB(2),
	KindGoodman:      goodmanTable("goodman", Invalid),
	KindWriteThrough: writeThroughTable("writethrough", [numClasses]bool{}, Invalid, Valid),
	KindCmStar:       writeThroughTable("cmstar", [numClasses]bool{ClassUnknown: true, ClassShared: true}, Valid, Invalid),
	KindNoCache:      noCache,
	KindIllinois:     goodmanTable("illinois", Reserved),
	KindRBDirty:      rbTable("rb-dirty", IfDirty),
}

// Kinds returns all protocol kinds in presentation order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

func (k Kind) String() string {
	if k < numKinds {
		return registry[k].Scheme
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// New returns the table of the given kind with default parameters (RWB
// uses the paper's k=2 write threshold). Tables are shared and read-only.
func New(k Kind) *Table { return registry[k] }

// ByName resolves a table by its name. It returns an error listing the
// valid names on failure.
func ByName(name string) (*Table, error) {
	names := make([]string, 0, len(registry))
	for _, t := range registry {
		if t.Scheme == name {
			return t, nil
		}
		names = append(names, t.Scheme)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("coherence: unknown protocol %q (valid: %v)", name, names)
}
