// Package batch is what remains of the machine-recycling arenas: the
// sweep engine builds fresh machines for every job, and machine.New is
// the only way to one.
//
// Deprecated: the package stays only because the frozen benchmark/
// module names it; ROADMAP direction 1 deletes it.
package batch

// Arena recycles nothing.
//
// Deprecated: see the package comment.
type Arena struct{}

// Reuses returns 0: no machine is ever recycled.
func (a *Arena) Reuses() int { return 0 }

// Trials returns 0: an arena hands out no machines.
func (a *Arena) Trials() int { return 0 }
