package coherence

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateOracle regenerates testdata/oracle:
//
//	go test ./internal/coherence -run TestTransitionOracle -update
var updateOracle = flag.Bool("update", false, "rewrite testdata/oracle")

// TestTransitionOracle pins every outcome of every protocol hook — all
// states × events × streaks 0…255 × dirty, both RMW hooks, LocalRMW,
// eviction and the class filter — as a SHA-256 over the full enumeration
// plus a short readable dump with equal streak ranges folded. The files
// were recorded from the hand-written switch implementations that the
// tables replaced; it uses only Kinds, New, NewRWB and the Protocol
// methods, so the same file compiles against both.
func TestTransitionOracle(t *testing.T) {
	type subject struct {
		label string
		p     Protocol
	}
	var subjects []subject
	for _, k := range Kinds() {
		subjects = append(subjects, subject{k.String(), New(k)})
	}
	for _, k := range []uint8{3, 4, 7} {
		subjects = append(subjects, subject{fmt.Sprintf("rwb-k%d", k), NewRWB(k)})
	}
	for _, sub := range subjects {
		t.Run(sub.label, func(t *testing.T) {
			got := oracleDump(sub.label, sub.p)
			path := filepath.Join("testdata", "oracle", sub.label+".txt")
			if *updateOracle {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing oracle (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("transitions drifted from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

func dirtyWord(d DirtyEffect) string {
	return [...]string{"keep", "dirty", "clean"}[d]
}

// oracleDump renders one protocol: the digest of the unfolded enumeration
// first, then the folded dump.
func oracleDump(label string, p Protocol) string {
	full := sha256.New()
	probes := 0
	var dump strings.Builder

	// fold writes one dump line per maximal streak range over which the
	// outcome is the same up to the streak rule: next streak a constant,
	// the old streak, or the old streak plus one. rest renders everything
	// but the streak; nextAux returns it.
	fold := func(head string, rest func(aux uint8) string, nextAux func(aux uint8) uint8) string {
		var b strings.Builder
		for lo := 0; lo < 256; {
			best, bestRule := lo, ""
			for _, rule := range []string{"const", "aux", "aux+1"} {
				hi := lo
				for ; hi < 256; hi++ {
					if rest(uint8(hi)) != rest(uint8(lo)) {
						break
					}
					n := nextAux(uint8(hi))
					ok := map[string]bool{
						"const": n == nextAux(uint8(lo)),
						"aux":   n == uint8(hi),
						"aux+1": n == uint8(hi)+1,
					}[rule]
					if !ok {
						break
					}
				}
				if hi > best {
					best, bestRule = hi, rule
				}
			}
			streak := bestRule
			if bestRule == "const" {
				streak = fmt.Sprint(nextAux(uint8(lo)))
			}
			span := fmt.Sprintf("aux=%d..%d", lo, best-1)
			switch {
			case lo == 0 && best == 256:
				span = "aux=*"
			case best-1 == lo:
				span = fmt.Sprintf("aux=%d", lo)
			}
			fmt.Fprintf(&b, "  %s %s -> %s aux'=%s\n", head, span, rest(uint8(lo)), streak)
			lo = best
		}
		return b.String()
	}

	states := p.States()
	letters := make([]string, len(states))
	for i, s := range states {
		letters[i] = s.Letter()
	}
	for _, s := range states {
		for _, e := range []ProcEvent{EvRead, EvWrite} {
			rest := func(aux uint8) string {
				out := p.OnProc(s, aux, e)
				r := fmt.Sprintf("%s [%s] %s", out.Next.Letter(), out.Action, dirtyWord(out.Dirty))
				if out.NoAllocate {
					r += " noalloc"
				}
				return r
			}
			nextAux := func(aux uint8) uint8 { return p.OnProc(s, aux, e).NextAux }
			for aux := 0; aux < 256; aux++ {
				fmt.Fprintf(full, "P %s %d %s %s %d\n", s.Letter(), aux, e, rest(uint8(aux)), nextAux(uint8(aux)))
				probes++
			}
			dump.WriteString(fold(fmt.Sprintf("%-2s --%s-->", s.Letter(), e), rest, nextAux))
		}
	}
	for _, s := range states {
		for _, ev := range []SnoopEvent{SnBusRead, SnBusWrite, SnBusInv, SnReadData} {
			var folded [2]string
			for i, dirty := range []bool{false, true} {
				rest := func(aux uint8) string {
					out := p.OnSnoop(s, aux, dirty, ev)
					r := fmt.Sprintf("%s %s", out.Next.Letter(), dirtyWord(out.Dirty))
					if out.Inhibit {
						r += " inhibit"
					}
					if out.TakeData {
						r += " take"
					}
					return r
				}
				nextAux := func(aux uint8) uint8 { return p.OnSnoop(s, aux, dirty, ev).NextAux }
				for aux := 0; aux < 256; aux++ {
					fmt.Fprintf(full, "S %s %d %v %s %s %d\n", s.Letter(), aux, dirty, ev, rest(uint8(aux)), nextAux(uint8(aux)))
					probes++
				}
				folded[i] = fold(fmt.Sprintf("%-2s ..%s..> dirty=%%v", s.Letter(), ev), rest, nextAux)
			}
			// Equal reactions for both dirty values fold into one line.
			if folded[0] == folded[1] {
				dump.WriteString(strings.ReplaceAll(folded[0], "%v", "*"))
			} else {
				dump.WriteString(strings.ReplaceAll(folded[0], "%v", "false") + strings.ReplaceAll(folded[1], "%v", "true"))
			}
		}
	}
	for _, s := range states {
		rest := func(aux uint8) string {
			next, _, bcast := p.RMWSuccess(s, aux)
			return fmt.Sprintf("%s broadcast %s", next.Letter(), bcast)
		}
		nextAux := func(aux uint8) uint8 { _, n, _ := p.RMWSuccess(s, aux); return n }
		for aux := 0; aux < 256; aux++ {
			fmt.Fprintf(full, "T %s %d %s %d\n", s.Letter(), aux, rest(uint8(aux)), nextAux(uint8(aux)))
			probes++
		}
		dump.WriteString(fold(fmt.Sprintf("%-2s RMWSuccess", s.Letter()), rest, nextAux))
	}
	for _, s := range states {
		for _, dirty := range []bool{false, true} {
			flush, next, d := p.RMWFlush(s, dirty)
			line := fmt.Sprintf("  %-2s dirty=%v RMWFlush -> flush=%v %s %s, WritebackOnEvict=%v\n",
				s.Letter(), dirty, flush, next.Letter(), dirtyWord(d), p.WritebackOnEvict(s, dirty))
			full.Write([]byte(line))
			dump.WriteString(line)
			probes += 2
		}
		line := fmt.Sprintf("  %-2s LocalRMW=%v\n", s.Letter(), p.LocalRMW(s))
		full.Write([]byte(line))
		dump.WriteString(line)
		probes++
	}
	for _, c := range []Class{ClassUnknown, ClassCode, ClassLocal, ClassShared} {
		line := fmt.Sprintf("  Cachable(%v) CR=%v CW=%v\n", c, p.Cachable(c, EvRead), p.Cachable(c, EvWrite))
		full.Write([]byte(line))
		dump.WriteString(line)
		probes += 2
	}
	return fmt.Sprintf("oracle %s: protocol %s, states %s\nsha256 %x over %d probes\n%s",
		label, p.Name(), strings.Join(letters, " "), full.Sum(nil), probes, dump.String())
}
