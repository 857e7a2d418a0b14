package progcheck

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a progcheck diagnostic. The ordering groups the hard
// kinds — structural malformations that make a program unrunnable or
// undefined — before the advisory kinds, which flag suspicious but
// executable constructs.
type Kind uint8

// Diagnostic kinds.
const (
	// KindUndecodable: a reachable text word does not decode as an
	// instruction of the SPARC subset.
	KindUndecodable Kind = iota
	// KindBranchOutOfText: a direct control transfer targets an address
	// outside the text section.
	KindBranchOutOfText
	// KindFallOffEnd: a reachable straight-line path runs past the end of
	// the text section.
	KindFallOffEnd
	// KindUnreachable: a basic block is unreachable from the entry point
	// and every indirect-branch root (all-nop padding blocks are exempt).
	KindUnreachable
	// KindUninitRead: a register or condition code is read before being
	// written on every path from the entry point.
	KindUninitRead
	// KindWindowDepth: SAVE nesting can reach the register-window count,
	// silently wrapping the window file (unbounded recursion, or a call
	// chain deeper than NWin-1).
	KindWindowDepth
	// KindWindowUnderflow: a RESTORE can execute at window depth zero,
	// wrapping below the entry window.
	KindWindowUnderflow
	// KindMemRange: a memory access with a statically-constant effective
	// address falls outside every program section and the stack.
	KindMemRange

	numKinds
)

var kindNames = [numKinds]string{
	KindUndecodable:     "undecodable",
	KindBranchOutOfText: "branch-out-of-text",
	KindFallOffEnd:      "fall-off-end",
	KindUnreachable:     "unreachable",
	KindUninitRead:      "uninit-read",
	KindWindowDepth:     "window-depth",
	KindWindowUnderflow: "window-underflow",
	KindMemRange:        "mem-range",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Hard reports whether the kind denotes a structural malformation.
// Certification (CertifyProgram, the gate of the oracle sweep) refuses a
// program carrying an unwaived hard diagnostic; a progcheck:allow comment
// that covers a hard finding lets the program pass, as it does for an
// advisory one. Advisory kinds never fail certification: they are
// warnings a human fixes or waives.
func (k Kind) Hard() bool { return k <= KindFallOffEnd }

// KindByName resolves a diagnostic kind from its report name.
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// Kinds lists every diagnostic kind in report order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Diagnostic is one progcheck finding against an assembled program.
type Diagnostic struct {
	Kind Kind
	Addr uint32 // instruction or block address the finding anchors to
	Line int    // 1-based source line (0 if the address maps to none)
	Msg  string
	// Waived is set when a progcheck:allow comment covers the finding's
	// source line. Waived diagnostics stay in the report (the golden file
	// records them) but do not fail certification.
	Waived bool
}

func (d *Diagnostic) String() string {
	w := ""
	if d.Waived {
		w = " (waived)"
	}
	return fmt.Sprintf("%#06x line %d: %s: %s%s", d.Addr, d.Line, d.Kind, d.Msg, w)
}

// AllowDirective is the waiver comment progcheck honours inside assembly
// sources. A comment containing "progcheck:allow k1,k2" waives findings
// of the listed kinds on the comment's own line and the line below it
// (mirroring internal/analysis's determinism:allow); with no kind list it
// waives every kind on those lines.
const AllowDirective = "progcheck:allow"

// waivers maps source line -> set of waived kinds (nil value = all kinds).
type waivers map[int]map[Kind]bool

// parseWaivers scans the assembly source for AllowDirective comments.
// The assembler's comment characters are '!', ';' and '#'; the directive
// is recognised anywhere after one of them.
func parseWaivers(source string) waivers {
	w := make(waivers)
	for i, line := range strings.Split(source, "\n") {
		ci := strings.IndexAny(line, "!;#")
		if ci < 0 {
			continue
		}
		comment := line[ci+1:]
		di := strings.Index(comment, AllowDirective)
		if di < 0 {
			continue
		}
		rest := strings.TrimSpace(comment[di+len(AllowDirective):])
		var kinds map[Kind]bool
		if rest != "" {
			// The first whitespace-separated token is the kind list, but
			// only if every comma-separated part names a known kind;
			// otherwise the whole rest is justification text and the
			// waiver covers all kinds. (A misspelt kind must not silently
			// waive nothing.)
			token := strings.Fields(rest)[0]
			parsed := make(map[Kind]bool)
			valid := true
			for _, name := range strings.Split(token, ",") {
				k, ok := KindByName(strings.TrimSpace(name))
				if !ok {
					valid = false
					break
				}
				parsed[k] = true
			}
			if valid {
				kinds = parsed
			}
		}
		for _, ln := range []int{i + 1, i + 2} { // own line and the line below
			if kinds == nil {
				w[ln] = nil
				continue
			}
			if cur, seen := w[ln]; seen && cur == nil {
				continue // an all-kind waiver already covers this line
			}
			if w[ln] == nil {
				w[ln] = make(map[Kind]bool)
			}
			for k := range kinds {
				w[ln][k] = true
			}
		}
	}
	return w
}

// covers reports whether a waiver on line covers kind.
func (w waivers) covers(line int, k Kind) bool {
	kinds, ok := w[line]
	if !ok {
		return false
	}
	return kinds == nil || kinds[k]
}

// sortDiags orders diagnostics by address, then kind, then message, so
// reports are byte-identical across runs.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Addr != ds[j].Addr {
			return ds[i].Addr < ds[j].Addr
		}
		if ds[i].Kind != ds[j].Kind {
			return ds[i].Kind < ds[j].Kind
		}
		return ds[i].Msg < ds[j].Msg
	})
}
