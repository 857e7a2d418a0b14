package progcheck

import (
	"fmt"
	"strings"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

// analyzeVerdict is the reference certification: every pass, then an
// error listing the unwaived hard diagnostics of the full report.
// CertifyProgram must return the same verdict and text.
func analyzeVerdict(p *asm.Program, source string) error {
	hard := Analyze(p, source, Options{}).Unwaived(true)
	if len(hard) == 0 {
		return nil
	}
	msgs := make([]string, len(hard))
	for i := range hard {
		msgs[i] = hard[i].String()
	}
	return fmt.Errorf("progcheck: %d hard diagnostic(s):\n%s",
		len(hard), strings.Join(msgs, "\n"))
}

// errText renders a verdict for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// certSeeds is the number of progen seeds per shape in certCorpus.
const certSeeds = 64

// certCase is one program of the certification corpus. refused records
// whether the hand-written sources must fail certification, so the
// corpus keeps its hard findings; generated programs and workloads
// certify clean.
type certCase struct {
	name    string
	src     string
	refused bool
}

// handCases hold every hard kind, one program with three hard findings
// (which pins the order of the refusal's lines), and hard findings
// under a kind-specific, a bare and a wrong-kind waiver.
var handCases = []certCase{
	{name: "undecodable", refused: true, src: `
start:
	.word 0xffffffff
	ta 0
`},
	{name: "branch-out-of-text", refused: true, src: `
start:
	b 0x9000
	nop
`},
	{name: "fall-off-end", refused: true, src: `
start:
	mov 1, %o0
	add %o0, 1, %o0
`},
	{name: "three-hard", refused: true, src: `
start:
	subcc %g0, 1, %g1
	be 0x9000
	nop
	bne skip
	nop
	.word 0xffffffff
skip:
	mov 1, %o0
	add %o0, 1, %o0
`},
	{name: "three-hard-one-waived", refused: true, src: `
start:
	subcc %g0, 1, %g1
	be 0x9000 ! progcheck:allow branch-out-of-text seeded
	nop
	bne skip
	nop
	.word 0xffffffff
skip:
	mov 1, %o0
	add %o0, 1, %o0
`},
	{name: "kind-waiver", src: `
start:
	mov 1, %o0
	add %o0, 1, %o0 ! progcheck:allow fall-off-end seeded
`},
	{name: "bare-waiver", src: `
start:
	! progcheck:allow seeded: a bare directive waives every kind
	b 0x9000
	nop
`},
	{name: "wrong-kind-waiver", refused: true, src: `
start:
	mov 1, %o0 ! progcheck:allow uninit-read wrong kind on purpose
	add %o0, 1, %o0
`},
}

// certCorpus is every progen shape at certSeeds seeds, the eight
// workloads and handCases.
func certCorpus() []certCase {
	var cs []certCase
	for _, shape := range progen.Shapes() {
		for seed := int64(0); seed < certSeeds; seed++ {
			cs = append(cs, certCase{name: fmt.Sprintf("%s/%d", shape, seed),
				src: progen.Generate(progen.ShapeParams(shape, seed))})
		}
	}
	for _, w := range workloads.All() {
		cs = append(cs, certCase{name: w.Name, src: w.Source})
	}
	return append(cs, handCases...)
}

// TestCertifyMatchesAnalyze pins the certification contract:
// CertifyProgram, which runs only the structural pass, returns the same
// verdict and text as certifying from every pass.
func TestCertifyMatchesAnalyze(t *testing.T) {
	for _, tc := range certCorpus() {
		p, err := asm.Assemble(tc.src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", tc.name, err)
		}
		want := errText(analyzeVerdict(p, tc.src))
		if (want != "") != tc.refused {
			t.Fatalf("%s: reference verdict %q, want refused=%v", tc.name, want, tc.refused)
		}
		if got := errText(CertifyProgram(p, tc.src)); got != want {
			t.Errorf("%s: CertifyProgram = %q, want %q", tc.name, got, want)
		}
	}
}

// TestAdvisoryPassesEmitNoHardKind: the passes certification skips emit
// only advisory kinds, at every register-window count, so skipping them
// cannot drop a hard finding.
func TestAdvisoryPassesEmitNoHardKind(t *testing.T) {
	for _, tc := range certCorpus() {
		p, err := asm.Assemble(tc.src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", tc.name, err)
		}
		c := BuildCFG(p)
		ds := append(c.uninitReads(), c.memRange()...)
		for nwin := 2; nwin <= 32; nwin++ {
			ds = append(ds, c.windowDepth(nwin)...)
		}
		for i := range ds {
			if ds[i].Kind.Hard() {
				t.Errorf("%s: advisory pass emitted %s", tc.name, ds[i].String())
			}
		}
	}
}

// TestCertifyAllocBound pins the allocations of certifying one generated
// program per shape at their measured counts. Allocation counts carry no
// timing noise, so a regression fails here rather than hiding in
// benchmark spread. Certifying the mixed program costs 20 allocations,
// 8 of them formatting its two unreachable blocks' advisory diagnostics,
// and 23 under the race detector, which allocates more per formatted
// diagnostic.
func TestCertifyAllocBound(t *testing.T) {
	bounds := map[progen.Shape]float64{
		progen.ShapeMixed:      23,
		progen.ShapeBranchy:    12,
		progen.ShapeAliasing:   12,
		progen.ShapeMulticycle: 12,
	}
	for _, shape := range progen.Shapes() {
		src := progen.Generate(progen.ShapeParams(shape, 1))
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := CertifyProgram(p, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bounds[shape] {
			t.Errorf("%s: CertifyProgram allocates %.0f times per program, bound %.0f", shape, allocs, bounds[shape])
		}
	}
}

// BenchmarkCertifyProgram certifies 200 assembled progen programs per
// iteration, the shapes in turn; ns/op and allocs/op are per 200
// programs.
func BenchmarkCertifyProgram(b *testing.B) {
	shapes := progen.Shapes()
	progs := make([]*asm.Program, 200)
	srcs := make([]string, len(progs))
	for i := range progs {
		srcs[i] = progen.Generate(progen.ShapeParams(shapes[i%len(shapes)], int64(i)))
		p, err := asm.Assemble(srcs[i])
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, p := range progs {
			if err := CertifyProgram(p, srcs[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
