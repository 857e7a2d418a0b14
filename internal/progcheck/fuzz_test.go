package progcheck

import (
	"testing"

	"dtsvliw/internal/progen"
)

// FuzzProgcheck drives the whole analyzer with generated programs across
// every shape: analysis must never panic, must be deterministic,
// generated programs must certify hard-kind clean (the oracle sweep
// relies on exactly this property), and CertifyProgram must return the
// verdict of certifying from every pass (analyzeVerdict).
func FuzzProgcheck(f *testing.F) {
	for _, shape := range progen.Shapes() {
		f.Add(int64(1), uint8(shape), 40)
		f.Add(int64(99), uint8(shape), 8)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, items int) {
		if items < 1 || items > 120 {
			items = 1 + int(uint(items)%120)
		}
		p := progen.DefaultParams(seed)
		p.Items = items
		p.Shape = progen.Shape(shape % 4)
		src := progen.Generate(p)

		r1, err := Check(src, Options{})
		if err != nil {
			t.Fatalf("generated program does not assemble: %v\n%s", err, src)
		}
		if hard := r1.Unwaived(true); len(hard) != 0 {
			t.Fatalf("generated program has %d hard diagnostics:\n%s", len(hard), r1.Report("fuzz"))
		}
		prog := r1.CFG.Prog
		if got, want := errText(CertifyProgram(prog, src)), errText(analyzeVerdict(prog, src)); got != want {
			t.Fatalf("CertifyProgram = %q, want %q\n%s", got, want, src)
		}
		r2, err := Check(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Report("fuzz") != r2.Report("fuzz") {
			t.Fatal("analysis is not deterministic for the same source")
		}
		// The bound must exist and respect the trivial floor for every
		// geometry the experiments sweep.
		for _, g := range [][2]int{{4, 4}, {8, 8}, {16, 16}} {
			b := ComputeBound(r1.CFG, BoundParams{Width: g[0], Height: g[1]})
			if !(b.IPC >= 1.0) {
				t.Fatalf("bound %v at %dx%d is below the sequential floor", b.IPC, g[0], g[1])
			}
		}
	})
}
