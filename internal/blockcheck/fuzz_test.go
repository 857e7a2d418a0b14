package blockcheck_test

import (
	"errors"
	"testing"

	"dtsvliw/internal/core"
	"dtsvliw/internal/oracle"
	"dtsvliw/internal/progen"
)

// FuzzBlockVerify is the fuzz form of the clean-verification property:
// for any generated program, machine configuration and seed, every block
// the real scheduler saves must pass static legality verification. The
// machine enforces this itself under VerifyBlocks, so the property holds
// iff the run never fails with a BlockVerifyError.
func FuzzBlockVerify(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0))
	f.Add(int64(42), int64(1), int64(2))
	f.Add(int64(7), int64(2), int64(3))
	f.Add(int64(1234), int64(3), int64(4))
	f.Add(int64(99), int64(2), int64(1))
	f.Add(int64(314), int64(4), int64(5))
	f.Add(int64(2718), int64(1), int64(6))
	f.Fuzz(func(t *testing.T, seed, shapeIdx, cfgIdx int64) {
		shapes := progen.Shapes()
		shape := shapes[int(uint64(shapeIdx)%uint64(len(shapes)))]
		configs := verifyConfigs()
		cfg := configs[int(uint64(cfgIdx)%uint64(len(configs)))].Cfg

		src := progen.Generate(progen.ShapeParams(shape, seed))
		st, err := oracle.BuildState(src, cfg.NWin)
		if err != nil {
			t.Fatalf("progen emitted an unassemblable program: %v", err)
		}
		cfg.VerifyBlocks = true
		cfg.MaxInstrs = 20_000
		cfg.MaxCycles = 1 << 30
		m, err := core.NewMachine(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			var ve *core.BlockVerifyError
			if errors.As(err, &ve) {
				t.Fatalf("seed=%d shape=%s: scheduler produced an illegal block:\n%s",
					seed, shape, ve.Report)
			}
			t.Fatalf("seed=%d shape=%s: machine fault: %v", seed, shape, err)
		}
	})
}
