package optsched

import "dtsvliw/internal/sched"

// Strategy is the optimal repacker as a Scheduler Unit strategy: the
// machine schedules every block with the default FCFS placement and
// repacks it at flush time, so the VLIW Engine executes — and the
// differential oracle and blockcheck validate — the optimal schedules
// end-to-end.
type Strategy struct {
	// Budget bounds the search per block, as Repack's budget does.
	Budget int
}

func (Strategy) WantFlushBefore(*sched.Scheduler) bool { return false }

func (st Strategy) FinishBlock(u *sched.Scheduler, b *sched.Block) {
	res := Repack(b, u.Config(), st.Budget)
	u.NoteRepack(b, res.OrigLIs, res.Proven, res.Nodes)
}
