package gpu

import "repro/internal/sass"

// TierCounts is a kernel's instructions by the tier compileStep gave them.
// RowOps are the fast-tier instructions encoded as row ops (the rest of Fast
// are the FP64 pair closures), Dispatchable those of them runRows executes.
type TierCounts struct {
	Fast, Accessor, Thunk int
	RowOps, Dispatchable  int
}

// TierCensus translates k and counts its instructions by tier — for the
// external tests, which can reach the shipped programs (internal/specaccel
// imports this package).
func TierCensus(k *sass.Kernel) (c TierCounts, err error) {
	plan, err := translate(k)
	if err != nil {
		return c, err
	}
	for i := range plan.steps {
		switch plan.steps[i].tier {
		case tierFast:
			c.Fast++
		case tierAccessor:
			c.Accessor++
		default:
			c.Thunk++
		}
		if op := &plan.ops[i]; op.shape != rsNone {
			c.RowOps++
			if op.dispatchable() {
				c.Dispatchable++
			}
		}
	}
	return c, nil
}
