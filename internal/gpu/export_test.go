package gpu

import "repro/internal/sass"

// TierCensus translates k and counts its instructions by the tier compileStep
// gave them — for the external tests, which can reach the shipped programs
// (internal/specaccel imports this package).
func TierCensus(k *sass.Kernel) (fast, accessor, thunk int, err error) {
	plan, err := translate(k)
	if err != nil {
		return 0, 0, 0, err
	}
	for i := range plan.steps {
		switch plan.steps[i].tier {
		case tierFast:
			fast++
		case tierAccessor:
			accessor++
		default:
			thunk++
		}
	}
	return fast, accessor, thunk, nil
}
