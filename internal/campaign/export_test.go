package campaign

import "repro/internal/gpu"

// RunOne exposes one experiment of a plan to the allocation gate
// (TestExperimentAllocCeiling), which times experiments one at a time rather
// than through a shard.
var RunOne = (*ShardPlan).runOne

// WithDevice returns r with set applied to every device it builds, after
// whatever r already applies — how the whole-campaign differentials run a
// campaign on gpu.Device's oracles (NoXlate, LegacySched).
func WithDevice(r Runner, set func(*gpu.Device)) Runner {
	prev := r.device
	r.device = func(d *gpu.Device) {
		if prev != nil {
			prev(d)
		}
		set(d)
	}
	return r
}
