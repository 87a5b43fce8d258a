package nvbit

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
)

// CorruptionSites exposes the shared Corruption site facts' lookup.
var CorruptionSites = corruptionSites

// BuildFor returns the attachment's instrumented build of f for key, nil
// before the tool has built one.
func (a *Attachment) BuildFor(f *cuda.Function, key string) *gpu.ExecKernel {
	s, _ := a.slot(f)
	if s == nil {
		return nil
	}
	return a.build(s, key)
}
