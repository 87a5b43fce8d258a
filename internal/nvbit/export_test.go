package nvbit

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sass"
)

// CorruptionSites exposes the shared Corruption site facts' lookup.
func CorruptionSites(k *sass.Kernel, cats uint32, ops *sass.OpSet) *gpu.CorruptionSites {
	return corruptionSites(k, sitesKey{cats: cats, ops: *ops})
}

// ShotSites exposes the shared Shot site facts' lookup.
func ShotSites(k *sass.Kernel, ops *sass.OpSet, pc int, pre bool) *gpu.CorruptionSites {
	return corruptionSites(k, sitesKey{ops: *ops, shot: true, pc: pc, pre: pre})
}

// BuildFor returns the attachment's instrumented build of f for key, nil
// before the tool has built one.
func (a *Attachment) BuildFor(f *cuda.Function, key string) *gpu.ExecKernel {
	s, _ := a.slot(f)
	if s == nil {
		return nil
	}
	return a.build(s, key)
}
