//go:build race

// Package race reports whether the binary was built with the race detector,
// for the allocation gates: under -race sync.Pool drops a quarter of its Puts
// at random (so pooled block contexts and warps are re-allocated now and
// then), and the detector's own bookkeeping allocates, so a test that asserts
// an exact allocation count still runs its body there — the detector sees the
// launch path — but asserts the count only in an ordinary build.
package race

// Enabled is true in a -race build.
const Enabled = true
