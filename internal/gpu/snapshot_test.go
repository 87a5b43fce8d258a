package gpu

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/sass"
)

// reduceLaunch builds a gridreduce launch (divergent control flow, shared
// memory, barriers — the states a snapshot must capture exactly) with its
// input initialized to a fixed pattern.
func reduceLaunch(t *testing.T, d *Device, blocks int) (*Launch, uint32, int) {
	t.Helper()
	k := mustKernel(t, gridReduceSrc, "gridreduce")
	n := 256 * blocks
	in := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in[4*i:], uint32(i*7+3))
	}
	inp := mustAllocWrite(t, d, 4*n, in)
	outp := mustAllocWrite(t, d, 4*blocks, nil)
	l := &Launch{
		Kernel: &ExecKernel{K: k},
		Grid:   Dim3{X: blocks, Y: 1, Z: 1},
		Block:  Dim3{X: 256, Y: 1, Z: 1},
		Params: []uint32{inp, outp},
	}
	return l, outp, 4 * blocks
}

func readOut(t *testing.T, d *Device, outp uint32, n int) []byte {
	t.Helper()
	b, err := d.Mem.ReadBytes(outp, n)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	return b
}

// TestLaunchRunMatchesRun: BeginRun + a single Resume(-1) on the translated
// engine is Device.Run on the per-step reference loop (NoXlate). Device.Run
// is itself BeginRun + Resume(-1), so the reference is the other loop.
func TestLaunchRunMatchesRun(t *testing.T) {
	ref := newTestDevice(t)
	ref.NoXlate = true
	l, outp, outLen := reduceLaunch(t, ref, 3)
	refStats, refErr := ref.Run(l)
	if refErr != nil {
		t.Fatalf("Run: %v", refErr)
	}
	refOut := readOut(t, ref, outp, outLen)

	d := newTestDevice(t)
	l2, outp2, _ := reduceLaunch(t, d, 3)
	r, err := d.BeginRun(l2)
	if err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	paused, err := r.Resume(-1)
	if err != nil || paused {
		t.Fatalf("Resume(-1) = (%v, %v), want finished", paused, err)
	}
	if r.Stats() != refStats {
		t.Fatalf("stats: %+v vs Run's %+v", r.Stats(), refStats)
	}
	if got := readOut(t, d, outp2, outLen); !bytes.Equal(got, refOut) {
		t.Fatal("output differs from Device.Run")
	}
	if ref.Digest() != d.Digest() {
		t.Fatal("final device digests differ")
	}
}

// TestPauseResumeEquivalence: pausing after every single warp instruction
// and resuming must be invisible — identical stats, output, and digest to
// the uninterrupted run, with exactly Stats.WarpInstrs pauses.
func TestPauseResumeEquivalence(t *testing.T) {
	ref := newTestDevice(t)
	l, outp, outLen := reduceLaunch(t, ref, 2)
	refStats, refErr := ref.Run(l)
	if refErr != nil {
		t.Fatalf("Run: %v", refErr)
	}
	refOut := readOut(t, ref, outp, outLen)

	d := newTestDevice(t)
	l2, outp2, _ := reduceLaunch(t, d, 2)
	r, err := d.BeginRun(l2)
	if err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	pauses := uint64(0)
	for {
		paused, err := r.Resume(1)
		if err != nil {
			t.Fatalf("Resume after %d pauses: %v", pauses, err)
		}
		if !paused {
			break
		}
		pauses++
	}
	if pauses != refStats.WarpInstrs {
		t.Fatalf("paused %d times, want one per warp instruction (%d)", pauses, refStats.WarpInstrs)
	}
	if r.Stats() != refStats {
		t.Fatalf("stats: %+v vs %+v", r.Stats(), refStats)
	}
	if got := readOut(t, d, outp2, outLen); !bytes.Equal(got, refOut) {
		t.Fatal("output differs from uninterrupted run")
	}
	if ref.Digest() != d.Digest() {
		t.Fatal("final device digests differ")
	}
}

// TestSnapshotRestoreBitIdentical is the core checkpoint soundness test:
// snapshots taken at many mid-launch boundaries — including mid-divergence
// and at-barrier positions of a reducing kernel — each restore onto a fresh
// device and run to a completion bit-identical to the original.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	const stride = 97
	d := newTestDevice(t)
	l, outp, outLen := reduceLaunch(t, d, 2)
	r, err := d.BeginRun(l)
	if err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	type ckpt struct {
		snap   *Snapshot
		digest uint64
	}
	var ckpts []ckpt
	for {
		paused, err := r.Resume(stride)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		if !paused {
			break
		}
		s, err := r.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		ckpts = append(ckpts, ckpt{snap: s, digest: r.Digest()})
	}
	refStats := r.Stats()
	refOut := readOut(t, d, outp, outLen)
	refDigest := d.Digest()
	if len(ckpts) < 10 {
		t.Fatalf("only %d checkpoints; kernel too short for the test to bite", len(ckpts))
	}

	for i, c := range ckpts {
		fork := newTestDevice(t)
		fr, err := fork.Restore(c.snap)
		if err != nil {
			t.Fatalf("ckpt %d: Restore: %v", i, err)
		}
		if fr == nil {
			t.Fatalf("ckpt %d: mid-launch snapshot restored with no run", i)
		}
		if got := fr.Digest(); got != c.digest {
			t.Fatalf("ckpt %d: restored digest %x, snapshotted at %x", i, got, c.digest)
		}
		paused, err := fr.Resume(-1)
		if err != nil || paused {
			t.Fatalf("ckpt %d: Resume(-1) = (%v, %v)", i, paused, err)
		}
		if fr.Stats() != refStats {
			t.Fatalf("ckpt %d: stats %+v, want %+v", i, fr.Stats(), refStats)
		}
		if got := readOut(t, fork, outp, outLen); !bytes.Equal(got, refOut) {
			t.Fatalf("ckpt %d: output differs after restore", i)
		}
		if got := fork.Digest(); got != refDigest {
			t.Fatalf("ckpt %d: final digest %x, want %x", i, got, refDigest)
		}
	}
}

// TestSnapshotCOWIsolation: a snapshot's memory view is frozen at snapshot
// time; writes on the live device and on each restored fork stay private.
func TestSnapshotCOWIsolation(t *testing.T) {
	d := newTestDevice(t)
	pattern := bytes.Repeat([]byte{0xa5, 0x5a, 0x01, 0xfe}, 4096)
	p := mustAllocWrite(t, d, len(pattern), pattern)
	snap := d.Snapshot()

	// Scribble over the live device after the snapshot.
	if err := d.Mem.WriteBytes(p, bytes.Repeat([]byte{0xff}, len(pattern))); err != nil {
		t.Fatal(err)
	}

	forks := make([]*Device, 2)
	for i := range forks {
		f := newTestDevice(t)
		if _, err := f.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		forks[i] = f
	}
	// Each fork writes its own marker into the shared page range.
	for i, f := range forks {
		if tk := f.Mem.Store(p+8, 4, uint64(0x1000+i)); tk != 0 {
			t.Fatalf("fork %d store trapped: %v", i, tk)
		}
	}
	for i, f := range forks {
		b, err := f.Mem.ReadBytes(p, len(pattern))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(b[8:]); got != uint32(0x1000+i) {
			t.Fatalf("fork %d reads %#x at its marker, want %#x", i, got, 0x1000+i)
		}
		rest := append(append([]byte(nil), b[:8]...), b[12:]...)
		want := append(append([]byte(nil), pattern[:8]...), pattern[12:]...)
		if !bytes.Equal(rest, want) {
			t.Fatalf("fork %d sees corruption outside its own write", i)
		}
	}
	// A fork restored after all that still sees the pristine snapshot.
	late := newTestDevice(t)
	if _, err := late.Restore(snap); err != nil {
		t.Fatal(err)
	}
	b, err := late.Mem.ReadBytes(p, len(pattern))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, pattern) {
		t.Fatal("late fork does not see the snapshot-time contents")
	}
}

// TestConcurrentRestoreRace: many goroutines fork one mid-launch snapshot
// and run to completion concurrently; the copy-on-write pages must never
// leak writes across forks (run with -race).
func TestConcurrentRestoreRace(t *testing.T) {
	d := newTestDevice(t)
	l, outp, outLen := reduceLaunch(t, d, 2)
	r, err := d.BeginRun(l)
	if err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	if paused, err := r.Resume(500); err != nil || !paused {
		t.Fatalf("Resume(500) = (%v, %v), want paused", paused, err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if paused, err := r.Resume(-1); err != nil || paused {
		t.Fatalf("finish: (%v, %v)", paused, err)
	}
	refOut := readOut(t, d, outp, outLen)
	refDigest := d.Digest()

	const forks = 8
	var wg sync.WaitGroup
	errs := make([]error, forks)
	outs := make([][]byte, forks)
	digests := make([]uint64, forks)
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := NewDevice(d.Family, d.NumSMs)
			if err != nil {
				errs[i] = err
				return
			}
			fr, err := f.Restore(snap)
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := fr.Resume(-1); err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = f.Mem.ReadBytes(outp, outLen)
			digests[i] = f.Digest()
		}(i)
	}
	wg.Wait()
	for i := 0; i < forks; i++ {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], refOut) {
			t.Fatalf("fork %d output differs", i)
		}
		if digests[i] != refDigest {
			t.Fatalf("fork %d digest %x, want %x", i, digests[i], refDigest)
		}
	}
}

// TestSnapshotRestoreMidDivergence: snapshots of a kernel whose warps are
// split across three PCs almost every cycle must restore bit-identically —
// and restore onto *either* scheduler, because a snapshot carries only the
// per-lane PC vector, never the warp-split cache. Every checkpoint is
// restored twice, once per scheduler mode, and both forks must reach the
// reference completion.
func TestSnapshotRestoreMidDivergence(t *testing.T) {
	divLaunch := func(t *testing.T, d *Device, blocks int) (*Launch, uint32, int) {
		t.Helper()
		k := mustKernel(t, divergentSrc, "div")
		const threads = 128
		outp := mustAllocWrite(t, d, 4*blocks*threads, nil)
		return &Launch{
			Kernel: &ExecKernel{K: k},
			Grid:   Dim3{X: blocks, Y: 1, Z: 1},
			Block:  Dim3{X: threads, Y: 1, Z: 1},
			Params: []uint32{outp},
		}, outp, 4 * blocks * threads
	}

	ref := newTestDevice(t)
	l, outp, outLen := divLaunch(t, ref, 2)
	refStats, err := ref.Run(l)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	refOut := readOut(t, ref, outp, outLen)
	refDigest := ref.Digest()

	d := newTestDevice(t)
	l2, _, _ := divLaunch(t, d, 2)
	r, err := d.BeginRun(l2)
	if err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	type ckpt struct {
		snap   *Snapshot
		digest uint64
	}
	var ckpts []ckpt
	for {
		paused, err := r.Resume(997)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		if !paused {
			break
		}
		s, err := r.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		ckpts = append(ckpts, ckpt{snap: s, digest: r.Digest()})
	}
	if len(ckpts) < 10 {
		t.Fatalf("only %d checkpoints; kernel too short for the test to bite", len(ckpts))
	}

	for i, c := range ckpts {
		for _, legacy := range []bool{false, true} {
			fork := newTestDevice(t)
			fork.LegacySched = legacy
			fr, err := fork.Restore(c.snap)
			if err != nil {
				t.Fatalf("ckpt %d legacy=%v: Restore: %v", i, legacy, err)
			}
			if got := fr.Digest(); got != c.digest {
				t.Fatalf("ckpt %d legacy=%v: restored digest %x, snapshotted at %x", i, legacy, got, c.digest)
			}
			paused, err := fr.Resume(-1)
			if err != nil || paused {
				t.Fatalf("ckpt %d legacy=%v: Resume(-1) = (%v, %v)", i, legacy, paused, err)
			}
			if fr.Stats() != refStats {
				t.Fatalf("ckpt %d legacy=%v: stats %+v, want %+v", i, legacy, fr.Stats(), refStats)
			}
			if got := readOut(t, fork, outp, outLen); !bytes.Equal(got, refOut) {
				t.Fatalf("ckpt %d legacy=%v: output differs after restore", i, legacy)
			}
			if got := fork.Digest(); got != refDigest {
				t.Fatalf("ckpt %d legacy=%v: final digest %x, want %x", i, legacy, got, refDigest)
			}
		}
	}
}

// TestDigestCanonicalization: a never-written page digests like an
// explicitly zeroed one, and any one-bit difference in reachable state
// changes the digest.
func TestDigestCanonicalization(t *testing.T) {
	a := newTestDevice(t)
	b := newTestDevice(t)
	pa, _ := a.Mem.Alloc(8192)
	pb, _ := b.Mem.Alloc(8192)
	if pa != pb {
		t.Fatalf("bump allocator divergence: %#x vs %#x", pa, pb)
	}
	// b materializes its pages with zeros; a leaves them untouched.
	if err := b.Mem.WriteBytes(pb, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("zero-filled page digests differently from never-written page")
	}
	if tk := b.Mem.Store(pb+4096, 4, 1); tk != 0 {
		t.Fatalf("store trapped: %v", tk)
	}
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to a one-word memory difference")
	}
}

// TestRestoreRejectsMismatchedDevice: restoring onto a device with a
// different SM count must fail — SM clocks and block->SM mapping would
// silently diverge otherwise.
func TestRestoreRejectsMismatchedDevice(t *testing.T) {
	d := newTestDevice(t)
	snap := d.Snapshot()
	other, err := NewDevice(d.Family, d.NumSMs+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Restore(snap); err == nil {
		t.Fatal("restore onto a mismatched device succeeded")
	}
}

// TestDigesterZeros: hashing a run of zero bytes as one multiply is
// bit-identical to hashing them one at a time.
func TestDigesterZeros(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 7, 255, 256, 4 * 233, 1 << 15} {
		a, b := newDigester(), newDigester()
		a.u32(0xfeedface)
		b.u32(0xfeedface)
		for i := 0; i < n; i++ {
			a.byte(0)
		}
		b.zeros(n)
		if a.h != b.h {
			t.Fatalf("zeros(%d) = %#x, byte-by-byte %#x", n, b.h, a.h)
		}
	}
}

// TestDigestDirtyBound: the digest skips the register rows above dirtyRegs
// on the invariant that they are zero. Widening every warp's bound to the
// whole file (a full walk) must not change the digest of a paused run — with
// an instrumentation write above the kernel's static bound in play.
func TestDigestDirtyBound(t *testing.T) {
	d := newTestDevice(t)
	k := mustKernel(t, clockMixSrc, "clockmix")
	const n = 2 * 64
	outp := mustAllocWrite(t, d, 4*n, nil)
	ek := &ExecKernel{K: k, After: make([][]Callback, len(k.Instrs))}
	ek.After[0] = []Callback{func(c *InstrCtx) { c.WriteReg(3, 200, 0xabcdef) }}
	r, err := d.BeginRun(&Launch{
		Kernel: ek,
		Grid:   Dim3{X: 2, Y: 1, Z: 1},
		Block:  Dim3{X: 64, Y: 1, Z: 1},
		Params: []uint32{outp},
	})
	if err != nil {
		t.Fatal(err)
	}
	if paused, err := r.Resume(40); err != nil || !paused {
		t.Fatalf("Resume: paused=%v err=%v", paused, err)
	}
	bounded := r.Digest()
	for _, w := range r.blk.warps {
		if w.dirtyRegs <= 200 && w.regs[200][3] != 0 {
			t.Fatalf("warp %d holds a write to R200 above its dirty bound %d", w.id, w.dirtyRegs)
		}
		w.dirtyRegs = sass.NumRegs
	}
	if full := r.Digest(); full != bounded {
		t.Fatalf("digest with the dirty bound %#x, full walk %#x", bounded, full)
	}
}
