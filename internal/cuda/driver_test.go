package cuda_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
)

// The driver table: every driver call, on every kind of context, in every
// context state, against one fixed host workload. The workload issues
//
//	call 0  Malloc(128)            buf
//	call 1  Malloc(64)             spare
//	call 2  MemcpyHtoD(buf, 128)
//	call 3  Launch(iter, buf)      Launch(crash) when the state is poisoned
//	call 4  the call under test (no entry if refused before the journal)
//	call 5  Launch(iter, buf)
//	call 6  Launch(iter, buf)
//
// and a replaying context replays the recording of its healthy version. A
// short-circuiting replay restores inside call 5, so the journal answers the
// call under test; a live replay runs everything. Both probe digests from
// call 6 on with a fault that has always fired, so a replay exits early
// exactly when nothing marked it mismatched.

type driverMode uint8

const (
	modePlain driverMode = iota
	modeRecording
	modeShortCircuit // replay, before the restore call
	modeLive         // replay, nothing restored
)

func (m driverMode) String() string {
	return [...]string{"plain", "recording", "short-circuit", "live"}[m]
}

type driverState uint8

const (
	stateHealthy  driverState = iota
	statePoisoned             // an earlier launch trapped: the sticky error is set
	stateFailing              // the call itself is bad (a bad pointer, size or grid)
)

func (s driverState) String() string { return [...]string{"healthy", "poisoned", "failing"}[s] }

// badPtr lies in no allocation.
const badPtr cuda.DevPtr = 0x7ff00000

// driverOp is the call under test.
type driverOp struct {
	name string
	// do issues the call on h in state s and returns what it returned: a
	// DevPtr or a byte slice (nil when the call has no value).
	do func(h *driverHost, s driverState) (any, error)
}

var driverOps = []driverOp{
	{"Malloc", func(h *driverHost, s driverState) (any, error) {
		size := 64
		if s == stateFailing {
			size = -1
		}
		return h.ctx.Malloc(size)
	}},
	{"Free", func(h *driverHost, s driverState) (any, error) {
		p := h.spare
		if s == stateFailing {
			p = badPtr
		}
		return nil, h.ctx.Free(p)
	}},
	{"MemcpyHtoD", func(h *driverHost, s driverState) (any, error) {
		p := h.buf
		if s == stateFailing {
			p = badPtr
		}
		return nil, h.ctx.MemcpyHtoD(p, []byte{1, 2, 3, 4})
	}},
	{"MemcpyDtoH", func(h *driverHost, s driverState) (any, error) {
		p := h.buf
		if s == stateFailing {
			p = badPtr
		}
		return h.ctx.MemcpyDtoH(p, 8)
	}},
	{"Launch", func(h *driverHost, s driverState) (any, error) {
		cfg := cfg1()
		if s == stateFailing {
			cfg.Grid.X = 0 // the device refuses an empty grid
		}
		return nil, h.ctx.Launch(h.iter, cfg, h.buf)
	}},
	// LaunchParams passes no parameter word to a kernel that takes one; its
	// healthy state is already a failing call.
	{"LaunchParams", func(h *driverHost, s driverState) (any, error) {
		return nil, h.ctx.Launch(h.iter, cfg1())
	}},
}

// driverHost is the workload's host state.
type driverHost struct {
	ctx         *cuda.Context
	iter, crash *cuda.Function
	buf, spare  cuda.DevPtr
	events      *eventLog
}

// eventLog records subscriber callbacks as "begin:fn", "end:fn",
// "end:fn:trap" and "end:fn:skipped".
type eventLog struct{ events []string }

func (*eventLog) OnModuleLoad(*cuda.Module) {}
func (l *eventLog) OnLaunchBegin(ev *cuda.LaunchEvent) {
	l.events = append(l.events, "begin:"+ev.Function.Name())
}
func (l *eventLog) OnLaunchEnd(ev *cuda.LaunchEvent) {
	e := "end:" + ev.Function.Name()
	switch {
	case ev.Skipped:
		e += ":skipped"
	case ev.Trap != nil:
		e += ":trap"
	}
	l.events = append(l.events, e)
}

// driverResult is what one run of the workload observed of its call under
// test, and of the context afterwards.
type driverResult struct {
	value     any
	err       error
	events    string // the subscriber events the call under test produced
	earlyExit bool
	replayErr error
	recordErr error
}

// runDriverWorkload runs the workload with op in state s on ctx, which the
// caller has put in its mode. Calls other than the one under test may fail
// (on a poisoned or diverged context); the workload carries on like an
// unchecked host program.
func runDriverWorkload(t *testing.T, ctx *cuda.Context, op driverOp, s driverState) driverResult {
	t.Helper()
	h := &driverHost{ctx: ctx, events: &eventLog{}}
	defer ctx.Subscribe(h.events)()
	mod, err := ctx.LoadModule("replay", replaySrc)
	if err != nil {
		t.Fatal(err)
	}
	if h.iter, err = mod.Function("iter"); err != nil {
		t.Fatal(err)
	}
	crashMod, err := ctx.LoadModule("m", modSrc)
	if err != nil {
		t.Fatal(err)
	}
	if h.crash, err = crashMod.Function("crash"); err != nil {
		t.Fatal(err)
	}
	h.buf, _ = ctx.Malloc(128)
	h.spare, _ = ctx.Malloc(64)
	_ = ctx.MemcpyHtoD(h.buf, bytes.Repeat([]byte{0xa5}, 128))
	if s == statePoisoned {
		_ = ctx.Launch(h.crash, cfg1())
	} else {
		_ = ctx.Launch(h.iter, cfg1(), h.buf)
	}
	h.events.events = nil
	var res driverResult
	res.value, res.err = op.do(h, s)
	res.events = strings.Join(h.events.events, ",")
	_ = ctx.Launch(h.iter, cfg1(), h.buf)
	_ = ctx.Launch(h.iter, cfg1(), h.buf)
	res.earlyExit = ctx.ReplayEarlyExited()
	res.replayErr = ctx.ReplayErr()
	return res
}

// recordDriverWorkload records the workload's healthy version with op.
func recordDriverWorkload(t *testing.T, op driverOp) *cuda.Trace {
	t.Helper()
	ctx := newCtx(t)
	if err := ctx.StartRecording(48); err != nil {
		t.Fatal(err)
	}
	runDriverWorkload(t, ctx, op, stateHealthy)
	trace, err := ctx.FinishRecording()
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// errKind classifies an error for the table: nil, one of the driver's
// sentinels, the replay's own error, or some other failure.
type errKind uint8

const (
	errNone    errKind = iota
	errSticky          // the poisoning trap's CUDA_ERROR_ILLEGAL_ADDRESS
	errInvalid         // CUDA_ERROR_INVALID_VALUE
	errReplay          // the replay's divergence error, as ReplayErr returns it
	errOther           // any other non-nil error
)

func (k errKind) String() string {
	return [...]string{"nil", "sticky", "invalid value", "replay divergence", "other"}[k]
}

func kindOf(err, replayErr error) errKind {
	switch {
	case err == nil:
		return errNone
	case replayErr != nil && err == replayErr:
		return errReplay
	case errors.Is(err, cuda.ErrIllegalAddress):
		return errSticky
	case errors.Is(err, cuda.ErrInvalidValue):
		return errInvalid
	}
	return errOther
}

// driverWant is one cell of the table.
type driverWant struct {
	err       errKind
	value     bool   // the call returns the healthy plain run's value (else the zero value)
	events    string // subscriber events of the call under test
	recordErr bool   // recording: FinishRecording fails
	replayErr bool   // replay: ReplayErr is set
	earlyExit bool   // replay: the run exited early (nothing mismatched)
}

// driverWantFor is the driver's contract for op in state s on a context in
// mode m; ok is false for cells that cannot occur (a short-circuiting replay
// has run nothing, so it cannot be poisoned).
func driverWantFor(op string, s driverState, m driverMode) (w driverWant, ok bool) {
	launch := op == "Launch" || op == "LaunchParams"
	replay := m == modeShortCircuit || m == modeLive
	switch s {
	case stateHealthy:
		w.value = op == "Malloc" || op == "MemcpyDtoH"
		if op == "Launch" {
			w.events = "begin:iter,end:iter"
		}
		if op == "LaunchParams" {
			w.err = errInvalid // checked before the journal is consulted
		}
		w.earlyExit = replay
	case statePoisoned:
		if m == modeShortCircuit {
			return w, false
		}
		w.err = errSticky // the poisoned-context check comes before the parameter count
		if op == "Free" {
			w.err = errNone // cuMemFree does not check the sticky error
		}
		if launch {
			w.events = "end:iter:skipped"
		}
		w.recordErr = true
	case stateFailing:
		switch {
		case op == "LaunchParams":
			return w, false
		case m == modeShortCircuit:
			// The journal matches a launch by its whole request: a grid
			// the recording did not launch is a divergence.
			w.err, w.replayErr = errReplay, true
			return w, true
		}
		w.err = errOther
		if op == "Launch" {
			w.events = "begin:iter,end:iter"
		}
		w.recordErr = true
	}
	if m != modeRecording {
		w.recordErr = false
	}
	return w, true
}

// TestDriverCallTable pins each driver call's contract — returned value and
// error, subscriber events, and what the call leaves in the recording or the
// replay — on a plain, a recording, a short-circuiting and a live replaying
// context, healthy, poisoned and with a failing call.
func TestDriverCallTable(t *testing.T) {
	for _, op := range driverOps {
		ref := runDriverWorkload(t, newCtx(t), op, stateHealthy)
		trace := recordDriverWorkload(t, op)
		// The last launch of iter is the fault's; PlanRestore restores inside
		// the launch before it.
		iters := 3
		if op.name == "Launch" {
			iters = 4
		}
		// A call refused before the journal sees it leaves no entry.
		fault := 6
		if op.name == "LaunchParams" {
			fault = 5
		}
		scPlan := trace.PlanRestore("iter", iters-1, -1, 0, false)
		if scPlan.Ckpt == nil || scPlan.RestoreCall != fault-1 || scPlan.FaultCall != fault {
			t.Fatalf("%s: plan restores at call %d for a fault in call %d, want %d and %d",
				op.name, scPlan.RestoreCall, scPlan.FaultCall, fault-1, fault)
		}
		fired := func() bool { return true }
		scPlan.Probe = fired
		livePlan := cuda.ReplayPlan{RestoreCall: -1, FaultCall: scPlan.FaultCall, Probe: fired}

		for _, s := range []driverState{stateHealthy, statePoisoned, stateFailing} {
			for _, m := range []driverMode{modePlain, modeRecording, modeShortCircuit, modeLive} {
				want, ok := driverWantFor(op.name, s, m)
				if !ok {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", op.name, s, m), func(t *testing.T) {
					ctx := newCtx(t)
					var err error
					switch m {
					case modeRecording:
						err = ctx.StartRecording(48)
					case modeShortCircuit:
						err = ctx.BeginReplay(trace, scPlan)
					case modeLive:
						err = ctx.BeginReplay(trace, livePlan)
					}
					if err != nil {
						t.Fatal(err)
					}
					got := runDriverWorkload(t, ctx, op, s)
					if m == modeRecording {
						_, got.recordErr = ctx.FinishRecording()
					}
					if k := kindOf(got.err, got.replayErr); k != want.err {
						t.Errorf("error %v (%v), want %v", got.err, k, want.err)
					}
					wantValue := any(nil)
					switch v := ref.value.(type) {
					case cuda.DevPtr:
						wantValue = cuda.DevPtr(0)
						if want.value {
							wantValue = v
						}
					case []byte:
						wantValue = []byte(nil)
						if want.value {
							wantValue = v
						}
					}
					if !valuesEqual(got.value, wantValue) {
						t.Errorf("value %v, want %v", got.value, wantValue)
					}
					if got.events != want.events {
						t.Errorf("events %q, want %q", got.events, want.events)
					}
					if (got.recordErr != nil) != want.recordErr {
						t.Errorf("FinishRecording error %v, want an error: %v", got.recordErr, want.recordErr)
					}
					if (got.replayErr != nil) != want.replayErr {
						t.Errorf("ReplayErr %v, want an error: %v", got.replayErr, want.replayErr)
					}
					if got.earlyExit != want.earlyExit {
						t.Errorf("early exit %v, want %v", got.earlyExit, want.earlyExit)
					}
				})
			}
		}
	}
}

func valuesEqual(a, b any) bool {
	if ab, ok := a.([]byte); ok {
		bb, ok := b.([]byte)
		return ok && slices.Equal(ab, bb) && (ab == nil) == (bb == nil)
	}
	return a == b
}

// TestCancelBeforeEveryLaunch: on a context whose cancellation is already
// done, a launch traps with TrapCancelled before executing an instruction —
// plain, recorded or replayed live, since all three start through BeginRun.
func TestCancelBeforeEveryLaunch(t *testing.T) {
	op := driverOps[0]
	trace := recordDriverWorkload(t, op)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []driverMode{modePlain, modeRecording, modeLive} {
		t.Run(m.String(), func(t *testing.T) {
			ctx := newCtx(t)
			var err error
			switch m {
			case modeRecording:
				err = ctx.StartRecording(48)
			case modeLive:
				err = ctx.BeginReplay(trace, cuda.ReplayPlan{RestoreCall: -1, FaultCall: -1})
			}
			if err != nil {
				t.Fatal(err)
			}
			ctx.SetCancel(done)
			runDriverWorkload(t, ctx, op, stateHealthy)
			if tr := ctx.StickyTrap(); tr == nil || tr.Kind != gpu.TrapCancelled {
				t.Fatalf("sticky trap %v, want TrapCancelled", tr)
			}
			if n := ctx.AccumulatedStats().WarpInstrs; n != 0 {
				t.Fatalf("cancelled launches executed %d warp instructions", n)
			}
		})
	}
}

// TestLiveReplayCorruptedCopy: a live replay whose host reads bytes the
// recording did not — here the device's buffer is corrupted behind the
// driver's back, as an injected fault would — is mismatched for good, so it
// never exits early, even though the launches after the copy overwrite the
// corruption and reach the recorded digests.
func TestLiveReplayCorruptedCopy(t *testing.T) {
	op := driverOps[3] // MemcpyDtoH(buf, 8)
	trace := recordDriverWorkload(t, op)
	plan := trace.PlanRestore("iter", 2, -1, 0, false)
	for _, corrupt := range []bool{false, true} {
		ctx := newCtx(t)
		if err := ctx.BeginReplay(trace, cuda.ReplayPlan{
			RestoreCall: -1, FaultCall: plan.FaultCall, Probe: func() bool { return true },
		}); err != nil {
			t.Fatal(err)
		}
		if corrupt {
			defer ctx.Subscribe(corruptAfterFirstLaunch{ctx})()
		}
		got := runDriverWorkload(t, ctx, op, stateHealthy)
		if got.err != nil || got.replayErr != nil {
			t.Fatalf("corrupt=%v: copy error %v, replay error %v", corrupt, got.err, got.replayErr)
		}
		if got.earlyExit == corrupt {
			t.Errorf("corrupt=%v: early exit %v", corrupt, got.earlyExit)
		}
	}
}

// corruptAfterFirstLaunch flips a byte of the first allocation once the
// workload's first launch (call 3) has written it.
type corruptAfterFirstLaunch struct{ ctx *cuda.Context }

func (corruptAfterFirstLaunch) OnModuleLoad(*cuda.Module)       {}
func (corruptAfterFirstLaunch) OnLaunchBegin(*cuda.LaunchEvent) {}
func (c corruptAfterFirstLaunch) OnLaunchEnd(ev *cuda.LaunchEvent) {
	if c.ctx.AccumulatedStats().Blocks != 1 {
		return
	}
	mem := c.ctx.Device().Mem
	spans := mem.Spans()
	b, err := mem.ReadBytes(spans[0].Base, 1)
	if err == nil {
		err = mem.WriteBytes(spans[0].Base, []byte{^b[0]})
	}
	if err != nil {
		panic(err)
	}
}
