package gpu

import (
	"sync"
	"sync/atomic"
)

// runParallel executes the launch's thread blocks across a pool of worker
// goroutines, one per owned group of SMs — the software analog of blocks
// running concurrently on different streaming multiprocessors.
//
// Determinism contract (see DESIGN.md):
//
//   - SM ownership: worker w owns SM s iff s%workers == w, and each block's
//     smID is blockLin%NumSMs, so every smClocks entry is written by exactly
//     one worker and same-SM blocks run in linear order. CS2R/SR_CLOCK reads
//     are therefore bit-identical to the sequential schedule.
//   - Budget: one shared atomic counter; exactly the budgeted number of
//     warp instructions issue globally, as in sequential mode. Which block
//     exhausts it first is schedule-dependent (only observable in runs that
//     hit the hang watchdog).
//   - Traps: every worker keeps running blocks the sequential schedule
//     would have reached; the trap with the lowest block linear index wins,
//     which is the trap sequential execution would have reported. Blocks
//     above a recorded trap are skipped, never below it.
//   - Stats: accumulated per block and merged in block order — completed
//     blocks below the winning trap plus the winner's partial counts — so
//     LaunchStats are bit-identical to sequential in both outcomes.
//
// Blocks above a winning trap may still have executed (sequential mode
// stops at the trap), so their global-memory effects can be visible after a
// trapped launch — matching hardware, where a trap does not undo work other
// SMs already did. Fresh-context-per-experiment campaigns never observe the
// difference: a trapped launch poisons the context.
func (d *Device) runParallel(l *Launch, plan *xplan, budgetN uint64, workers int) (LaunchStats, error) {
	numBlocks := l.Grid.Count()
	blockStats := make([]LaunchStats, numBlocks)
	blockErrs := make([]error, numBlocks)
	budget := &budgetCounter{remaining: int64(budgetN), shared: true, ctx: d.cancelCtx, checkIn: cancelPollStride}

	// Workers store to global memory concurrently; take every page fault
	// now, while one goroutine owns the page tables.
	d.Mem.privatize()

	// trapLin is the lowest block linear index that has trapped so far;
	// numBlocks is the no-trap sentinel. It only ever decreases, so a block
	// is skipped only when some lower block trapped — blocks below the
	// final winner always run to completion, as they would sequentially.
	var trapLin atomic.Int64
	trapLin.Store(int64(numBlocks))

	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// One slot per worker (each owns at least block wkr); the workers
			// only read the constant bank and the plan they share.
			blk := claimBlock(d, l, d.bank, plan)
			blk.parallel = true
			defer blk.release()
			for lin := 0; lin < numBlocks; lin++ {
				if (lin%d.NumSMs)%workers != wkr {
					continue
				}
				if int64(lin) > trapLin.Load() {
					// A lower block already trapped; the sequential
					// schedule would never have started this one.
					continue
				}
				blk.bind(lin)
				if err := blk.run(budget, &blockStats[lin]); err != nil {
					blockErrs[lin] = err
					for {
						cur := trapLin.Load()
						if int64(lin) >= cur || trapLin.CompareAndSwap(cur, int64(lin)) {
							break
						}
					}
				}
			}
		}(wkr)
	}
	wg.Wait()

	var stats LaunchStats
	win := int(trapLin.Load())
	merge := func(lin int) {
		stats.WarpInstrs += blockStats[lin].WarpInstrs
		stats.ThreadInstrs += blockStats[lin].ThreadInstrs
	}
	if win >= numBlocks {
		for lin := 0; lin < numBlocks; lin++ {
			merge(lin)
		}
		stats.Blocks = numBlocks
		return stats, nil
	}
	// Trapped: count completed blocks below the winner, then the winner's
	// partial execution, exactly as the sequential schedule would have.
	for lin := 0; lin < win; lin++ {
		merge(lin)
	}
	stats.Blocks = win
	merge(win)
	return stats, blockErrs[win]
}
