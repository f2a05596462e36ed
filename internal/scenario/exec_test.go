package scenario

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllCellsOnce(t *testing.T) {
	for _, parallel := range []int{1, 3, 16} {
		const n = 100
		counts := make([]int32, n)
		var mu sync.Mutex
		NewPool(parallel).ForEach(n, func(i int) { mu.Lock(); counts[i]++; mu.Unlock() })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallel=%d: cell %d ran %d times", parallel, i, c)
			}
		}
	}
	NewPool(4).ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	// A nil Env.Pool runs on serialPool, a plain loop.
	ran := 0
	serialPool{}.ForEach(3, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("serial pool ran %d of 3 cells", ran)
	}
}

// TestForEachSharedBudget pins the NewPool bound behind
// experiments.Options.Parallel: nested fan-outs draw extra workers from
// one pool, so total concurrency stays within the requested bound instead
// of multiplying per level.
func TestForEachSharedBudget(t *testing.T) {
	p := NewPool(3)
	var cur, peak atomic.Int64
	var inner func(depth int)
	inner = func(depth int) {
		p.ForEach(4, func(int) {
			if depth > 0 {
				inner(depth - 1)
				return
			}
			// Only leaf cells count: an ancestor frame is blocked in the
			// recursive call, so each goroutine contributes at most one.
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	inner(2)
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds the requested bound of 3", got)
	}
}

func TestForEachPropagatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	NewPool(4).ForEach(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}
