// Package runner shards independent experiment trials across a bounded
// worker pool. Every paper artifact in this repo — the Figure 7 histogram,
// the Table 1 matrix, the Figure 11 channel curves and the Figure 12
// defense sweep — repeats many independent simulations, each with its own
// seed; runner fans those trials out over goroutines while preserving the
// exact results of the serial loops.
//
// The determinism contract: callers derive each shard's seed from the
// shard index alone (seedBase + index arithmetic identical to the old
// serial loops), every shard builds its own System/Memory, and Map returns
// results in index order. Under that contract the output is bit-identical
// at any worker count, so "-parallel 8" is purely a wall-clock knob.
//
// The nondeterminism analyzer (internal/lint, run as cmd/speclint in CI)
// enforces the contract statically: code reachable from a registered
// experiment spec must not read the wall clock, the global math/rand
// source, or the environment, and map-iteration order must not feed any
// output the signatures hash.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Workers clamps a requested worker count to something sensible for
// `shards` independent shards: non-positive requests mean "one worker per
// available CPU" (GOMAXPROCS), and the result never exceeds the shard
// count (extra workers would only idle) nor drops below one.
func Workers(requested, shards int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if shards >= 1 && w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0, n) across Workers(workers, n)
// goroutines and returns the n results in index order, regardless of
// completion order. The first error cancels the shared context — in-flight
// shards can observe ctx.Done() and abandon work — and no further shards
// are dispatched; Map then returns that error. With one worker it is the
// error of the lowest failing index; with several it is whichever error
// occurred first, which need not belong to the lowest failing index. A nil
// or already-cancelled ctx is honoured before any shard runs.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative shard count %d", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return nil, ctx.Err()
	}
	results := make([]T, n)
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	shards := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range shards {
				// A pre-cancelled or just-cancelled context can still win the
				// feeder's select race; don't start work on a dead context.
				if ctx.Err() != nil {
					return
				}
				r, err := fn(ctx, i)
				if err != nil {
					fail(err)
					return
				}
				results[i] = r
			}
		}()
	}

	// Feed shard indices until done or a failure cancels the context; the
	// select keeps the feeder from blocking on workers that bailed out.
feed:
	for i := 0; i < n; i++ {
		select {
		case shards <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(shards)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
