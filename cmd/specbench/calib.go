package main

// The calibration kernel deliberately imports only the standard library:
// no change to the module's packages can move its run time, so its drift
// between rounds measures the host, not the code under test. The import
// check in specbench_test.go holds this file to that.

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// calRefS is the calibration kernel's reference run time in seconds.
// Every time metric is reported as raw × calRefS / calib_s, where calib_s
// is the kernel's run time at the start of the sample's round, so a
// calibrated value reads as "seconds on a host where the kernel takes
// calRefS".
const calRefS = 0.080

const (
	calMapOps     = 500_000
	calMapKeys    = 1 << 14
	calSortLen    = 200_000
	calRingNodes  = 1 << 16
	calChaseSteps = 3_000_000
)

// calibrate runs the kernel on two goroutines (the benchmark's worker
// budget) and returns its wall time in seconds.
func calibrate() float64 {
	var (
		wg   sync.WaitGroup
		sink [2]uint64
	)
	start := time.Now()
	for g := range sink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sink[g] = calKernel(uint64(g) + 1)
		}(g)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// calKernel is one goroutine's share: map churn, a sort of calSortLen
// ints, and a calChaseSteps-step pointer chase around a shuffled ring of
// calRingNodes nodes. The inputs are a fixed function of seed.
func calKernel(seed uint64) uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x5bd1e995))
	var sum uint64

	m := make(map[uint64]uint64, calMapKeys)
	for i := 0; i < calMapOps; i++ {
		k := rng.Uint64() % (2 * calMapKeys)
		if i%3 == 2 {
			delete(m, k)
			continue
		}
		m[k] += uint64(i)
	}
	sum += uint64(len(m))

	xs := make([]int64, calSortLen)
	for i := range xs {
		xs[i] = rng.Int64()
	}
	slices.Sort(xs)
	sum += uint64(xs[calSortLen/2])

	perm := rng.Perm(calRingNodes)
	next := make([]int32, calRingNodes)
	for i, p := range perm {
		next[p] = int32(perm[(i+1)%calRingNodes])
	}
	p := int32(perm[0])
	for i := 0; i < calChaseSteps; i++ {
		p = next[p]
	}
	return sum + uint64(p)
}
