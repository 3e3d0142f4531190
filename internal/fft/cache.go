package fft

import (
	"fmt"
	"sync"
)

// Plans are immutable after construction and relatively expensive to
// build (twiddle tables, bit-reversal permutations, Bluestein chirp
// transforms), while the pipelines create transforms of the same few
// sizes over and over (every GridToImage call, every W-layer, every
// streamed chunk worker). The cache below memoizes them behind an
// RWMutex: steady-state lookups take only the read lock, so concurrent
// chunk workers no longer serialize on a global mutex. Plans are built
// outside any lock; a losing racer's plan is discarded and the first
// stored one wins, keeping the shared-plan invariant.

var (
	cacheMu sync.RWMutex
	cache1D = make(map[int]*Plan)
	cache2D = make(map[[2]int]*Plan2D)
)

// CachedPlan returns a shared plan for length n.
func CachedPlan(n int) *Plan {
	cacheMu.RLock()
	p := cache1D[n]
	cacheMu.RUnlock()
	if p != nil {
		return p
	}
	fresh := NewPlan(n)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache1D[n]; ok {
		return p
	}
	cache1D[n] = fresh
	return fresh
}

// CachedPlan2D returns a shared 2-D plan for rows x cols.
func CachedPlan2D(rows, cols int) *Plan2D {
	key := [2]int{rows, cols}
	cacheMu.RLock()
	p := cache2D[key]
	cacheMu.RUnlock()
	if p != nil {
		return p
	}
	fresh := NewPlan2D(rows, cols)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache2D[key]; ok {
		return p
	}
	cache2D[key] = fresh
	return fresh
}

// EngineInfo describes the active FFT engine configuration in one
// line, for the CLI stage reports.
func EngineInfo() string {
	return fmt.Sprintf("fused radix-4 + lane-parallel mixed-radix + Bluestein, fused centering, blocked columns (B=%d), simd=%s",
		colBlock, planTier())
}
