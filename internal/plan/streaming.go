package plan

import (
	"errors"
	"runtime"
	"slices"
	"sync"

	"repro/internal/uvwsim"
)

// TrackGenerator produces the uvw track of baseline b into buf (which
// has capacity for the full track) and returns the filled slice.
// Implementations must be safe for concurrent calls with distinct
// buffers; uvwsim.Simulator.BaselineTrack qualifies.
type TrackGenerator func(b int, buf []uvwsim.UVW) []uvwsim.UVW

// NewStreaming builds an execution plan without materializing all
// baseline tracks at once: tracks are generated per baseline, and
// baselines are planned in parallel. For the paper's full dataset
// (11,175 baselines x 8,192 time steps) this needs megabytes instead
// of gigabytes. The resulting plan is identical to New on the same
// tracks (items ordered by channel block, then baseline, then time;
// a W-stacked plan by W-layer first).
func NewStreaming(cfg Config, nrBaselines, nrTimesteps int, gen TrackGenerator, workers int) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nrBaselines < 1 || nrTimesteps < 1 {
		return nil, errors.New("plan: empty observation")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nrBaselines {
		workers = nrBaselines
	}

	p := &Plan{Config: cfg}
	cb := cfg.channelBlock()

	// Per-baseline partial plans, merged in deterministic order.
	type result struct {
		items   []WorkItem
		dropped int
	}
	results := make([]result, nrBaselines)

	for c0 := 0; c0 < len(cfg.Frequencies); c0 += cb {
		nc := min(cb, len(cfg.Frequencies)-c0)
		var wg sync.WaitGroup
		next := make(chan int, nrBaselines)
		for b := 0; b < nrBaselines; b++ {
			next <- b
		}
		close(next)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]uvwsim.UVW, nrTimesteps)
				boxes := make([]bbox, nrTimesteps)
				sub := &Plan{Config: cfg}
				for b := range next {
					track := gen(b, buf)
					sub.Items = sub.Items[:0]
					sub.DroppedVisibilities = 0
					boxes = sub.planBaselineAdaptive(b, track, c0, nc, boxes)
					results[b] = result{
						items:   append([]WorkItem(nil), sub.Items...),
						dropped: sub.DroppedVisibilities,
					}
				}
			}()
		}
		wg.Wait()
		total := len(p.Items)
		for _, r := range results {
			total += len(r.items)
		}
		p.Items = slices.Grow(p.Items, total-len(p.Items))
		for b := 0; b < nrBaselines; b++ {
			p.Items = append(p.Items, results[b].items...)
			p.DroppedVisibilities += results[b].dropped
			results[b] = result{}
		}
	}
	p.layerMajor()
	return p, nil
}
