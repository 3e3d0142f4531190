package repro

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkDistribScale measures one full distributed imaging pass —
// the coordinator's one plan build, then per worker the kernel build,
// plan-scoped visibility fill, partition gridding and
// reduction-protocol delivery, then tree reduction — at 1, 2, 4 and 8
// in-process workers, reporting end-to-end MVis/s. On a multi-core
// host the curve shows scale-out; on a serial host it pins the
// per-worker harness overhead (kernels, visibility allocation,
// fingerprints, wire round trip, reduction) instead. Either way a fill
// that reverts to the full visibility set per worker, a plan built once
// per worker again, or a wire path that ships full zero grids shows up
// as super-linear cost growth at workers=8; compare parent and change
// in alternating pairs, not against a committed number.
func BenchmarkDistribScale(b *testing.B) {
	cfg := distribGoldenConfig()
	o, err := cfg.BuildPlan()
	if err != nil {
		b.Fatal(err)
	}
	vis := 0
	for i := range o.Plan.Items {
		vis += o.Plan.Items[i].NrVisibilities()
	}
	model := distribGoldenModel(o)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := DistribOptions{
				Config:  cfg,
				Model:   model,
				Workers: workers,
				Axis:    DistribRows,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RunDistributed(context.Background(), opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(vis)/b.Elapsed().Seconds()/1e6, "MVis/s")
		})
	}
}
