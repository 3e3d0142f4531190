package repro

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
)

// shardedGoldenObservation is goldenObservation — same pinned dataset,
// one-worker production pass — with the given shard count. With the
// fixture's Workers == 1 the pass must reproduce the committed golden
// hash bit-for-bit at every shard count: chunking and sharding are pure
// reorganizations of the same plan-order arithmetic.
func shardedGoldenObservation(t *testing.T, shards int) *Observation {
	t.Helper()
	o := goldenObservation(t)
	p := o.Kernels.Params()
	p.GridShards = shards
	k, err := core.NewKernels(p)
	if err != nil {
		t.Fatal(err)
	}
	o.Kernels = k
	return o
}

// TestShardedGoldenConformance pins the one-worker side of the bitwise
// contract to the committed golden fingerprint: on a grid cut into four
// row bands (TestGoldenGridConformance runs the default, one) the pass
// still hashes to exactly the bits recorded in
// testdata/golden_grid.json.
func TestShardedGoldenConformance(t *testing.T) {
	o := shardedGoldenObservation(t, 4)
	g, _, rep, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() {
		t.Fatalf("clean golden run degraded: %s", rep)
	}
	got := fingerprintGrid(g)
	if got.Nonzero == 0 {
		t.Fatal("streamed gridding produced an all-zero grid")
	}

	data, err := os.ReadFile(goldenGridFile)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenGridConformance -update .` to create it)", err)
	}
	var want goldenGrid
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.SHA256 != want.SHA256 {
		t.Errorf("streamed grid hash %s, want golden %s\n got: %+v\nwant: %+v",
			got.SHA256, want.SHA256, got, want)
	}
}

// TestShardedGoldenMultiShard checks the relaxed side of the claim:
// with several shards (and several workers) the accumulation order is
// scheduler-dependent, so the grid may differ from the serial
// reference — but only by floating-point reassociation, bounded at
// 1e-12 of the grid peak.
func TestShardedGoldenMultiShard(t *testing.T) {
	ref := goldenObservation(t)
	refGrid, _, err := ref.GridAll(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := fingerprintGrid(refGrid).PeakAbs

	for _, shards := range []int{3, 5} {
		o := shardedGoldenObservation(t, shards)
		p := o.Kernels.Params()
		p.Workers = 4
		p.StreamChunkItems = 8
		k, err := core.NewKernels(p)
		if err != nil {
			t.Fatal(err)
		}
		o.Kernels = k
		g, _, _, err := o.GridAllStreamed(context.Background(), nil, FaultConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if d := g.MaxAbsDiff(refGrid); d > 1e-12*peak {
			t.Errorf("shards=%d: streamed grid deviates %g from the serial golden grid (bound %g)",
				shards, d, 1e-12*peak)
		}
	}
}
