package repro

import (
	"context"

	"repro/internal/grid"
)

// Sharded-grid re-exports: the row-band-partitioned uv-grid accessor
// behind the gridding pass. Most callers only set
// ObservationConfig.GridShards / MaxInflightChunks and never touch
// these types; they are exported for tests and for callers that drive
// the sharded adder/splitter directly.

// ShardedGrid partitions a uv-grid into independently locked row
// bands so concurrent adders and splitters contend only on shared
// bands; see internal/grid.Sharded.
type ShardedGrid = grid.Sharded

// NewShardedGrid wraps g in a sharded accessor with the given number
// of row bands (clamped to [1, GridSize]).
func NewShardedGrid(g *Grid, shards int) *ShardedGrid { return grid.NewSharded(g, shards) }

// GridAllStreamed is GridAllFT: every gridding pass runs on the sharded
// chunk scheduler. The name predates that and stays for its callers.
func (o *Observation) GridAllStreamed(ctx context.Context, prov ATermProvider, ft FaultConfig) (*Grid, StageTimes, *FaultReport, error) {
	return o.gridPass(ctx, prov, ft, false)
}
