package plan_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/uvwsim"
)

// TestEdgeBoxPlansMatchAllChannels: New and NewStreaming, which bound
// each time step by its channel range's two edge frequencies, build
// the same plan as the all-channel oracle: the same items, dropped
// count and checkpoint fingerprint, over random tracks, every kind of
// frequency list, channel blocks, split channel ranges, Tmax, A-term
// slots and W-stacking.
func TestEdgeBoxPlansMatchAllChannels(t *testing.T) {
	const nb, nt = 40, 96
	tracks := plan.RandomTracks(2, nb, nt)
	shapes := []struct {
		name      string
		block     int
		tmax, ati int
		wstep     float64
	}{
		{name: "plain"},
		{name: "blocks", block: 5, tmax: 16},
		{name: "slots+wstack", block: 4, ati: 32, wstep: 30},
		{name: "all", block: 3, tmax: 8, ati: 24, wstep: 120},
	}
	splits := 0
	for name, freqs := range plan.FrequencyLists(2) {
		for _, sh := range shapes {
			cfg := plan.Config{
				GridSize: 256, SubgridSize: 24, ImageSize: 0.02, Frequencies: freqs,
				KernelSupport: 4, MaxTimestepsPerSubgrid: sh.tmax, ATermUpdateInterval: sh.ati,
				WStepLambda: sh.wstep, ChannelBlockSize: sh.block,
			}
			t.Run(fmt.Sprintf("%s/%s", name, sh.name), func(t *testing.T) {
				want := plan.NewAllChannels(cfg, tracks)
				batch, err := plan.New(cfg, tracks)
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := plan.NewStreaming(cfg, nb, nt, func(b int, buf []uvwsim.UVW) []uvwsim.UVW {
					return append(buf[:0], tracks[b]...)
				}, 3)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Items) == 0 {
					t.Fatal("oracle plan has no items")
				}
				for _, got := range []*plan.Plan{batch, streamed} {
					if !slices.Equal(got.Items, want.Items) {
						t.Fatalf("%d items differ from the oracle's %d", len(got.Items), len(want.Items))
					}
					if got.DroppedVisibilities != want.DroppedVisibilities {
						t.Fatalf("dropped %d, oracle %d", got.DroppedVisibilities, want.DroppedVisibilities)
					}
					if checkpoint.PlanFingerprint(got) != checkpoint.PlanFingerprint(want) {
						t.Fatal("plan fingerprint differs from the oracle's")
					}
				}
				block := sh.block
				if block == 0 {
					block = len(freqs)
				}
				for _, it := range want.Items {
					if it.NrChannels < min(block, len(freqs)-it.Channel0/block*block) {
						splits++
					}
				}
			})
		}
	}
	if splits == 0 {
		t.Fatal("no channel range was split; the tracks do not reach the long-baseline case")
	}
}
