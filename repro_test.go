package repro

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/aterm"
	"repro/internal/sky"
)

// smallObservation returns a fast configuration for the facade tests.
func smallObservation() ObservationConfig {
	c := DefaultObservation()
	c.NrStations = 8
	c.NrTimesteps = 64
	c.NrChannels = 4
	c.GridSize = 256
	c.SubgridSize = 24
	c.KernelSupport = 6
	c.GridMargin = 32
	c.ATermInterval = 32
	return c
}

func TestObservationConfigValidation(t *testing.T) {
	bad := []ObservationConfig{
		{},
		{NrStations: 1, NrTimesteps: 10, NrChannels: 1, StartFrequency: 1, GridSize: 64},
		{NrStations: 4, NrTimesteps: 0, NrChannels: 1, StartFrequency: 1, GridSize: 64},
		{NrStations: 4, NrTimesteps: 4, NrChannels: 1, StartFrequency: 0, GridSize: 64},
		{NrStations: 4, NrTimesteps: 4, NrChannels: 1, StartFrequency: 1, GridSize: 64, GridMargin: 40},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail", i)
		}
	}
	good := DefaultObservation()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPlanProducesConsistentObservation(t *testing.T) {
	obs, err := smallObservation().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if obs.Vis != nil {
		t.Fatal("BuildPlan should not allocate visibilities")
	}
	if len(obs.Stations) != 8 {
		t.Fatalf("stations = %d", len(obs.Stations))
	}
	if len(obs.Plan.Items) == 0 {
		t.Fatal("empty plan")
	}
	if obs.ImageSize <= 0 {
		t.Fatal("image size not derived")
	}
	st := obs.Plan.Stats()
	total := int64(len(obs.Simulator.Baselines())) * 64 * 4
	if st.NrGriddedVisibilities+st.NrDroppedVisibilities != total {
		t.Fatalf("plan covers %d+%d of %d visibilities",
			st.NrGriddedVisibilities, st.NrDroppedVisibilities, total)
	}
}

func TestEndToEndDirtyImageThroughFacade(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(obs.Config.GridSize)
	model := SkyModel{{L: 20 * pix, M: -12 * pix, I: 2}}
	obs.FillFromModel(model)
	img, err := obs.DirtyImage(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	si := StokesI(img)
	// Peak at the source position with the source flux.
	x, y := sky.LMToPixel(model[0].L, model[0].M, obs.Config.GridSize, obs.ImageSize)
	best, bi := math.Inf(-1), 0
	for i, v := range si {
		if v > best {
			best, bi = v, i
		}
	}
	if bi != y*obs.Config.GridSize+x {
		t.Fatalf("peak at index %d, want (%d,%d)", bi, x, y)
	}
	if math.Abs(best-2) > 0.1 {
		t.Fatalf("peak %.3f, want ~2", best)
	}
}

func TestGridDegridRoundtripThroughFacade(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(obs.Config.GridSize)
	model := SkyModel{{L: 10 * pix, M: 5 * pix, I: 1}}
	img := model.Rasterize(obs.Config.GridSize, obs.ImageSize)
	g := ImageToGrid(img, 0)
	if _, err := obs.DegridAll(context.Background(), nil, g); err != nil {
		t.Fatal(err)
	}
	// Degridded visibilities carry the source's flux scale.
	v := obs.Vis.Data[0][0]
	if math.Abs(real(v[0])) < 0.01 {
		t.Fatalf("degridded visibility suspiciously small: %v", v[0])
	}
}

// TestStageTimesWithinWallTime: StageTimes are shares of the pass's
// wall time on every path — with several chunk workers running the
// gridding stages concurrently, too — so their total never exceeds it.
func TestStageTimesWithinWallTime(t *testing.T) {
	cfg := smallObservation()
	cfg.NrStations, cfg.NrTimesteps = 12, 128
	cfg.MaxTimestepsPerSubgrid = 8 // > 1000 items: every chunk worker gets chunks
	cfg.Workers = 4
	obs, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.FillFromModel(StandardSkyModel(obs, 2)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, pass := range map[string]func() (StageTimes, error){
		"GridAll": func() (StageTimes, error) {
			_, times, err := obs.GridAll(ctx, nil)
			return times, err
		},
		"GridAllStreamed": func() (StageTimes, error) {
			_, times, _, err := obs.GridAllStreamed(ctx, nil, FaultConfig{})
			return times, err
		},
		"DegridAll": func() (StageTimes, error) { return obs.DegridAll(ctx, nil, NewGrid(cfg.GridSize)) },
	} {
		start := time.Now()
		times, err := pass()
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if times.Total() == 0 {
			t.Errorf("%s reported no stage time", name)
		}
		if limit := wall + wall/20; times.Total() > limit {
			t.Errorf("%s: stage times sum to %v, the pass took %v", name, times.Total(), wall)
		}
	}
}

func TestGridAllRequiresVisibilities(t *testing.T) {
	obs, err := smallObservation().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := obs.GridAll(context.Background(), nil); err == nil {
		t.Fatal("expected error without visibilities")
	}
	if _, err := obs.DegridAll(context.Background(), nil, NewGrid(obs.Config.GridSize)); err == nil {
		t.Fatal("expected error without visibilities")
	}
}

func TestATermProviderThroughFacade(t *testing.T) {
	obs, err := smallObservation().Build()
	if err != nil {
		t.Fatal(err)
	}
	pix := obs.ImageSize / float64(obs.Config.GridSize)
	obs.FillFromModel(SkyModel{{L: 8 * pix, M: 8 * pix, I: 1}})
	img, err := obs.DirtyImage(context.Background(), aterm.Identity{})
	if err != nil {
		t.Fatal(err)
	}
	img2, err := obs.DirtyImage(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := img.MaxAbsDiff(img2); d > 1e-9 {
		t.Fatalf("identity provider changed the image by %g", d)
	}
}

func TestFrequencies(t *testing.T) {
	c := DefaultObservation()
	f := c.Frequencies()
	if len(f) != c.NrChannels || f[0] != c.StartFrequency {
		t.Fatal("frequency table wrong")
	}
	if f[1]-f[0] != c.ChannelWidth {
		t.Fatal("channel width wrong")
	}
}

func TestPaperObservationPlanOnlySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size plan construction")
	}
	// Scale down time steps to keep the test fast while exercising
	// the full 150-station layout.
	c := PaperObservation()
	c.NrTimesteps = 128
	c.ATermInterval = 64
	obs, err := c.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.Simulator.Baselines()) != 11175 {
		t.Fatalf("baselines = %d, want 11175", len(obs.Simulator.Baselines()))
	}
	st := obs.Plan.Stats()
	if st.NrDroppedVisibilities > st.NrGriddedVisibilities/100 {
		t.Fatalf("dropped %d of %d visibilities", st.NrDroppedVisibilities, st.NrGriddedVisibilities)
	}
}
