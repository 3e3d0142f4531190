package plan

import (
	"math"
	"testing"

	"repro/internal/layout"
	"repro/internal/uvwsim"
)

// testConfig returns a small but realistic configuration: a 512-pixel
// grid, 24-pixel subgrids, 8 channels around 150 MHz, sized so the
// 20-station layout's baselines fit.
func testConfig(imageSize float64) Config {
	freqs := make([]float64, 8)
	for i := range freqs {
		freqs[i] = 150e6 + float64(i)*200e3
	}
	return Config{
		GridSize:               512,
		SubgridSize:            24,
		ImageSize:              imageSize,
		Frequencies:            freqs,
		KernelSupport:          4,
		MaxTimestepsPerSubgrid: 128,
		ATermUpdateInterval:    64,
	}
}

func testTracks(t *testing.T, nrStations, nt int) ([][]uvwsim.UVW, *uvwsim.Simulator) {
	t.Helper()
	cfg := layout.SKA1LowConfig()
	cfg.NrStations = nrStations
	sim := uvwsim.New(layout.Generate(cfg), uvwsim.DefaultOptions())
	return sim.AllTracks(nt), sim
}

// imageSizeFor picks an image size such that max |u|,|v| maps within
// the grid with margin.
func imageSizeFor(sim *uvwsim.Simulator, nt, gridSize int, maxFreq float64) float64 {
	maxUV := sim.MaxUV(nt) * maxFreq / uvwsim.SpeedOfLight // wavelengths
	return float64(gridSize/2-40) / maxUV
}

func buildTestPlan(t *testing.T, nrStations, nt int) (*Plan, [][]uvwsim.UVW) {
	t.Helper()
	tracks, sim := testTracks(t, nrStations, nt)
	cfg := testConfig(imageSizeFor(sim, nt, 512, 151.4e6))
	p, err := New(cfg, tracks)
	if err != nil {
		t.Fatal(err)
	}
	return p, tracks
}

func TestPlanCoversAllVisibilities(t *testing.T) {
	p, tracks := buildTestPlan(t, 12, 256)
	covered, err := p.ValidateCoverage(tracks)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(tracks)) * 256 * int64(len(p.Frequencies))
	if covered+int64(p.DroppedVisibilities) != total {
		t.Fatalf("covered %d + dropped %d != total %d", covered, p.DroppedVisibilities, total)
	}
	if p.DroppedVisibilities > int(total/100) {
		t.Fatalf("dropped too many visibilities: %d of %d", p.DroppedVisibilities, total)
	}
}

func TestPlanGroupsManyTimestepsPerSubgrid(t *testing.T) {
	// Short baselines move slowly through the uv plane, so the greedy
	// sweep must pack many time steps per subgrid on average; this is
	// the whole point of IDG (amortizing the subgrid FFT).
	p, _ := buildTestPlan(t, 12, 256)
	st := p.Stats()
	if st.AvgTimestepsPerSubgrid < 4 {
		t.Fatalf("average %.2f timesteps/subgrid; expected batching", st.AvgTimestepsPerSubgrid)
	}
}

func TestTmaxRespected(t *testing.T) {
	p, _ := buildTestPlan(t, 12, 256)
	for i := range p.Items {
		if p.Items[i].NrTimesteps > p.MaxTimestepsPerSubgrid {
			t.Fatalf("item %d has %d timesteps > Tmax %d", i, p.Items[i].NrTimesteps, p.MaxTimestepsPerSubgrid)
		}
	}
}

func TestATermSlotBoundariesForceSplits(t *testing.T) {
	p, _ := buildTestPlan(t, 12, 256)
	for i := range p.Items {
		it := &p.Items[i]
		first := it.TimeStart / p.ATermUpdateInterval
		last := (it.TimeStart + it.NrTimesteps - 1) / p.ATermUpdateInterval
		if first != last || first != it.ATermSlot {
			t.Fatalf("item %d spans A-term slots %d..%d (slot %d)", i, first, last, it.ATermSlot)
		}
	}
}

func TestSmallerSubgridsYieldMoreItems(t *testing.T) {
	// Disable the A-term and Tmax split triggers so that only uv
	// motion forces new subgrids, then a tighter subgrid must split
	// the long tracks more often.
	tracks, sim := testTracks(t, 12, 2048)
	img := imageSizeFor(sim, 2048, 512, 151.4e6)
	cfgBig := testConfig(img)
	cfgBig.SubgridSize = 32
	cfgBig.ATermUpdateInterval = 0
	cfgBig.MaxTimestepsPerSubgrid = 0
	cfgSmall := testConfig(img)
	cfgSmall.SubgridSize = 16
	cfgSmall.KernelSupport = 2
	cfgSmall.ATermUpdateInterval = 0
	cfgSmall.MaxTimestepsPerSubgrid = 0
	big, err := New(cfgBig, tracks)
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(cfgSmall, tracks)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Items) <= len(big.Items) {
		t.Fatalf("16px subgrids gave %d items, 32px gave %d; want more for smaller",
			len(small.Items), len(big.Items))
	}
}

func TestChannelBlocks(t *testing.T) {
	tracks, sim := testTracks(t, 10, 128)
	cfg := testConfig(imageSizeFor(sim, 128, 512, 151.4e6))
	cfg.ChannelBlockSize = 4 // 8 channels -> 2 blocks
	p, err := New(cfg, tracks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ValidateCoverage(tracks); err != nil {
		t.Fatal(err)
	}
	for i := range p.Items {
		if p.Items[i].NrChannels != 4 {
			t.Fatalf("item %d has %d channels, want 4", i, p.Items[i].NrChannels)
		}
		if c0 := p.Items[i].Channel0; c0 != 0 && c0 != 4 {
			t.Fatalf("item %d starts at channel %d", i, c0)
		}
	}
}

func TestWStackingAssignsPlanes(t *testing.T) {
	tracks, sim := testTracks(t, 12, 128)
	cfg := testConfig(imageSizeFor(sim, 128, 512, 151.4e6))
	cfg.WStepLambda = 50
	p, err := New(cfg, tracks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ValidateCoverage(tracks); err != nil {
		t.Fatal(err)
	}
	planes := make(map[int]bool)
	for i := range p.Items {
		it := &p.Items[i]
		planes[it.WPlane] = true
		if math.Abs(it.WOffset-float64(it.WPlane)*50) > 1e-9 {
			t.Fatalf("item %d WOffset %.1f inconsistent with plane %d", i, it.WOffset, it.WPlane)
		}
	}
	if len(planes) < 2 {
		t.Fatal("expected multiple W-planes for this layout")
	}
}

// TestWStackedPlanLayerMajor: both builders list a W-stacked plan's
// items layer by layer, each layer in the unstacked order (channel
// block, baseline, channel group, time); StreamChunks never lets a
// chunk span two layers and cuts a layer only every maxItems items;
// an unstacked plan's chunks still start at every multiple of
// maxItems.
func TestWStackedPlanLayerMajor(t *testing.T) {
	tracks, sim := testTracks(t, 12, 128)
	cfg := testConfig(imageSizeFor(sim, 128, 512, 151.4e6))
	cfg.ChannelBlockSize = 4
	cfg.WStepLambda = 50
	batch, err := New(cfg, tracks)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := NewStreaming(cfg, len(tracks), 128, func(b int, buf []uvwsim.UVW) []uvwsim.UVW {
		return append(buf[:0], tracks[b]...)
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Items) != len(batch.Items) {
		t.Fatalf("streamed %d items, batch %d", len(streamed.Items), len(batch.Items))
	}
	key := func(it WorkItem) [4]int { return [4]int{it.Channel0 / 4, it.Baseline, it.Channel0, it.TimeStart} }
	less := func(a, b [4]int) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	layers := 1
	for i := 1; i < len(batch.Items); i++ {
		if batch.Items[i] != streamed.Items[i] {
			t.Fatalf("item %d differs between the builders: %+v vs %+v", i, batch.Items[i], streamed.Items[i])
		}
		prev, it := batch.Items[i-1], batch.Items[i]
		switch {
		case it.WPlane < prev.WPlane:
			t.Fatalf("item %d in W-layer %d follows layer %d", i, it.WPlane, prev.WPlane)
		case it.WPlane > prev.WPlane:
			layers++
		case !less(key(prev), key(it)):
			t.Fatalf("items %d and %d of W-layer %d out of plan order", i-1, i, it.WPlane)
		}
	}
	if layers < 3 {
		t.Fatalf("plan has %d W-layers, want >= 3", layers)
	}

	for _, maxItems := range []int{1, 7, 64, 0} {
		var flat []WorkItem
		for _, c := range batch.StreamChunks(maxItems) {
			for _, it := range c.Items {
				if it.WPlane != c.WPlane {
					t.Fatalf("max %d: chunk %d of W-layer %d holds an item of layer %d", maxItems, c.Index, c.WPlane, it.WPlane)
				}
			}
			end := len(flat) + len(c.Items)
			if maxItems > 0 && len(c.Items) > maxItems {
				t.Fatalf("max %d: chunk %d has %d items", maxItems, c.Index, len(c.Items))
			}
			if (maxItems <= 0 || len(c.Items) < maxItems) && end < len(batch.Items) && batch.Items[end].WPlane == c.WPlane {
				t.Fatalf("max %d: chunk %d ends short inside W-layer %d", maxItems, c.Index, c.WPlane)
			}
			flat = append(flat, c.Items...)
		}
		if len(flat) != len(batch.Items) {
			t.Fatalf("max %d: chunks cover %d of %d items", maxItems, len(flat), len(batch.Items))
		}
	}

	cfg.WStepLambda = 0
	plain, err := New(cfg, tracks)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxItems := range []int{1, 7, 64} {
		for i, c := range plain.StreamChunks(maxItems) {
			if &c.Items[0] != &plain.Items[i*maxItems] || len(c.Items) != min(maxItems, len(plain.Items)-i*maxItems) {
				t.Fatalf("max %d: unstacked chunk %d does not cover items [%d, %d)", maxItems, i, i*maxItems, (i+1)*maxItems)
			}
		}
	}
}

func TestWorkGroups(t *testing.T) {
	p, _ := buildTestPlan(t, 10, 128)
	groups := p.WorkGroups(7)
	total := 0
	for i, g := range groups {
		if len(g) == 0 || len(g) > 7 {
			t.Fatalf("group %d has %d items", i, len(g))
		}
		total += len(g)
	}
	if total != len(p.Items) {
		t.Fatalf("groups cover %d items, want %d", total, len(p.Items))
	}
	// m <= 0 means one group with everything.
	if g := p.WorkGroups(0); len(g) != 1 || len(g[0]) != len(p.Items) {
		t.Fatal("WorkGroups(0) should return a single full group")
	}
}

func TestStatsConsistency(t *testing.T) {
	p, tracks := buildTestPlan(t, 10, 128)
	st := p.Stats()
	if st.NrSubgrids != len(p.Items) {
		t.Fatal("NrSubgrids mismatch")
	}
	covered, err := p.ValidateCoverage(tracks)
	if err != nil {
		t.Fatal(err)
	}
	if st.NrGriddedVisibilities != covered {
		t.Fatalf("stats say %d gridded, coverage says %d", st.NrGriddedVisibilities, covered)
	}
	wantPairs := covered * int64(p.SubgridSize) * int64(p.SubgridSize)
	if st.NrVisibilityPixelPairs != wantPairs {
		t.Fatalf("pixel pairs %d, want %d", st.NrVisibilityPixelPairs, wantPairs)
	}
}

func TestConfigValidation(t *testing.T) {
	freqs := []float64{150e6}
	bad := []Config{
		{GridSize: 1, SubgridSize: 8, ImageSize: 0.1, Frequencies: freqs},
		{GridSize: 128, SubgridSize: 1, ImageSize: 0.1, Frequencies: freqs},
		{GridSize: 128, SubgridSize: 256, ImageSize: 0.1, Frequencies: freqs},
		{GridSize: 128, SubgridSize: 24, ImageSize: 0, Frequencies: freqs},
		{GridSize: 128, SubgridSize: 24, ImageSize: 0.1},
		{GridSize: 128, SubgridSize: 24, ImageSize: 0.1, Frequencies: freqs, KernelSupport: -1},
		{GridSize: 128, SubgridSize: 24, ImageSize: 0.1, Frequencies: freqs, KernelSupport: 12},
		{GridSize: 128, SubgridSize: 24, ImageSize: 0.1, Frequencies: freqs, WStepLambda: -1},
		{GridSize: 128, SubgridSize: 24, ImageSize: 0.1, Frequencies: []float64{-1}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
	good := testConfig(0.05)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestNewRejectsRaggedTracks(t *testing.T) {
	tracks := [][]uvwsim.UVW{make([]uvwsim.UVW, 4), make([]uvwsim.UVW, 5)}
	cfg := testConfig(0.05)
	if _, err := New(cfg, tracks); err == nil {
		t.Fatal("expected error for ragged tracks")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("expected error for no baselines")
	}
}

func TestTimeBlocksAreContiguousPerBaseline(t *testing.T) {
	p, _ := buildTestPlan(t, 10, 128)
	// For each (baseline, channel block), the time blocks must tile
	// [0, nt) in order without gaps (modulo dropped visibilities,
	// which this small setup does not produce).
	type key struct{ b, c0 int }
	next := make(map[key]int)
	for i := range p.Items {
		it := &p.Items[i]
		k := key{it.Baseline, it.Channel0}
		if want, ok := next[k]; ok && it.TimeStart != want {
			t.Fatalf("baseline %d: block starts at %d, want %d", it.Baseline, it.TimeStart, want)
		}
		next[k] = it.TimeStart + it.NrTimesteps
	}
	for k, end := range next {
		if end != 128 {
			t.Fatalf("baseline %d channels@%d: blocks end at %d, want 128", k.b, k.c0, end)
		}
	}
}
