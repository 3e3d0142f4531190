package core

import (
	"context"
	"testing"

	"repro/internal/grid"
)

// flagEveryNth flags every nth sample of the set and returns the
// flagged count.
func flagEveryNth(vs *VisibilitySet, n int) int {
	count := 0
	for b := range vs.Data {
		for t := 0; t < vs.NrTimesteps; t++ {
			for c := 0; c < vs.NrChannels; c++ {
				if (b+t*vs.NrChannels+c)%n == 0 {
					vs.FlagSample(b, t, c)
					count++
				}
			}
		}
	}
	return count
}

// TestFlaggedSamplesAreZeroWeightInGridding: gridding a set with
// flagged samples must equal (exactly) gridding the same set with
// those samples zeroed and no flags — the definition of zero weight.
func TestFlaggedSamplesAreZeroWeightInGridding(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 5
	sc.nt = 16
	s := buildScenario(t, sc)
	s.fillFromModel(nil)

	// Reference: zero the victims by hand, no flags.
	zeroed := MustNewVisibilitySet(s.vs.Baselines, s.vs.UVW, s.vs.NrChannels)
	for b := range s.vs.Data {
		copy(zeroed.Data[b], s.vs.Data[b])
	}
	if n := flagEveryNth(s.vs, 7); n == 0 {
		t.Fatal("nothing flagged")
	}
	for b := range zeroed.Data {
		for i := range zeroed.Data[b] {
			if s.vs.Flags[b][i] {
				zeroed.Data[b][i] = [4]complex128{}
			}
		}
	}

	g1 := grid.NewGrid(s.plan.GridSize)
	if _, err := gridPlain(context.Background(), s.kernels, s.plan, s.vs, nil, g1); err != nil {
		t.Fatal(err)
	}
	g2 := grid.NewGrid(s.plan.GridSize)
	if _, err := gridPlain(context.Background(), s.kernels, s.plan, zeroed, nil, g2); err != nil {
		t.Fatal(err)
	}
	for c := range g1.Data {
		for i := range g1.Data[c] {
			if g1.Data[c][i] != g2.Data[c][i] {
				t.Fatalf("plane %d pixel %d: flagged %v, zeroed reference %v",
					c, i, g1.Data[c][i], g2.Data[c][i])
			}
		}
	}
}

// TestDegriddingWritesZerosAtFlaggedSamples: the degridder predicts
// zeros for flagged samples and normal values elsewhere.
func TestDegriddingWritesZerosAtFlaggedSamples(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 5
	sc.nt = 16
	s := buildScenario(t, sc)
	s.fillFromModel(nil)
	g := grid.NewGrid(s.plan.GridSize)
	if _, err := gridPlain(context.Background(), s.kernels, s.plan, s.vs, nil, g); err != nil {
		t.Fatal(err)
	}

	out := MustNewVisibilitySet(s.vs.Baselines, s.vs.UVW, s.vs.NrChannels)
	if flagEveryNth(out, 5) == 0 {
		t.Fatal("nothing flagged")
	}
	if _, err := degridPlain(context.Background(), s.kernels, s.plan, out, nil, g); err != nil {
		t.Fatal(err)
	}
	zeros, nonzeros := 0, 0
	for b := range out.Data {
		for i, v := range out.Data[b] {
			if out.Flags[b][i] {
				if v != ([4]complex128{}) {
					t.Fatalf("flagged sample (b %d, i %d) predicted nonzero: %v", b, i, v)
				}
				zeros++
			} else if v != ([4]complex128{}) {
				nonzeros++
			}
		}
	}
	if zeros == 0 || nonzeros == 0 {
		t.Fatalf("degenerate prediction: %d zeros, %d nonzeros", zeros, nonzeros)
	}
}

// TestGridderDegridderAdjointWithFlags: with M the flag projection
// (zero-weight mask), the masked pipelines stay exact adjoints:
// <G(M v), g> == <v, M D(g)>.
func TestGridderDegridderAdjointWithFlags(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 5
	sc.nt = 16
	s := buildScenario(t, sc)

	rnd := newTestRand(7)
	for b := range s.vs.Data {
		for i := range s.vs.Data[b] {
			for p := 0; p < 4; p++ {
				s.vs.Data[b][i][p] = complex(rnd(), rnd())
			}
		}
	}
	if flagEveryNth(s.vs, 3) == 0 {
		t.Fatal("nothing flagged")
	}
	g := grid.NewGrid(s.plan.GridSize)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(rnd(), rnd())
		}
	}

	gv := grid.NewGrid(s.plan.GridSize)
	if _, err := gridPlain(context.Background(), s.kernels, s.plan, s.vs, nil, gv); err != nil {
		t.Fatal(err)
	}
	var lhs complex128
	for c := range gv.Data {
		for i := range gv.Data[c] {
			lhs += gv.Data[c][i] * conj(g.Data[c][i])
		}
	}

	vsOut := MustNewVisibilitySet(s.vs.Baselines, s.vs.UVW, s.vs.NrChannels)
	vsOut.Flags = s.vs.Flags // same mask on the degridding side
	if _, err := degridPlain(context.Background(), s.kernels, s.plan, vsOut, nil, g); err != nil {
		t.Fatal(err)
	}
	// Flagged entries of vsOut are exactly zero, so summing over all
	// samples applies the mask on the right-hand side too.
	var rhs complex128
	for b := range s.vs.Data {
		for i := range s.vs.Data[b] {
			for p := 0; p < 4; p++ {
				rhs += s.vs.Data[b][i][p] * conj(vsOut.Data[b][i][p])
			}
		}
	}
	if d := cAbs(lhs-rhs) / cAbs(lhs); d > 1e-6 {
		t.Fatalf("masked adjoint violated: <G(Mv),g>=%v, <v,MD(g)>=%v (rel %g)", lhs, rhs, d)
	}
}

// TestAdderSplitterAdjoint: <Adder(S), g> == <S, Splitter(g)> over a
// batch of random subgrids, including nil slots left by degraded runs.
func TestAdderSplitterAdjoint(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 5
	sc.nt = 16
	s := buildScenario(t, sc)
	rnd := newTestRand(13)

	items := s.plan.Items
	if len(items) < 4 {
		t.Fatalf("plan too small: %d items", len(items))
	}
	subgrids := make([]*grid.Subgrid, len(items))
	for i, it := range items {
		if i%5 == 4 {
			continue // nil slot, as a skipped item would leave
		}
		sg := grid.NewSubgrid(s.plan.SubgridSize, it.X0, it.Y0)
		for c := range sg.Data {
			for j := range sg.Data[c] {
				sg.Data[c][j] = complex(rnd(), rnd())
			}
		}
		subgrids[i] = sg
	}
	g := grid.NewGrid(s.plan.GridSize)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(rnd(), rnd())
		}
	}

	// <Adder(S), g>
	added := grid.NewGrid(s.plan.GridSize)
	s.kernels.Adder(subgrids, added)
	var lhs complex128
	for c := range added.Data {
		for i := range added.Data[c] {
			lhs += added.Data[c][i] * conj(g.Data[c][i])
		}
	}

	// <S, Splitter(g)>
	split := make([]*grid.Subgrid, len(items))
	for i, it := range items {
		if subgrids[i] == nil {
			continue
		}
		split[i] = grid.NewSubgrid(s.plan.SubgridSize, it.X0, it.Y0)
	}
	s.kernels.Splitter(g, split)
	var rhs complex128
	for i := range subgrids {
		if subgrids[i] == nil {
			continue
		}
		for c := range subgrids[i].Data {
			for j := range subgrids[i].Data[c] {
				rhs += subgrids[i].Data[c][j] * conj(split[i].Data[c][j])
			}
		}
	}
	if d := cAbs(lhs-rhs) / cAbs(lhs); d > 1e-12 {
		t.Fatalf("adder/splitter adjoint violated: %v vs %v (rel %g)", lhs, rhs, d)
	}
}

// TestFlaggedRoundtripRecoversUnflaggedSamples: degrid(grid(model))
// with a flag mask predicts the model visibilities at unflagged
// samples as accurately as the unflagged roundtrip does.
func TestFlaggedRoundtripRecoversUnflaggedSamples(t *testing.T) {
	sc := defaultScenarioConfig()
	sc.nrStations = 5
	sc.nt = 16
	s := buildScenario(t, sc)
	s.fillFromModel(nil)
	if flagEveryNth(s.vs, 9) == 0 {
		t.Fatal("nothing flagged")
	}

	// Build the model image and degrid it through the flagged set.
	n := s.plan.GridSize
	img := s.model.Rasterize(n, s.plan.ImageSize)
	mg := ImageToGrid(img, 0)
	out := MustNewVisibilitySet(s.vs.Baselines, s.vs.UVW, s.vs.NrChannels)
	out.Flags = s.vs.Flags
	if _, err := degridPlain(context.Background(), s.kernels, s.plan, out, nil, mg); err != nil {
		t.Fatal(err)
	}

	// The flagged degrid must agree with the unflagged degrid at every
	// unflagged sample: the mask only zeroes its own entries.
	var maxErr float64
	ref := MustNewVisibilitySet(s.vs.Baselines, s.vs.UVW, s.vs.NrChannels)
	if _, err := degridPlain(context.Background(), s.kernels, s.plan, ref, nil, mg); err != nil {
		t.Fatal(err)
	}
	for b := range out.Data {
		for i := range out.Data[b] {
			if s.vs.Flags[b][i] {
				continue
			}
			for p := 0; p < 4; p++ {
				if d := cAbs(out.Data[b][i][p] - ref.Data[b][i][p]); d > maxErr {
					maxErr = d
				}
			}
		}
	}
	if maxErr != 0 {
		t.Fatalf("flag mask perturbed unflagged predictions by %g", maxErr)
	}
}
