package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/distrib"
	"repro/internal/grid"
)

// The distributed run's harness: the pieces around the gridding pass —
// one geometry per run, the sharded bit-exact fill, the canonical grid
// bytes — each pinned to the serial, per-cell or per-sample form it
// replaced, so a wrong hoist or a wrong chunk boundary fails here and
// not in a golden hash three layers up.

func matrixBits(m Matrix2) (b [8]uint64) {
	for i, v := range m {
		b[2*i], b[2*i+1] = math.Float64bits(real(v)), math.Float64bits(imag(v))
	}
	return b
}

// polarisedModel has every Stokes parameter set on sources away from
// the phase centre, so a brightness matrix hoisted wrongly (or an n
// taken from the wrong source) changes bits.
func polarisedModel(o *Observation) SkyModel {
	pix := o.ImageSize / float64(o.Config.GridSize)
	return SkyModel{
		{L: 20 * pix, M: -12 * pix, I: 1, Q: 0.2, U: -0.1, V: 0.05},
		{L: -36 * pix, M: 26 * pix, I: 0.5, Q: -0.3, U: 0.25, V: -0.4},
		{L: 8 * pix, M: 44 * pix, I: 0.25, V: 0.25},
	}
}

// TestFillMatchesPredictPerSample: at every worker count both fills
// give each covered sample exactly sky.Model.Predict's bits — for a
// polarised model and for the empty one — and the plan-scoped fill
// leaves every sample outside the plan exactly zero.
func TestFillMatchesPredictPerSample(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		cfg := distribGoldenConfig()
		cfg.Workers = workers
		full, err := cfg.BuildPlan()
		if err != nil {
			t.Fatal(err)
		}
		freqs := cfg.Frequencies()
		for name, model := range map[string]SkyModel{"polarised": polarisedModel(full), "empty": nil} {
			part, err := cfg.BuildPlan()
			if err != nil {
				t.Fatal(err)
			}
			if part.Plan, err = distrib.FilterPlan(part.Plan, DistribRows, 2, 0); err != nil {
				t.Fatal(err)
			}
			if err := full.FillFromModel(model); err != nil {
				t.Fatal(err)
			}
			if err := part.FillFromModelPlan(model); err != nil {
				t.Fatal(err)
			}
			covered := make([][]bool, len(part.Vis.Data))
			for b := range covered {
				covered[b] = make([]bool, len(part.Vis.Data[b]))
			}
			for i := range part.Plan.Items {
				it := &part.Plan.Items[i]
				for ts := it.TimeStart; ts < it.TimeStart+it.NrTimesteps; ts++ {
					for ch := it.Channel0; ch < it.Channel0+it.NrChannels; ch++ {
						covered[it.Baseline][ts*cfg.NrChannels+ch] = true
					}
				}
			}
			nCovered := 0
			for b := range full.Vis.Data {
				for i := range full.Vis.Data[b] {
					sc := full.Vis.UVW[b][i/cfg.NrChannels].Scale(freqs[i%cfg.NrChannels])
					want := matrixBits(model.Predict(sc.U, sc.V, sc.W))
					if got := matrixBits(full.Vis.Data[b][i]); got != want {
						t.Fatalf("workers=%d %s: FillFromModel sample [%d][%d] = %x, Predict %x", workers, name, b, i, got, want)
					}
					if !covered[b][i] {
						want = [8]uint64{}
					} else {
						nCovered++
					}
					if got := matrixBits(part.Vis.Data[b][i]); got != want {
						t.Fatalf("workers=%d %s: FillFromModelPlan sample [%d][%d] (covered=%v) = %x, want %x",
							workers, name, b, i, covered[b][i], got, want)
					}
				}
			}
			if total := len(full.Vis.Data) * len(full.Vis.Data[0]); nCovered == 0 || nCovered == total {
				t.Fatalf("partition covers %d of %d samples; the test needs both kinds", nCovered, total)
			}
		}
	}
}

// TestFillChannelBlocks: items that cover part of a baseline's
// channels — the planner splits long baselines over a wide band so —
// are predicted through a scratch block and copied row by row. Every
// covered sample gets Model.Predict's bits, and the channels outside
// the items stay zero.
func TestFillChannelBlocks(t *testing.T) {
	cfg := distribGoldenConfig()
	cfg.Workers = 3
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	p := *o.Plan
	p.Items = nil
	for i, it := range o.Plan.Items {
		it.Channel0, it.NrChannels = i%3, 1+i%2 // within the 4 channels
		p.Items = append(p.Items, it)
	}
	o.Plan = &p
	model := polarisedModel(o)
	if err := o.FillFromModelPlan(model); err != nil {
		t.Fatal(err)
	}
	covered := map[[2]int]bool{}
	for _, it := range p.Items {
		for ts := it.TimeStart; ts < it.TimeStart+it.NrTimesteps; ts++ {
			for ch := it.Channel0; ch < it.Channel0+it.NrChannels; ch++ {
				covered[[2]int{it.Baseline, ts*cfg.NrChannels + ch}] = true
			}
		}
	}
	freqs := cfg.Frequencies()
	for b := range o.Vis.Data {
		for i, got := range o.Vis.Data[b] {
			var want [8]uint64
			if covered[[2]int{b, i}] {
				sc := o.Vis.UVW[b][i/cfg.NrChannels].Scale(freqs[i%cfg.NrChannels])
				want = matrixBits(model.Predict(sc.U, sc.V, sc.W))
			}
			if matrixBits(got) != want {
				t.Fatalf("sample [%d][%d] (covered=%v) = %x, want %x", b, i, covered[[2]int{b, i}], matrixBits(got), want)
			}
		}
	}
}

// TestDistribRowSplitBalanced pins the visibility-balanced row bands
// on the benchmark's dense plan: at two workers the larger band holds
// at most 51 % of the visibilities (equal rows gave worker 1 56.5 %).
func TestDistribRowSplitBalanced(t *testing.T) {
	o, err := DefaultObservation().BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	total := o.Plan.Stats().NrGriddedVisibilities
	for w := 0; w < 2; w++ {
		sub, err := distrib.FilterPlan(o.Plan, DistribRows, 2, w)
		if err != nil {
			t.Fatal(err)
		}
		share := float64(sub.Stats().NrGriddedVisibilities) / float64(total)
		if share > 0.51 {
			t.Errorf("worker %d of 2 holds %.1f %% of the dense plan's visibilities, want <= 51 %%", w, 100*share)
		}
		baselines := make(map[int]bool)
		for _, it := range sub.Items {
			baselines[it.Baseline] = true
		}
		t.Logf("worker %d of 2: %.2f %% of the visibilities, %d baselines", w, 100*share, len(baselines))
	}
}

// TestPartitionVisibilityStorage: a worker holds visibility rows for
// exactly the baselines its sub-plan grids, and its fill and pass over
// them give the partial a full visibility set gives, bit for bit.
func TestPartitionVisibilityStorage(t *testing.T) {
	opt := distribGoldenOptions(t, 2, DistribRows)
	for w := 0; w < 2; w++ {
		build := func() *Observation {
			o, err := opt.Config.BuildPlan()
			if err != nil {
				t.Fatal(err)
			}
			if o.Plan, err = distrib.FilterPlan(o.Plan, DistribRows, 2, w); err != nil {
				t.Fatal(err)
			}
			return o
		}
		part, full := build(), build()
		if err := part.allocatePartitionVisibilities(); err != nil {
			t.Fatal(err)
		}
		gridded := make(map[int]bool)
		for _, it := range part.Plan.Items {
			gridded[it.Baseline] = true
		}
		for b, row := range part.Vis.Data {
			if want := gridded[b]; (row != nil) != want || (want && len(row) != part.Vis.NrTimesteps*part.Vis.NrChannels) {
				t.Fatalf("worker %d: baseline %d holds %d samples, gridded=%v", w, b, len(row), want)
			}
		}
		if want := int64(len(gridded) * part.Vis.NrTimesteps * part.Vis.NrChannels); part.Vis.NrVisibilities() != want {
			t.Fatalf("worker %d: NrVisibilities %d, want %d for %d backed baselines", w, part.Vis.NrVisibilities(), want, len(gridded))
		}
		t.Logf("worker %d of 2 holds %d of %d baselines", w, len(gridded), len(part.Vis.Data))
		var prints [2]grid.Fingerprint
		for i, o := range []*Observation{part, full} {
			if err := o.FillFromModelPlan(opt.Model); err != nil {
				t.Fatal(err)
			}
			g, _, _, err := o.gridPass(context.Background(), nil, FaultConfig{}, false)
			if err != nil {
				t.Fatal(err)
			}
			prints[i] = g.Fingerprint()
		}
		if prints[0] != prints[1] {
			t.Errorf("worker %d: the partition's storage grids %x, a full set %x", w, prints[0].SHA256[:6], prints[1].SHA256[:6])
		}
	}
}

// TestPlanIndependentOfBuilderThreads: the plan BuildPlan returns does
// not depend on Config.Workers, and the geometry a coordinator builds
// on every core gives each worker the sub-plan fingerprint that worker
// would compute from its own build.
func TestPlanIndependentOfBuilderThreads(t *testing.T) {
	cfg := distribGoldenConfig()
	cfg.WStepLambda = 40
	var want [32]byte
	for i, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		o, err := cfg.BuildPlan()
		if err != nil {
			t.Fatal(err)
		}
		if got := checkpoint.PlanFingerprint(o.Plan); i == 0 {
			want = got
		} else if got != want {
			t.Errorf("BuildPlan at Workers=%d fingerprints %x, at Workers=1 %x", workers, got[:6], want[:6])
		}
	}
	cfg.Workers = 1
	shared, err := cfg.buildGeometry(0)
	if err != nil {
		t.Fatal(err)
	}
	own, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	for _, axis := range []DistribAxis{distrib.AxisRows, distrib.AxisWPlanes} {
		for i := 0; i < 3; i++ {
			a, err := distrib.FilterPlan(shared.plan, axis, 3, i)
			if err != nil {
				t.Fatal(err)
			}
			b, err := distrib.FilterPlan(own.Plan, axis, 3, i)
			if err != nil {
				t.Fatal(err)
			}
			if checkpoint.PlanFingerprint(a) != checkpoint.PlanFingerprint(b) {
				t.Errorf("%v worker %d/3: shared-geometry sub-plan differs from the worker's own", axis, i)
			}
		}
	}
}

// TestDistribBuildsGeometryOnce: a distributed run takes its geometry
// from the plan cache. After a reset the first run of a config builds
// one geometry, however many in-process workers it starts, and a second
// run builds none; changing any one field of the plan key misses; and a
// coordinator whose workers build their own (RunDistribWorker, what
// cmd/idgworker runs) still makes four builds for three workers on a
// cold cache.
func TestDistribBuildsGeometryOnce(t *testing.T) {
	opt := distribGoldenOptions(t, 3, DistribRows)
	run := func(opt DistribOptions) (builds int64) {
		t.Helper()
		before := geometryBuilds.Load()
		if _, _, err := RunDistributed(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		return geometryBuilds.Load() - before
	}
	resetServerPlanCache()
	if n := run(opt); n != 1 {
		t.Errorf("a cold 3-worker in-process run built the geometry %d times, want 1", n)
	}
	if n := run(opt); n != 0 {
		t.Errorf("a repeated run built the geometry %d times, want 0", n)
	}
	if hits, misses := ServerPlanCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("plan cache saw %d hits / %d misses over two runs, want 1 / 1", hits, misses)
	}

	for name, edit := range map[string]func(*ObservationConfig){
		"NrStations":             func(c *ObservationConfig) { c.NrStations++ },
		"NrTimesteps":            func(c *ObservationConfig) { c.NrTimesteps++ },
		"NrChannels":             func(c *ObservationConfig) { c.NrChannels++ },
		"StartFrequency":         func(c *ObservationConfig) { c.StartFrequency += 1e3 },
		"ChannelWidth":           func(c *ObservationConfig) { c.ChannelWidth += 1e3 },
		"GridSize":               func(c *ObservationConfig) { c.GridSize += 32 },
		"SubgridSize":            func(c *ObservationConfig) { c.SubgridSize += 8 },
		"KernelSupport":          func(c *ObservationConfig) { c.KernelSupport++ },
		"GridMargin":             func(c *ObservationConfig) { c.GridMargin++ },
		"ATermInterval":          func(c *ObservationConfig) { c.ATermInterval *= 2 },
		"MaxTimestepsPerSubgrid": func(c *ObservationConfig) { c.MaxTimestepsPerSubgrid = 8 },
		"WStepLambda":            func(c *ObservationConfig) { c.WStepLambda = 40 },
		"CoreOnly":               func(c *ObservationConfig) { c.CoreOnly = true },
		"HourAngleStartDeg":      func(c *ObservationConfig) { c.HourAngleStartDeg = -30 },
		"Workers":                func(c *ObservationConfig) { c.Workers++ },
	} {
		cfg := opt.Config
		edit(&cfg)
		if planKey(cfg) == planKey(opt.Config) {
			t.Errorf("%s: the plan key does not change", name)
			continue
		}
		_, misses := ServerPlanCacheStats()
		if _, err := cfg.cachedGeometry(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, after := ServerPlanCacheStats(); after != misses+1 {
			t.Errorf("%s: a config differing in it did not miss the plan cache", name)
		}
	}

	resetServerPlanCache()
	opt.Launcher = DistribLauncherFunc(func(ctx context.Context, spec DistribWorkerSpec) error {
		_, err := RunDistribWorker(ctx, DistribWorkerOptions{
			Config: opt.Config, Model: opt.Model, Workers: spec.Workers, Index: spec.Index, Axis: spec.Axis,
			CoordinatorAddr: spec.CoordinatorAddr,
		})
		return err
	})
	if n := run(opt); n != 4 {
		t.Errorf("coordinator plus 3 self-building workers built the geometry %d times, want 4", n)
	}
}

// TestDistribSharesServerPlanCache: a server session and a distributed
// run of one configuration share one plan-cache entry, in either order
// and concurrently (the raced CI pass runs this): one build, the other
// user a hit, and both grids right — the run's against the golden hash
// a one-worker run pins, the session's against a local pass over the
// same samples.
func TestDistribSharesServerPlanCache(t *testing.T) {
	opt := distribGoldenOptions(t, 1, DistribRows)
	want := goldenSHA(t)
	scfg := sessionConfigFor(opt.Config)
	local, err := opt.Config.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := local.FillFromModel(opt.Model); err != nil {
		t.Fatal(err)
	}
	g, _, _, err := local.GridAllStreamed(context.Background(), nil, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantSession := FingerprintGrid(g).SHA256

	session := func() error {
		bs, err := (&ServerBackend{}).Open(scfg)
		if err != nil {
			return err
		}
		s := bs.(*backendSession)
		if err := s.o.FillFromModel(opt.Model); err != nil {
			return err
		}
		res, err := s.Run(context.Background())
		if err != nil {
			return err
		}
		if res.SHA256 != wantSession {
			return fmt.Errorf("session grid %s, local pass %s", res.SHA256, wantSession)
		}
		return nil
	}
	distributed := func() error {
		g, _, err := RunDistributed(context.Background(), opt)
		if err != nil {
			return err
		}
		if got := FingerprintGrid(g).SHA256; got != want {
			return fmt.Errorf("distributed grid %s, golden %s", got, want)
		}
		return nil
	}
	for _, order := range []string{"session first", "run first", "concurrent"} {
		resetServerPlanCache()
		before := geometryBuilds.Load()
		errs := make(chan error, 2)
		switch order {
		case "session first":
			errs <- session()
			errs <- distributed()
		case "run first":
			errs <- distributed()
			errs <- session()
		default:
			go func() { errs <- session() }()
			go func() { errs <- distributed() }()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Errorf("%s: %v", order, err)
			}
		}
		hits, misses := ServerPlanCacheStats()
		builds := geometryBuilds.Load() - before
		// Concurrent users may both miss and build; the first stored
		// entry wins and the other build is dropped.
		if order != "concurrent" && (hits != 1 || misses != 1 || builds != 1) {
			t.Errorf("%s: %d hits / %d misses / %d builds, want 1 / 1 / 1", order, hits, misses, builds)
		}
		if hits+misses != 2 {
			t.Errorf("%s: %d cache lookups for two users, want 2", order, hits+misses)
		}
		planCacheMu.RLock()
		entries := len(planCache)
		planCacheMu.RUnlock()
		if entries != 1 {
			t.Errorf("%s: %d plan-cache entries, want the one both share", order, entries)
		}
	}
}

// TestConfigSkyModelBuildsNoPlan: the model cmd/idgworker derives from
// its flags alone (ObservationConfig.StandardSkyModel) is the built
// observation's, bit for bit, and costs no plan build — with the
// checkpoint knobs set as the worker sets them, which a config without
// its directory would fail to validate.
func TestConfigSkyModelBuildsNoPlan(t *testing.T) {
	cfg := distribGoldenConfig()
	cfg.CheckpointDir, cfg.CheckpointEvery = t.TempDir(), 2
	before := geometryBuilds.Load()
	got, err := cfg.StandardSkyModel(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := geometryBuilds.Load() - before; n != 0 {
		t.Errorf("deriving the model from the config built the geometry %d times, want 0", n)
	}
	o, err := cfg.BuildPlan()
	if err != nil {
		t.Fatal(err)
	}
	want := standardSkyModel(o.ImageSize/float64(o.Config.GridSize), 3)
	if len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("config-derived model %v, the built observation's %v", got, want)
	}
	bad := cfg
	bad.NrStations = 1
	if _, err := bad.StandardSkyModel(3); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("an invalid config gives %v, want ErrInvalidConfig", err)
	}
}

// TestDistribSummaryStages: a run's summary holds each worker's band
// fingerprint — for one worker, the band of the returned grid's nonzero
// span — and the stage times RunDistributed reports are non-negative,
// include the plan, and fit inside the run's wall time.
func TestDistribSummaryStages(t *testing.T) {
	for _, workers := range []int{1, 3} {
		start := time.Now()
		g, sum, err := RunDistributed(context.Background(), distribGoldenOptions(t, workers, DistribRows))
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.WorkerFingerprints) != workers {
			t.Fatalf("workers=%d: %d worker fingerprints", workers, len(sum.WorkerFingerprints))
		}
		if workers == 1 && sum.WorkerFingerprints[0] != g.Rows(grid.NonzeroRowSpan(g)).Fingerprint() {
			t.Error("one-worker run: the accepted band fingerprint is not the returned grid's span")
		}
		st := sum.Stages
		total := time.Duration(0)
		for _, d := range []time.Duration{st.Plan, st.Launch, st.Receive, st.Verify, st.Reduce} {
			if d < 0 {
				t.Errorf("workers=%d: negative stage in %+v", workers, st)
			}
			total += d
		}
		if st.Plan == 0 || total > wall {
			t.Errorf("workers=%d: stages %+v (sum %v) against a wall of %v", workers, st, total, wall)
		}
	}
}

// TestDistribSummaryWorkerTimes: a run's summary holds one stage-time
// entry per worker — measured for in-process workers, each summing to
// no more than the run's wall time, and zero for workers a custom
// launcher ran.
func TestDistribSummaryWorkerTimes(t *testing.T) {
	for _, workers := range []int{1, 3} {
		start := time.Now()
		_, sum, err := RunDistributed(context.Background(), distribGoldenOptions(t, workers, DistribRows))
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.WorkerTimes) != workers {
			t.Fatalf("workers=%d: %d stage-time entries", workers, len(sum.WorkerTimes))
		}
		for i, wt := range sum.WorkerTimes {
			total := wt.Build + wt.Fill + wt.Grid + wt.Deliver
			if wt.Fill <= 0 || wt.Grid <= 0 || wt.Deliver <= 0 || total > wall {
				t.Errorf("workers=%d: worker %d times %+v (sum %v) against a wall of %v", workers, i, wt, total, wall)
			}
		}
	}
	opt := distribGoldenOptions(t, 2, DistribRows)
	opt.Launcher = DistribLauncherFunc(func(ctx context.Context, spec DistribWorkerSpec) error {
		_, err := RunDistribWorker(ctx, DistribWorkerOptions{
			Config: opt.Config, Model: opt.Model, Workers: spec.Workers, Index: spec.Index, Axis: spec.Axis,
			CoordinatorAddr: spec.CoordinatorAddr,
		})
		return err
	})
	_, sum, err := RunDistributed(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := make([]DistribWorkerTimes, 2); !reflect.DeepEqual(sum.WorkerTimes, want) {
		t.Errorf("custom-launcher run reports worker times %+v, want zero entries", sum.WorkerTimes)
	}
}

// TestWriteGridBinaryMatchesReflectionEncoding: the chunked writer
// emits byte for byte the grid stream spelled out with
// encoding/binary's reflection path — each cell that is not all-zero
// bits after the uvarint count of the zero cells before it, then the
// trailing count — special values included; the bytes hash to
// FingerprintGrid's SHA-256, count its GridBytes and decode to the
// grid bit for bit; and a warm call allocates nothing.
func TestWriteGridBinaryMatchesReflectionEncoding(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.MaxFloat64,
	}
	for _, n := range []int{1, 24, 256} {
		g := grid.NewGrid(n)
		rnd := newTestRand(uint64(n))
		for c := range g.Data {
			for i := range g.Data[c] {
				if i%3 != 0 {
					g.Data[c][i] = complex(rnd(), rnd())
				}
			}
			for i, s := range specials {
				g.Data[c][(c+i*5)%len(g.Data[c])] = complex(s, specials[(i+c)%len(specials)])
			}
		}
		var want, got bytes.Buffer
		var run uint64
		for c := range g.Data {
			for _, v := range g.Data[c] {
				if math.Float64bits(real(v))|math.Float64bits(imag(v)) == 0 {
					run++
					continue
				}
				want.Write(binary.AppendUvarint(nil, run))
				if err := binary.Write(&want, binary.LittleEndian, v); err != nil {
					t.Fatal(err)
				}
				run = 0
			}
		}
		want.Write(binary.AppendUvarint(nil, run))
		if err := WriteGridBinary(&got, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: WriteGridBinary differs from the stream spelled out with binary.Write", n)
		}
		sum := sha256.Sum256(got.Bytes())
		if fp := FingerprintGrid(g); hex.EncodeToString(sum[:]) != fp.SHA256 || int64(got.Len()) != fp.GridBytes {
			t.Fatalf("n=%d: %d written bytes do not hash to FingerprintGrid's SHA-256 or count its %d", n, got.Len(), fp.GridBytes)
		}
		back, err := grid.ReadStream(bytes.NewReader(got.Bytes()), n)
		if err != nil {
			t.Fatal(err)
		}
		for c := range g.Data {
			for i, v := range g.Data[c] {
				if w := back.Data[c][i]; math.Float64bits(real(w)) != math.Float64bits(real(v)) || math.Float64bits(imag(w)) != math.Float64bits(imag(v)) {
					t.Fatalf("n=%d: plane %d cell %d decoded as %v, written %v", n, c, i, w, v)
				}
			}
		}
		if !raceEnabled {
			if a := testing.AllocsPerRun(5, func() { WriteGridBinary(io.Discard, g) }); a != 0 {
				t.Errorf("n=%d: WriteGridBinary allocates %.0f times per call", n, a)
			}
		}
	}
	if err := WriteGridBinary(failWriter{}, grid.NewGrid(8)); err == nil {
		t.Error("writer error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("closed pipe") }
