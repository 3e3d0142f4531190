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
			if part.Plan, err = part.PartitionPlan(DistribRows, 2, 0); err != nil {
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
	for _, axis := range []DistribAxis{DistribRows, DistribWPlanes} {
		for i := 0; i < 3; i++ {
			a, err := distrib.FilterPlan(shared.plan, axis, 3, i)
			if err != nil {
				t.Fatal(err)
			}
			b, err := own.PartitionPlan(axis, 3, i)
			if err != nil {
				t.Fatal(err)
			}
			if checkpoint.PlanFingerprint(a) != checkpoint.PlanFingerprint(b) {
				t.Errorf("%v worker %d/3: shared-geometry sub-plan differs from the worker's own", axis, i)
			}
		}
	}
}

// TestDistribBuildsGeometryOnce: with the default launcher a
// distributed run builds one plan, however many workers it starts; a
// worker on its own (RunDistribWorker, what cmd/idgworker runs) builds
// its own.
func TestDistribBuildsGeometryOnce(t *testing.T) {
	opt := distribGoldenOptions(t, 3, DistribRows)
	before := geometryBuilds.Load()
	if _, _, err := RunDistributed(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if n := geometryBuilds.Load() - before; n != 1 {
		t.Errorf("a 3-worker in-process run built the geometry %d times, want 1", n)
	}
	before = geometryBuilds.Load()
	opt.Launcher = DistribLauncherFunc(func(ctx context.Context, spec DistribWorkerSpec) error {
		_, err := RunDistribWorker(ctx, DistribWorkerOptions{
			Config: opt.Config, Model: opt.Model, Workers: spec.Workers, Index: spec.Index, Axis: spec.Axis,
			CoordinatorAddr: spec.CoordinatorAddr, ReferenceKernels: true,
		})
		return err
	})
	if _, _, err := RunDistributed(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if n := geometryBuilds.Load() - before; n != 4 {
		t.Errorf("coordinator plus 3 self-building workers built the geometry %d times, want 4", n)
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
	want := StandardSkyModel(o, 3)
	if len(got) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("config-derived model %v, the built observation's %v", got, want)
	}
	bad := cfg
	bad.NrStations = 1
	if _, err := bad.StandardSkyModel(3); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("an invalid config gives %v, want ErrInvalidConfig", err)
	}
}

// TestDistribSummaryShortcuts: a one-worker run's Final is the
// worker's coordinator-verified fingerprint and the returned grid's
// fresh hash at once; a multi-worker run's Final is the fresh hash of
// the reduced grid; and the stage times RunDistributed reports are
// non-negative, include the plan, and fit inside the run's wall time.
func TestDistribSummaryShortcuts(t *testing.T) {
	for _, workers := range []int{1, 3} {
		start := time.Now()
		g, sum, err := RunDistributed(context.Background(), distribGoldenOptions(t, workers, DistribRows))
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		fresh := g.Fingerprint()
		if sum.Final != fresh {
			t.Errorf("workers=%d: Summary.Final is not the returned grid's fingerprint", workers)
		}
		if workers == 1 && sum.Final != sum.WorkerFingerprints[0] {
			t.Error("one-worker Final differs from the worker's verified fingerprint")
		}
		if hex.EncodeToString(fresh.SHA256[:]) != FingerprintGrid(g).SHA256 {
			t.Error("distrib and facade fingerprints disagree on the same grid")
		}
		st := sum.Stages
		total := time.Duration(0)
		for _, d := range []time.Duration{st.Plan, st.Launch, st.Receive, st.Verify, st.Reduce, st.FinalHash} {
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

// TestWriteGridBinaryMatchesReflectionEncoding: the chunked writer
// emits byte for byte what encoding/binary's reflection path emitted
// for the planes, special values included; the bytes hash to
// FingerprintGrid's SHA-256; and a warm call allocates nothing.
func TestWriteGridBinaryMatchesReflectionEncoding(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.MaxFloat64,
	}
	for _, n := range []int{1, 24, 256} {
		g := NewGrid(n)
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
		for c := range g.Data {
			if err := binary.Write(&want, binary.LittleEndian, g.Data[c]); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteGridBinary(&got, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: WriteGridBinary differs from binary.Write of the planes", n)
		}
		sum := sha256.Sum256(got.Bytes())
		if hex.EncodeToString(sum[:]) != FingerprintGrid(g).SHA256 {
			t.Fatalf("n=%d: written bytes do not hash to FingerprintGrid's SHA-256", n)
		}
		if !raceEnabled {
			if a := testing.AllocsPerRun(5, func() { WriteGridBinary(io.Discard, g) }); a != 0 {
				t.Errorf("n=%d: WriteGridBinary allocates %.0f times per call", n, a)
			}
		}
	}
	if err := WriteGridBinary(failWriter{}, NewGrid(8)); err == nil {
		t.Error("writer error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("closed pipe") }
