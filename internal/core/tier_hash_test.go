package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/grid"
)

// -update-tier-hashes regenerates testdata/tier_hashes.json:
//
//	go test ./internal/core -run TestLowerTiersMatchRecordedHashes -update-tier-hashes
//
// The avx512 keys were generated at the commit before the avx2 tier took
// the avx512 kernel family, the avx2 keys with it, and the scalar keys
// when the scalar tier took the same tiles in Go: every scalar float64
// key equals its avx2 key. Regenerate the file only with a change that
// means to move bits, and check that the keys of every other tier come
// back as they were.
var updateTierHashes = flag.Bool("update-tier-hashes", false, "rewrite the per-tier hash file")

const tierHashFile = "testdata/tier_hashes.json"

// tierHash is the fingerprint of one one-worker pass pair: the grid
// GridVisibilities leaves and the visibilities DegridVisibilities
// predicts back from it.
type tierHash struct {
	Grid string `json:"grid"`
	Vis  string `json:"vis"`
}

// hashVisibilities hashes the float64 bits of every visibility
// component in baseline, sample, correlation order.
func hashVisibilities(vs *VisibilitySet) string {
	h := sha256.New()
	var b [16]byte
	for _, row := range vs.Data {
		for _, v := range row {
			for _, c := range v {
				binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(c)))
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLowerTiersMatchRecordedHashes pins every tier's bits, so that a
// change to the bodies of one tier visibly leaves the others alone: each
// tier the host has — scalar, avx2, avx512 — is forced in-process, grids
// and degrids one small seeded observation per precision on one worker
// (so the accumulation order is the serial one), and must reproduce the
// recorded SHA-256 of the grid and of the predicted visibilities. The
// channel counts (16, 37, 5) are the ones the first keys were recorded
// at; every tier runs all three through the phasor recurrence.
func TestLowerTiersMatchRecordedHashes(t *testing.T) {
	got := map[string]tierHash{}
	for _, tier := range coreHostTiers() {
		for _, prec := range []Precision{Float64, Float32} {
			for _, nc := range []int{16, 37, 5} {
				sc := defaultScenarioConfig()
				sc.nt, sc.nc, sc.subgridSize, sc.tmax = 32, nc, 24, 16
				s := buildScenario(t, sc)
				s.fillFromModel(nil)
				params := s.kernels.Params()
				params.Workers, params.Precision = 1, prec
				forceTier(tier)(&params)
				k, err := NewKernels(params)
				if err != nil {
					t.Fatal(err)
				}
				g := grid.NewGrid(s.plan.GridSize)
				if _, err := k.GridVisibilities(context.Background(), s.plan, s.vs, nil, g); err != nil {
					t.Fatal(err)
				}
				fp := g.Fingerprint()
				if fp.Nonzero == 0 {
					t.Fatal("gridded observation produced an all-zero grid")
				}
				if _, err := k.DegridVisibilities(context.Background(), s.plan, s.vs, nil, g); err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%v/%v/nc=%d", tier, prec, nc)] = tierHash{
					Grid: hex.EncodeToString(fp.SHA256[:]),
					Vis:  hashVisibilities(s.vs),
				}
			}
		}
	}

	if *updateTierHashes {
		if err := os.MkdirAll(filepath.Dir(tierHashFile), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tierHashFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", tierHashFile, len(got))
		return
	}

	data, err := os.ReadFile(tierHashFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]tierHash
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	// The scalar tier's float64 Go lanes are avx2's bits, as recorded.
	for key, w := range want {
		if rest, ok := strings.CutPrefix(key, "scalar/float64/"); ok && w != want["avx2/float64/"+rest] {
			t.Errorf("%s: recorded %+v, avx2 recorded %+v", key, w, want["avx2/float64/"+rest])
		}
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no recorded hash", key)
		} else if g != w {
			t.Errorf("%s: bits moved\n got: %+v\nwant: %+v", key, g, w)
		}
	}
}
