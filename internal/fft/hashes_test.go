package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/xmath"
)

// -update rewrites testdata/transform_hashes.json from the current
// code on the scalar tier:
//
//	go test ./internal/fft/ -run TestTransformHashes -update
var updateHashes = flag.Bool("update", false, "rewrite testdata/transform_hashes.json")

const transformHashesFile = "testdata/transform_hashes.json"

// hashSizes covers every 2-D route: powers of two (the blocked column
// pass, 1024 at the benchmark grid size), 2/3/5-smooth sizes as one
// whole-plane tile (24) and in lane blocks (96), Bluestein (97) and an
// odd size on the explicit-shift path (15).
var hashSizes = []int{1024, 256, 16, 32, 24, 96, 97, 15}

func hashPlane(x ...[]complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, plane := range x {
		for _, v := range plane {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// transformHashes runs every public 2-D entry point on seeded planes
// of size n and returns the SHA-256 of each output, keyed by entry
// point, direction, worker count and placement.
func transformHashes(n int) map[string]string {
	p := NewPlan2D(n, n)
	src := randSignal(int64(4200+n), n*n)
	out := map[string]string{}
	key := func(s string) string { return fmt.Sprintf("n=%d/%s", n, s) }
	for _, inverse := range []bool{false, true} {
		dir := "forward"
		if inverse {
			dir = "inverse"
		}
		x := append([]complex128(nil), src...)
		if inverse {
			p.InverseCentered(x)
		} else {
			p.ForwardCentered(x)
		}
		out[key("Centered/"+dir)] = hashPlane(x)
		for _, workers := range []int{1, 3} {
			for _, inPlace := range []bool{true, false} {
				in := append([]complex128(nil), src...)
				dst := in
				place := "inplace"
				if !inPlace {
					dst = make([]complex128, n*n)
					place = "outofplace"
				}
				if inverse {
					p.InverseCenteredParallel(dst, in, workers)
				} else {
					p.ForwardCenteredParallel(dst, in, workers)
				}
				out[key(fmt.Sprintf("CenteredParallel/%s/workers=%d/%s", dir, workers, place))] = hashPlane(dst)
			}
		}
		planes := [][]complex128{append([]complex128(nil), src...), randSignal(int64(4300+n), n*n)}
		p.TransformPlanes(planes, inverse, 1/float64(n*n))
		out[key("TransformPlanes/"+dir)] = hashPlane(planes...)
	}
	return out
}

// TestTransformHashes pins the output bits of the 2-D transforms on
// every tier the host can execute: a change to the engine or the 2-D
// passes that only moves data or widens a vector must leave each hash
// as committed. In -short mode and under the race detector the sizes
// from 256 up are skipped.
func TestTransformHashes(t *testing.T) {
	defer func(orig func() xmath.SIMDTier) { planTier = orig }(planTier)
	sizes := hashSizes
	if testing.Short() || raceEnabled {
		sizes = nil
		for _, n := range hashSizes {
			if n < 256 {
				sizes = append(sizes, n)
			}
		}
	}
	if *updateHashes {
		planTier = func() xmath.SIMDTier { return xmath.SIMDScalar }
		all := map[string]string{}
		for _, n := range hashSizes {
			for k, v := range transformHashes(n) {
				all[k] = v
			}
		}
		buf, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transformHashesFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(transformHashesFile)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fft/ -run TestTransformHashes -update` to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []xmath.SIMDTier{xmath.SIMDScalar, xmath.SIMDAVX2, xmath.SIMDAVX512} {
		if tier > xmath.DetectedSIMD() {
			continue
		}
		tier := tier
		planTier = func() xmath.SIMDTier { return tier }
		for _, n := range sizes {
			got := transformHashes(n)
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if w, ok := want[k]; !ok {
					t.Errorf("tier %v: %s missing from %s", tier, k, transformHashesFile)
				} else if got[k] != w {
					t.Errorf("tier %v: %s = %s, want %s", tier, k, got[k], w)
				}
			}
		}
	}
}
