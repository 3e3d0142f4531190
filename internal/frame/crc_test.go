package frame

import (
	"hash/crc64"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/xmath"
)

// TestCLMULConstants derives the folding constants: x^d mod P by
// shift-and-reduce over the ECMA polynomial, bit-reversed.
func TestCLMULConstants(t *testing.T) {
	xPowMod := func(d int) uint64 {
		const poly = 0x42F0E1EBA9EA3693 // P = x^64 + poly
		r := uint64(1)
		for i := 0; i < d; i++ {
			carry := r >> 63
			r <<= 1
			if carry != 0 {
				r ^= poly
			}
		}
		return r
	}
	fold := func(dist int) []uint64 {
		return []uint64{bits.Reverse64(xPowMod(dist + 63)), bits.Reverse64(xPowMod(dist - 1))}
	}
	var want []uint64
	for _, d := range [][]uint64{fold(512), fold(128)} {
		want = append(want, d...)
	}
	for i, k := range clmulK {
		if k != want[i] {
			t.Errorf("clmulK[%d] = %#016x, derived %#016x", i, k, want[i])
		}
	}
}

// testPaths is the folding routine when this host runs it, then the
// table alone.
func testPaths() []bool {
	if hasCLMUL {
		return []bool{true, false}
	}
	return []bool{false}
}

func pathName(clmul bool) string {
	if clmul {
		return "pclmulqdq"
	}
	return "table"
}

// TestCRCMatchesTable: the folding routine, when the host has it, gives
// hash/crc64's ECMA value for every length 0-1024 at every start
// alignment 0-63, over chained updates split at random points, and
// over 4 MB buffers.
func TestCRCMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4<<20+64)
	rng.Read(buf)
	for _, clmul := range testPaths() {
		t.Run(pathName(clmul), func(t *testing.T) {
			for align := 0; align < 64; align++ {
				for n := 0; n <= 1024; n++ {
					p := buf[align : align+n]
					seed := uint64(n) * 0x9e3779b97f4a7c15
					if got, want := update(clmul, seed, p), crc64.Update(seed, crcTable, p); got != want {
						t.Fatalf("len %d at alignment %d: %016x, table %016x", n, align, got, want)
					}
				}
			}
			for trial := 0; trial < 50; trial++ {
				p := buf[rng.Intn(64):][:rng.Intn(8192)]
				want := crc64.Update(0, crcTable, p)
				got := uint64(0)
				for rest := p; len(rest) > 0; {
					k := min(len(rest), rng.Intn(700))
					got, rest = update(clmul, got, rest[:k]), rest[k:]
				}
				if got != want {
					t.Fatalf("chained updates over %d bytes: %016x, one table update %016x", len(p), got, want)
				}
			}
			for _, p := range [][]byte{buf[:4<<20], buf[13 : 13+4<<20]} {
				if got, want := update(clmul, 0, p), crc64.Checksum(p, crcTable); got != want {
					t.Fatalf("4 MB buffer: %016x, table %016x", got, want)
				}
			}
		})
	}
}

// TestCRCFollowsActiveTier: the scalar tier computes every CRC with the
// table, the wider tiers by carry-less multiply when the host has it.
func TestCRCFollowsActiveTier(t *testing.T) {
	if want := hasCLMUL && xmath.ActiveSIMD() >= xmath.SIMDAVX2; useCLMUL != want {
		t.Fatalf("tier %v selected %s, want %s", xmath.ActiveSIMD(), pathName(useCLMUL), pathName(want))
	}
	t.Logf("tier %v: %s", xmath.ActiveSIMD(), pathName(useCLMUL))
}

// BenchmarkCRC measures each path on a 4 MB buffer.
func BenchmarkCRC(b *testing.B) {
	buf := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(buf)
	for _, clmul := range testPaths() {
		b.Run(pathName(clmul), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				update(clmul, 0, buf)
			}
		})
	}
}
