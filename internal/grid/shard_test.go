package grid

import (
	"math/rand"
	"sync"
	"testing"
)

// eachShard runs op over every shard s overlaps, as the sharded adder
// does, and counts the locks taken and how many were contended.
func eachShard(sh *Sharded, s *Subgrid, op func(*Subgrid, int) bool) (locks, contended int) {
	for si, last := sh.ShardOfRow(s.Y0), sh.ShardOfRow(s.Y0+s.N-1); si <= last; si++ {
		locks++
		if op(s, si) {
			contended++
		}
	}
	return locks, contended
}

func TestShardBoundsPartition(t *testing.T) {
	// The balanced partition must be exact (cover [0, n) with no gap or
	// overlap) and balanced to within one row for every geometry,
	// including shard counts that do not divide n.
	for _, tc := range []struct{ n, shards int }{
		{16, 1}, {16, 2}, {16, 3}, {16, 5}, {16, 16}, {16, 40},
		{256, 7}, {255, 8}, {1, 1}, {2, 3}, {1024, 13},
	} {
		b := ShardBounds(tc.n, tc.shards)
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("ShardBounds(%d,%d) = %v: does not span [0,%d)", tc.n, tc.shards, b, tc.n)
		}
		minW, maxW := tc.n, 0
		for i := 0; i+1 < len(b); i++ {
			w := b[i+1] - b[i]
			if w < 1 {
				t.Fatalf("ShardBounds(%d,%d) = %v: empty shard %d", tc.n, tc.shards, b, i)
			}
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		if maxW-minW > 1 {
			t.Fatalf("ShardBounds(%d,%d) = %v: unbalanced (widths %d..%d)", tc.n, tc.shards, b, minW, maxW)
		}
	}
}

func TestShardOfRowMatchesBounds(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(300)
		shards := 1 + rnd.Intn(n+4) // deliberately allows shards > n (clamped)
		sh := NewSharded(NewGrid(n), shards)
		for y := 0; y < n; y++ {
			si := sh.ShardOfRow(y)
			b := sh.Band(si)
			if y < b.Lo || y >= b.Hi {
				t.Fatalf("n=%d shards=%d: ShardOfRow(%d)=%d but Band(%d) is [%d,%d)",
					n, shards, y, si, si, b.Lo, b.Hi)
			}
		}
	}
}

// TestShardDecompositionCoversEachPixelOnce is the quickcheck-style
// coverage property: for randomized grid/shard/subgrid geometries, a
// subgrid added shard-by-shard over its ShardOfRow span touches every
// one of its master-grid pixels exactly once — the invariant behind
// the sharded adder's correctness.
func TestShardDecompositionCoversEachPixelOnce(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rnd.Intn(120)
		sgN := 1 + rnd.Intn(n)
		shards := 1 + rnd.Intn(n+2)
		sh := NewSharded(NewGrid(n), shards)
		s := NewSubgrid(sgN, rnd.Intn(n-sgN+1), rnd.Intn(n-sgN+1))
		for c := range s.Data {
			for i := range s.Data[c] {
				s.Data[c][i] = 1
			}
		}
		eachShard(sh, s, sh.AddSubgridShard)
		g := sh.Master()
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				want := complex(0, 0)
				if x >= s.X0 && x < s.X0+s.N && y >= s.Y0 && y < s.Y0+s.N {
					want = 1
				}
				for c := 0; c < NrCorrelations; c++ {
					if got := g.At(c, y, x); got != want {
						t.Fatalf("n=%d sg=%d@(%d,%d) shards=%d: pixel (%d,%d,c%d) = %v, want %v",
							n, sgN, s.X0, s.Y0, sh.NumShards(), x, y, c, got, want)
					}
				}
			}
		}
	}
}

func TestShardedAddMatchesDirectAccumulation(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		n := 16 + rnd.Intn(100)
		sgN := 2 + rnd.Intn(n-2)
		s := NewSubgrid(sgN, rnd.Intn(n-sgN+1), rnd.Intn(n-sgN+1))
		for c := range s.Data {
			for i := range s.Data[c] {
				s.Data[c][i] = complex(rnd.Float64()-0.5, rnd.Float64()-0.5)
			}
		}
		ref := NewGrid(n)
		for c := 0; c < NrCorrelations; c++ {
			for y := 0; y < s.N; y++ {
				for x := 0; x < s.N; x++ {
					ref.Add(c, s.Y0+y, s.X0+x, s.At(c, y, x))
				}
			}
		}
		sh := NewSharded(NewGrid(n), 1+rnd.Intn(n))
		locks, contended := eachShard(sh, s, sh.AddSubgridShard)
		if locks < 1 || contended != 0 {
			t.Fatalf("uncontended add reported locks=%d contended=%d", locks, contended)
		}
		if d := ref.MaxAbsDiff(sh.Master()); d != 0 {
			t.Fatalf("sharded add differs from Grid.AddSubgrid by %g", d)
		}
	}
}

func TestShardedCopyRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	n := 64
	g := NewGrid(n)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(rnd.Float64(), rnd.Float64())
		}
	}
	sh := NewSharded(g, 7)
	s := NewSubgrid(20, 13, 29)
	eachShard(sh, s, sh.CopySubgridShard)
	for c := 0; c < NrCorrelations; c++ {
		for y := 0; y < s.N; y++ {
			for x := 0; x < s.N; x++ {
				if s.At(c, y, x) != g.At(c, s.Y0+y, s.X0+x) {
					t.Fatalf("copied pixel (%d,%d,c%d) differs from grid", x, y, c)
				}
			}
		}
	}
}

func TestShardedOutOfBoundsPanics(t *testing.T) {
	sh := NewSharded(NewGrid(32), 4)
	s := NewSubgrid(16, 20, 20) // spills past the 32-pixel edge
	for name, fn := range map[string]func(){
		"add":  func() { sh.AddSubgridShard(s, sh.ShardOfRow(s.Y0)) },
		"copy": func() { sh.CopySubgridShard(s, sh.ShardOfRow(s.Y0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of out-of-bounds subgrid did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestShardedConcurrentAddsSumExactly drives many goroutines adding
// the same subgrid value concurrently: the shard locks must make every
// addition land (integer-valued pixels, so float reassociation cannot
// mask a lost update), and the lock counters must account every
// acquisition.
func TestShardedConcurrentAddsSumExactly(t *testing.T) {
	const n, sgN, adders, rounds = 96, 32, 8, 25
	sh := NewSharded(NewGrid(n), 5)
	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSubgrid(sgN, (w*7)%(n-sgN), (w*13)%(n-sgN))
			for c := range s.Data {
				for i := range s.Data[c] {
					s.Data[c][i] = 1
				}
			}
			for r := 0; r < rounds; r++ {
				eachShard(sh, s, sh.AddSubgridShard)
			}
		}(w)
	}
	wg.Wait()
	var total complex128
	for c := 0; c < NrCorrelations; c++ {
		for _, v := range sh.Master().Data[c] {
			total += v
		}
	}
	want := complex(float64(NrCorrelations*adders*rounds*sgN*sgN), 0)
	if total != want {
		t.Fatalf("concurrent adds summed to %v, want %v (lost updates)", total, want)
	}
	locks, contended := sh.LockStats()
	var locksTotal int64
	for i := range locks {
		locksTotal += locks[i]
		if contended[i] > locks[i] {
			t.Fatalf("shard %d: contended %d > locks %d", i, contended[i], locks[i])
		}
	}
	if locksTotal == 0 {
		t.Fatal("no lock acquisitions recorded")
	}
}
