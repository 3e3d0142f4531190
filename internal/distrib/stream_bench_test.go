package distrib

import (
	"context"
	"testing"

	"repro/internal/grid"
)

// BenchmarkReductionStream delivers one partial grid over loopback TCP
// into a coordinator's stream handler: hello, the 768-row nonzero span
// of a 1024-pixel grid (48 MB, the dense workload's one-worker partial)
// in band frames under the default cap, and the result, with both
// fingerprints and every frame CRC on the way.
func BenchmarkReductionStream(b *testing.B) {
	const size, lo, hi = 1024, 128, 896
	g := grid.NewGrid(size)
	for c := range g.Data {
		for i := lo * size; i < hi*size; i++ {
			g.Data[c][i] = complex(float64(i%97), float64(c))
		}
	}
	b.SetBytes(int64(grid.NrCorrelations * (hi - lo) * size * grid.CellBytes))
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Workers: 1, Axis: AxisRows, GridSize: size})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := c.ln.Accept()
			if err != nil {
				return
			}
			c.handleStream(context.Background(), conn)
		}()
		spec := WorkerSpec{Workers: 1, Axis: AxisRows, CoordinatorAddr: c.Addr()}
		if err := Deliver(context.Background(), spec, [32]byte{}, g, 0); err != nil {
			b.Fatal(err)
		}
		<-done
		c.Close()
		if c.partials[0] == nil {
			b.Fatalf("stream not accepted: %v", c.notes)
		}
	}
}
