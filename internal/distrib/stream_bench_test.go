package distrib

import (
	"context"
	"testing"

	"repro/internal/grid"
)

// BenchmarkReductionStream delivers one partial grid over loopback TCP
// into a coordinator's stream handler: hello, the grid stream of the
// 768-row nonzero span of a 1024-pixel grid (48 MB of cells, the dense
// workload's one-worker partial) in band frames under the default cap,
// and the result, with both fingerprints and every frame CRC on the
// way. every-cell writes each cell of the span, the stream's worst
// case; gridded writes 32-pixel blocks covering 3.3 % of it, the
// sparsity of a gridded partial. MB/s is over the span's cells;
// stream-B/op is what crossed the wire.
func BenchmarkReductionStream(b *testing.B) {
	const size, lo, hi = 1024, 128, 896
	for _, bc := range []struct {
		name    string
		written func(x, y int) bool
	}{
		{"every-cell", func(x, y int) bool { return true }},
		{"gridded", func(x, y int) bool { return (x/32+y/32)%30 == 0 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := grid.NewGrid(size)
			for c := range g.Data {
				for y := lo; y < hi; y++ {
					for x := 0; x < size; x++ {
						if bc.written(x, y) {
							g.Data[c][y*size+x] = complex(float64((y*size+x)%97+1), float64(c))
						}
					}
				}
			}
			f, err := EncodeBand(g, lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(grid.NrCorrelations * (hi - lo) * size * grid.CellBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deliverOnce(b, g)
			}
			b.ReportMetric(float64(len(f.Payload)), "stream-B/op")
		})
	}
}

// deliverOnce delivers g to a fresh coordinator's stream handler.
func deliverOnce(b *testing.B, g *grid.Grid) {
	c, err := New(Config{Workers: 1, Axis: AxisRows, GridSize: g.N})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
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
	if c.partials[0] == nil {
		b.Fatalf("stream not accepted: %v", c.notes)
	}
}
