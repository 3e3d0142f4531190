// Command idgload is the load-generator client for idgserver: it
// builds one synthetic observation, fills it from a deterministic sky
// model, then replays it as many concurrent sessions across several
// tenants — create session, stream the visibility frames, finalize,
// optionally fetch and hash the grid — and prints a latency-percentile
// report per stage plus aggregate throughput.
//
// With -verify the expected grid SHA-256 is computed locally through
// the same streamed scheduler the server uses (on the float32-
// quantized data the wire carries), and every session's result is
// checked against it: a golden conformance check against a live
// server.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "idgload:", err)
	os.Exit(1)
}

// lat collects one latency population.
type lat struct {
	mu sync.Mutex
	v  []time.Duration
}

func (l *lat) add(d time.Duration) {
	l.mu.Lock()
	l.v = append(l.v, d)
	l.mu.Unlock()
}

// pct returns the p-th percentile (nearest-rank) of the population.
func (l *lat) pct(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), l.v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func main() {
	var (
		base        = flag.String("addr", "http://127.0.0.1:8321", "server base URL")
		tenants     = flag.Int("tenants", 2, "number of tenants")
		sessions    = flag.Int("sessions", 4, "sessions per tenant")
		concurrency = flag.Int("concurrency", 4, "sessions in flight at once")
		stations    = flag.Int("stations", 10, "observation stations")
		steps       = flag.Int("steps", 48, "time steps")
		channels    = flag.Int("channels", 4, "channels")
		gridSize    = flag.Int("grid", 256, "grid size in pixels")
		subgrid     = flag.Int("subgrid", 16, "subgrid size in pixels")
		inflight    = flag.Int("max-inflight", 2, "per-session MaxInflightChunks request (0: server default)")
		frameVis    = flag.Int("frame-vis", 256, "visibilities per wire frame")
		fetch       = flag.Bool("fetch", true, "fetch and hash the grid after finalize")
		verify      = flag.Bool("verify", false, "golden-check every session against a local streamed pass")
	)
	flag.Parse()
	switch {
	case *tenants < 1:
		fail(fmt.Errorf("-tenants must be >= 1, got %d", *tenants))
	case *sessions < 1:
		fail(fmt.Errorf("-sessions must be >= 1, got %d", *sessions))
	case *concurrency < 1:
		fail(fmt.Errorf("-concurrency must be >= 1, got %d", *concurrency))
	case *frameVis < 1:
		fail(fmt.Errorf("-frame-vis must be >= 1, got %d", *frameVis))
	case *inflight < 0:
		fail(fmt.Errorf("-max-inflight must be >= 0, got %d", *inflight))
	}

	scfg := server.SessionConfig{
		NrStations:     *stations,
		NrTimesteps:    *steps,
		NrChannels:     *channels,
		StartFrequency: 150e6,
		ChannelWidth:   200e3,
		GridSize:       *gridSize,
		SubgridSize:    *subgrid,
		KernelSupport:  4,
		GridMargin:     *gridSize / 16,
		ATermInterval:  16,
		// Workers 1 + one shard keeps every session bit-reproducible,
		// which is what makes -verify a golden check.
		Workers:           1,
		GridShards:        1,
		MaxInflightChunks: *inflight,
	}

	// Build the observation once, fill it from a fixed sky model, and
	// quantize to the float32 the wire carries; every session replays
	// these exact bytes.
	ocfg := repro.ObservationConfig{
		NrStations: scfg.NrStations, NrTimesteps: scfg.NrTimesteps, NrChannels: scfg.NrChannels,
		StartFrequency: scfg.StartFrequency, ChannelWidth: scfg.ChannelWidth,
		GridSize: scfg.GridSize, SubgridSize: scfg.SubgridSize, KernelSupport: scfg.KernelSupport,
		GridMargin: scfg.GridMargin, ATermInterval: scfg.ATermInterval,
		Workers: 1, GridShards: 1, MaxInflightChunks: scfg.MaxInflightChunks,
	}
	o, err := ocfg.Build()
	if err != nil {
		fail(err)
	}
	pix := o.ImageSize / float64(ocfg.GridSize)
	model := repro.SkyModel{
		{L: 20 * pix, M: -12 * pix, I: 1},
		{L: -36 * pix, M: 26 * pix, I: 0.5},
	}
	if err := o.FillFromModel(model); err != nil {
		fail(err)
	}
	// Wire samples, baseline-major, 8 float32 per visibility.
	wire := make([][]float32, len(o.Vis.Data))
	for b, data := range o.Vis.Data {
		buf := make([]float32, len(data)*8)
		for i, m := range data {
			for p := 0; p < 4; p++ {
				buf[8*i+2*p] = float32(real(m[p]))
				buf[8*i+2*p+1] = float32(imag(m[p]))
			}
		}
		wire[b] = buf
	}

	wantSHA := ""
	if *verify {
		// The local reference grids the float32-quantized data the
		// server will see.
		for b, buf := range wire {
			for i := range o.Vis.Data[b] {
				var m repro.Matrix2
				for p := 0; p < 4; p++ {
					m[p] = complex(float64(buf[8*i+2*p]), float64(buf[8*i+2*p+1]))
				}
				o.Vis.Data[b][i] = m
			}
		}
		g, _, _, err := o.GridAllStreamed(context.Background(), nil, repro.FaultConfig{})
		if err != nil {
			fail(err)
		}
		wantSHA = repro.FingerprintGrid(g).SHA256
		fmt.Printf("idgload: local golden sha256 %s\n", wantSHA)
	}

	type job struct{ tenant, session int }
	jobs := make(chan job)
	var createLat, streamLat, finalizeLat, totalLat lat
	var failures, verified atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				c := &server.Client{Base: *base, Tenant: fmt.Sprintf("tenant-%d", j.tenant)}
				if err := runSession(c, scfg, wire, *frameVis, *fetch, wantSHA,
					&createLat, &streamLat, &finalizeLat, &totalLat, &verified); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "idgload: tenant %d session %d: %v\n", j.tenant, j.session, err)
				}
			}
		}()
	}
	for t := 0; t < *tenants; t++ {
		for s := 0; s < *sessions; s++ {
			jobs <- job{t, s}
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(t0)

	total := *tenants * *sessions
	visPerSession := int64(len(wire)) * int64(*steps) * int64(*channels)
	fmt.Printf("\nidgload: %d sessions (%d tenants x %d), concurrency %d, %d failed, %v elapsed\n",
		total, *tenants, *sessions, *concurrency, failures.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("idgload: %.2f sessions/s, %.2f MVis/s aggregate\n",
		float64(total)/elapsed.Seconds(),
		float64(int64(total)*visPerSession)/elapsed.Seconds()/1e6)
	fmt.Printf("%-10s %12s %12s %12s\n", "stage", "p50", "p95", "p99")
	for _, row := range []struct {
		name string
		l    *lat
	}{{"create", &createLat}, {"stream", &streamLat}, {"finalize", &finalizeLat}, {"total", &totalLat}} {
		fmt.Printf("%-10s %12v %12v %12v\n", row.name,
			row.l.pct(50).Round(time.Microsecond),
			row.l.pct(95).Round(time.Microsecond),
			row.l.pct(99).Round(time.Microsecond))
	}
	if *verify {
		fmt.Printf("idgload: %d/%d sessions verified against the local golden hash\n", verified.Load(), total)
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// runSession drives one full session lifecycle and records latencies.
func runSession(c *server.Client, scfg server.SessionConfig, wire [][]float32, frameVis int,
	fetch bool, wantSHA string, createLat, streamLat, finalizeLat, totalLat *lat, verified *atomic.Int64) error {
	t0 := time.Now()
	info, err := c.CreateSession(scfg)
	if err != nil {
		return err
	}
	createLat.add(time.Since(t0))
	defer c.Delete(info.SessionID)

	ts := time.Now()
	err = c.StreamVis(info.SessionID, func(w *server.FrameWriter) error {
		for b, buf := range wire {
			for off := 0; off < len(buf)/8; off += frameVis {
				end := off + frameVis
				if end > len(buf)/8 {
					end = len(buf) / 8
				}
				if err := w.WriteVis(b, off, buf[off*8:end*8]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	streamLat.add(time.Since(ts))

	tf := time.Now()
	res, err := c.Finalize(info.SessionID)
	if err != nil {
		return err
	}
	finalizeLat.add(time.Since(tf))

	if fetch {
		sha, _, err := c.FetchGridSHA256(info.SessionID)
		if err != nil {
			return err
		}
		if sha != res.SHA256 {
			return fmt.Errorf("grid transfer hash %s != result hash %s", sha, res.SHA256)
		}
	}
	if wantSHA != "" {
		if res.SHA256 != wantSHA {
			return fmt.Errorf("session sha256 %s != local golden %s", res.SHA256, wantSHA)
		}
		verified.Add(1)
	}
	totalLat.add(time.Since(t0))
	return nil
}
