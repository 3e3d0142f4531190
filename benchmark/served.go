package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// frameVis is how many visibilities one wire frame carries.
const frameVis = 1024

// servedShape is one of the two session shapes the clients alternate
// between, with its generated load and the hash a correct server must
// return.
type servedShape struct {
	cfg     server.SessionConfig
	wire    [][]float32 // baseline-major, 8 float32 per visibility
	nvis    int64
	wantSHA string
	// wireBytes is what one session of this shape puts on the wire
	// (frame headers, payloads, checksums and the terminator).
	wireBytes int64
}

func servedConfigs(smoke bool) []server.SessionConfig {
	base := server.SessionConfig{
		StartFrequency: 150e6, ChannelWidth: 200e3,
		// Workers 1 on one shard keeps every session bit-reproducible,
		// which is what makes the SHA-256 comparison a golden check.
		Workers: 1, GridShards: 1,
	}
	a, b := base, base
	a.NrStations, a.NrTimesteps, a.NrChannels = 16, 64, 8
	a.GridSize, a.SubgridSize, a.KernelSupport, a.GridMargin, a.ATermInterval = 512, 24, 6, 32, 16
	b.NrStations, b.NrTimesteps, b.NrChannels = 12, 96, 4
	b.GridSize, b.SubgridSize, b.KernelSupport, b.GridMargin, b.ATermInterval = 256, 16, 4, 16, 16
	if smoke {
		a.NrStations, a.NrTimesteps, a.GridSize, a.GridMargin = 6, 16, 128, 8
		b.NrStations, b.NrTimesteps, b.GridSize, b.GridMargin = 5, 16, 128, 8
	}
	return []server.SessionConfig{a, b}
}

// observationOf is the facade configuration a session config maps to
// (the same mapping the server's backend applies).
func observationOf(c server.SessionConfig) repro.ObservationConfig {
	return repro.ObservationConfig{
		NrStations: c.NrStations, NrTimesteps: c.NrTimesteps, NrChannels: c.NrChannels,
		StartFrequency: c.StartFrequency, ChannelWidth: c.ChannelWidth,
		GridSize: c.GridSize, SubgridSize: c.SubgridSize, KernelSupport: c.KernelSupport,
		GridMargin: c.GridMargin, ATermInterval: c.ATermInterval,
		Workers: c.Workers, GridShards: c.GridShards, MaxInflightChunks: c.MaxInflightChunks,
	}
}

// countingWriter counts bytes on their way to nowhere.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// eachFrame calls emit for every frame-sized run of a shape's samples.
func eachFrame(wire [][]float32, emit func(baseline, offset int, samples []float32) error) error {
	for b, buf := range wire {
		n := len(buf) / 8
		for off := 0; off < n; off += frameVis {
			end := min(off+frameVis, n)
			if err := emit(b, off, buf[off*8:end*8]); err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeFrames runs the client-side wire codec over a shape's samples
// into w.
func encodeFrames(wire [][]float32, w io.Writer) error {
	err := eachFrame(wire, func(b, off int, samples []float32) error {
		f, err := server.EncodeVis(b, off, samples)
		if err != nil {
			return err
		}
		return server.WriteFrame(w, f)
	})
	if err != nil {
		return err
	}
	return server.WriteFrame(w, server.Frame{Type: server.FrameDone})
}

// generateShape builds a shape's load from the seed: model
// predictions plus noise, quantized to the float32 the wire carries,
// and the grid hash of a local streamed pass over exactly those
// values (what idgload -verify checks a live server against).
func generateShape(ctx context.Context, cfg server.SessionConfig, seed int64) (*servedShape, error) {
	o, err := observationOf(cfg).Build()
	if err != nil {
		return nil, err
	}
	if err := fillModel(o, seededModel(o, seed, 4), nil); err != nil {
		return nil, err
	}
	if err := o.AddNoise(0.01, seed); err != nil {
		return nil, err
	}
	sh := &servedShape{cfg: cfg, wire: make([][]float32, len(o.Vis.Data)), nvis: o.Vis.NrVisibilities()}
	for b, data := range o.Vis.Data {
		buf := make([]float32, len(data)*8)
		for i, m := range data {
			for p := 0; p < 4; p++ {
				buf[8*i+2*p], buf[8*i+2*p+1] = float32(real(m[p])), float32(imag(m[p]))
				data[i][p] = complex(float64(buf[8*i+2*p]), float64(buf[8*i+2*p+1]))
			}
		}
		sh.wire[b] = buf
	}
	g, _, _, err := o.GridAllStreamed(ctx, nil, repro.FaultConfig{})
	if err != nil {
		return nil, err
	}
	if err := checkFinite("local streamed pass", g); err != nil {
		return nil, err
	}
	sh.wantSHA = repro.FingerprintGrid(g).SHA256
	var cw countingWriter
	if err := encodeFrames(sh.wire, &cw); err != nil {
		return nil, err
	}
	sh.wireBytes = cw.n
	return sh, nil
}

// sessionTimes are the client-side phases of one session.
type sessionTimes struct {
	create, stream, finalize, fetch, total time.Duration
}

// runSession drives one session: create, stream the frames, finalize,
// fetch the grid, and check both hashes against the local pass.
func runSession(tr *tracer, parent int, c *server.Client, sh *servedShape) (st sessionTimes, err error) {
	var info server.SessionInfo
	// Releasing the session is the client's clean-up, not part of the
	// create-to-fetch latency. A session that fails to delete is
	// expired by the server's idle sweep.
	defer func() {
		if info.SessionID != "" {
			_ = c.Delete(info.SessionID)
		}
	}()
	st.total = tr.run(parent, "served.session", func(id int) {
		st.create = tr.run(id, "server.create", func(int) { info, err = c.CreateSession(sh.cfg) })
		if err != nil {
			return
		}
		st.stream = tr.run(id, "server.stream", func(int) {
			err = c.StreamVis(info.SessionID, func(w *server.FrameWriter) error {
				return eachFrame(sh.wire, w.WriteVis)
			})
		})
		if err != nil {
			return
		}
		var res server.Result
		st.finalize = tr.run(id, "server.finalize", func(int) { res, err = c.Finalize(info.SessionID) })
		if err != nil {
			return
		}
		var sha string
		st.fetch = tr.run(id, "server.fetch", func(int) { sha, _, err = c.FetchGridSHA256(info.SessionID) })
		switch {
		case err != nil:
		case sha != res.SHA256:
			err = fmt.Errorf("grid transfer hash %s != result hash %s", sha, res.SHA256)
		case res.SHA256 != sh.wantSHA:
			err = fmt.Errorf("session grid sha256 %s != local streamed pass %s", res.SHA256, sh.wantSHA)
		}
	})
	return st, err
}

// startServer starts an in-process server on a kernel-assigned
// loopback port.
func startServer() (*repro.GridServer, error) {
	srv, err := repro.NewGridServer(repro.GridServerConfig{Addr: "127.0.0.1:0"}, nil)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// servedSetup times what a deployment pays before its first result:
// server start plus the first session of each shape, whose plans miss
// the cache. Each repetition shifts the band by rep Hz so its plans
// are new to the process-wide cache.
func servedSetup(e *env, cfgs []server.SessionConfig, rep int) (time.Duration, error) {
	var srv *repro.GridServer
	var err error
	d := e.trace.run(noSpan, "setup.server", func(int) {
		if srv, err = startServer(); err != nil {
			return
		}
		c := &server.Client{Base: "http://" + srv.Addr(), Tenant: "setup"}
		for _, cfg := range cfgs {
			cfg.StartFrequency += float64(rep + 1)
			var info server.SessionInfo
			if info, err = c.CreateSession(cfg); err != nil {
				return
			}
			if err = c.Delete(info.SessionID); err != nil {
				return
			}
		}
	})
	if srv != nil {
		srv.Drain(e.ctx)
	}
	return d, err
}

// runServed is the served workload: two closed-loop clients (each its
// own tenant, each waiting for its grid before it sends the next
// session) drive an in-process server over loopback HTTP. One op is a
// pair of sessions, one of each shape, in seeded order.
func runServed(e *env) error {
	cfgs := servedConfigs(e.smoke)

	setupS, err := e.medianSetup(func(rep int) (time.Duration, error) { return servedSetup(e, cfgs, rep) })
	if err != nil {
		return err
	}
	e.e2e.set("setup_s", setupS)

	shapes := make([]*servedShape, len(cfgs))
	for i, cfg := range cfgs {
		sh, err := generateShape(e.ctx, cfg, e.seed+int64(i))
		if err != nil {
			return err
		}
		shapes[i] = sh
	}

	srv, err := startServer()
	if err != nil {
		return err
	}
	defer srv.Drain(e.ctx)
	base := "http://" + srv.Addr()

	// Warm-up: one session per shape. These are the plan-cache misses
	// of the real keys.
	warmClient := &server.Client{Base: base, Tenant: "warm-up"}
	var missCreate []time.Duration
	for _, sh := range shapes {
		st, err := runSession(e.trace, noSpan, warmClient, sh)
		e.op(err)
		missCreate = append(missCreate, st.create)
	}
	hits0, misses0 := repro.ServerPlanCacheStats()

	// Sessions are short, so the traced run can afford the whole
	// measuring time too; session_p90_s needs the samples.
	budget := time.Duration(e.seconds * float64(time.Second))
	clients := min(2, e.nproc)
	var mu sync.Mutex
	var sessions []sessionTimes // successful sessions
	var pairs []float64         // pair latency in seconds; +Inf for a failed pair
	var tracedPairs, untracedPairs []float64
	var vis int64
	failedSessions := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(e.seed*31 + int64(c)))
			client := &server.Client{Base: base, Tenant: fmt.Sprintf("tenant-%d", c)}
			root := fmt.Sprintf("served.client%d", c)
			e.trace.run(noSpan, root, func(id int) {
				for n := 0; n < e.minOps() || time.Since(start) < budget; n++ {
					// The traced run leaves the spans off every other
					// pair, which is what trace.overhead_frac compares.
					tr := e.trace
					if n%2 == 1 {
						tr = nil
					}
					order := rnd.Perm(len(shapes))
					pair, ok := 0.0, true
					for _, i := range order {
						st, err := runSession(tr, id, client, shapes[i])
						mu.Lock()
						if e.op(err) {
							sessions = append(sessions, st)
							vis += shapes[i].nvis
						} else {
							failedSessions++
						}
						mu.Unlock()
						ok = ok && err == nil
						pair += st.total.Seconds()
					}
					if !ok {
						pair = math.Inf(1)
					}
					mu.Lock()
					pairs = append(pairs, pair)
					if tr != nil {
						tracedPairs = append(tracedPairs, pair)
					} else {
						untracedPairs = append(untracedPairs, pair)
					}
					stop := e.giveUp()
					mu.Unlock()
					if stop {
						break
					}
				}
			})
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if len(sessions) == 0 {
		return fmt.Errorf("served: no session succeeded")
	}

	totals := make([]float64, 0, len(sessions))
	for _, st := range sessions {
		totals = append(totals, st.total.Seconds())
	}
	// Failed sessions sit beyond every percentile.
	for i := 0; i < failedSessions; i++ {
		totals = append(totals, math.Inf(1))
	}
	e.e2e.set("grid_mvis_s", float64(vis)/wall/1e6)
	e.e2e.set("cycle_s", percentile(pairs, 50))
	e.e2e.set("peak_rss_mb", peakRSSMB())
	p90 := percentile(totals, 90)
	e.layer.set("session_p90_s", p90)
	fmt.Printf("served: %d sessions (%d pairs) from %d closed-loop clients in %.2fs; pair p50 %.4fs; session p50 %.4fs p90 %.4fs (%d samples beyond p90)\n",
		len(sessions), len(pairs), clients, wall, percentile(pairs, 50), percentile(totals, 50), p90, beyond(len(totals), 90))
	if beyond(len(totals), 90) < minTailSamples && !e.smoke {
		fmt.Printf("served: fewer than %d samples beyond p90; read session_p90_s as a maximum, not a percentile\n", minTailSamples)
	}

	if e.trace == nil {
		return nil
	}
	if len(untracedPairs) > 0 {
		e.layer.set("trace.overhead_frac", median(tracedPairs)/median(untracedPairs)-1)
	}
	return servedLayers(e, shapes, sessions, missCreate, hits0, misses0)
}

// servedLayers turns the client-side spans into the server layer's
// metrics and prints the served ledger.
func servedLayers(e *env, shapes []*servedShape, sessions []sessionTimes, missCreate []time.Duration, hits0, misses0 int64) error {
	createS := medianOf(sessions, func(s sessionTimes) time.Duration { return s.create })
	streamS := medianOf(sessions, func(s sessionTimes) time.Duration { return s.stream })
	finalizeS := medianOf(sessions, func(s sessionTimes) time.Duration { return s.finalize })
	fetchS := medianOf(sessions, func(s sessionTimes) time.Duration { return s.fetch })
	totalS := medianOf(sessions, func(s sessionTimes) time.Duration { return s.total })
	e.layer.set("server.create_s", createS)
	e.layer.set("server.create_miss_s", medianDur(missCreate))
	e.layer.set("server.stream_s", streamS)
	e.layer.set("server.finalize_s", finalizeS)
	e.layer.set("server.fetch_s", fetchS)

	hits, misses := repro.ServerPlanCacheStats()
	if n := (hits - hits0) + (misses - misses0); n > 0 {
		e.layer.set("server.plan_cache_hit_frac", float64(hits-hits0)/float64(n))
	}
	var wireBytes, bytesPerPair int64
	for _, sh := range shapes {
		bytesPerPair += sh.wireBytes
	}
	wireBytes = bytesPerPair * int64(len(sessions)) / int64(len(shapes))
	e.layer.set("server.wire_bytes", float64(wireBytes))

	// The wire codec alone: frame encoding and checksumming into a
	// writer that discards.
	var encoded int64
	d := e.trace.run(noSpan, "server.frame_encode", func(int) {
		for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			if err := encodeFrames(shapes[0].wire, io.Discard); err != nil {
				return
			}
			encoded += shapes[0].wireBytes
		}
	})
	encodeMBs := float64(encoded) / d.Seconds() / 1e6
	e.layer.set("server.frame_encode_mb_s", encodeMBs)

	if err := planLayer(e, observationOf(shapes[0].cfg)); err != nil {
		return err
	}
	rows := []ledgerRow{
		{"server.create (plan-cache hit)", createS, "", 0, createS / totalS},
		{"server.stream (1024-vis frames)", streamS, fmt.Sprintf("%.1f MB/s", float64(bytesPerPair)/float64(len(shapes))/streamS/1e6), float64(bytesPerPair) / float64(len(shapes)) / streamS / 1e6 / encodeMBs, streamS / totalS},
		{"server.finalize (streamed pass)", finalizeS, "", 0, finalizeS / totalS},
		{"server.fetch (grid + SHA-256)", fetchS, "", 0, fetchS / totalS},
		{"server.frame_encode (codec only)", d.Seconds(), fmt.Sprintf("%.1f MB/s", encodeMBs), 0, 0},
		{"server.create (plan-cache miss)", medianDur(missCreate), "", 0, 0},
	}
	printLedger("served", "create -> StreamVis -> Finalize -> FetchGridSHA256 (median session)", totalS, rows)
	fmt.Printf("plan-cache hit fraction %.3f; %d wire bytes; session_p90_s %.4f\n",
		e.layer.get("server.plan_cache_hit_frac"), wireBytes, e.layer.get("session_p90_s"))
	return nil
}
