package plan

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/uvwsim"
)

// allChannelBox is the oracle for stepBoxes: the bounding box of every
// channel of [c0, c0+nc), combined with math.Min and math.Max.
func (p *Plan) allChannelBox(coord uvwsim.UVW, c0, nc int) bbox {
	var b bbox
	for c := c0; c < c0+nc; c++ {
		f := p.Frequencies[c]
		u, v := p.uvPixel(coord, f)
		w := coord.W * f / uvwsim.SpeedOfLight
		if !b.valid {
			b = bbox{umin: u, umax: u, vmin: v, vmax: v, wmin: w, wmax: w, valid: true}
			continue
		}
		b.umin = math.Min(b.umin, u)
		b.umax = math.Max(b.umax, u)
		b.vmin = math.Min(b.vmin, v)
		b.vmax = math.Max(b.vmax, v)
		b.wmin = math.Min(b.wmin, w)
		b.wmax = math.Max(b.wmax, w)
	}
	return b
}

func (p *Plan) allChannelBoxes(track []uvwsim.UVW, c0, nc int) []bbox {
	boxes := make([]bbox, len(track))
	for t, coord := range track {
		boxes[t] = p.allChannelBox(coord, c0, nc)
	}
	return boxes
}

// NewAllChannels is New with allChannelBox as the box of every time
// step, evaluated afresh for the split decision and for each channel
// range's sweep.
func NewAllChannels(cfg Config, tracks [][]uvwsim.UVW) *Plan {
	p := &Plan{Config: cfg}
	cb := cfg.channelBlock()
	free := float64(p.SubgridSize - 2*p.KernelSupport - 2)
	for c0 := 0; c0 < len(cfg.Frequencies); c0 += cb {
		nc := min(cb, len(cfg.Frequencies)-c0)
		for b, track := range tracks {
			span := 0.0
			for _, box := range p.allChannelBoxes(track, c0, nc) {
				span = math.Max(span, math.Max(box.umax-box.umin, box.vmax-box.vmin))
			}
			nSplit := 1
			if span > free {
				nSplit = min(int(math.Ceil(span/free*1.2)), nc)
			}
			start := c0
			for i := 0; i < nSplit; i++ {
				n := nc / nSplit
				if i < nc%nSplit {
					n++
				}
				p.planBaseline(b, start, n, p.allChannelBoxes(track, start, n))
				start += n
			}
		}
	}
	p.layerMajor()
	return p
}

// RandomTracks returns nb tracks of nt samples in meters: elliptical
// arcs of up to 12 km with w drifting through zero, so u, v and w take
// both signs; some baselines hold u or v at +0 or -0 throughout, and
// some samples are jittered off the arc.
func RandomTracks(seed uint64, nb, nt int) [][]uvwsim.UVW {
	rng := rand.New(rand.NewPCG(seed, 47))
	negZero := math.Copysign(0, -1)
	tracks := make([][]uvwsim.UVW, nb)
	for b := range tracks {
		r := 12e3 * rng.Float64() * rng.Float64()
		phase, rate := 2*math.Pi*rng.Float64(), 0.02*rng.NormFloat64()
		w0, dw := r*rng.NormFloat64(), r*1e-3*rng.NormFloat64()
		tr := make([]uvwsim.UVW, nt)
		for t := range tr {
			a := phase + rate*float64(t)
			tr[t] = uvwsim.UVW{U: r * math.Cos(a), V: 0.6 * r * math.Sin(a), W: w0 + dw*float64(t)}
			if rng.IntN(16) == 0 {
				tr[t].U += 50 * rng.NormFloat64()
			}
			switch b % 7 {
			case 1:
				tr[t].U = 0
			case 2:
				tr[t].V = negZero
			case 3:
				tr[t].W = negZero
			}
		}
		tracks[b] = tr
	}
	return tracks
}

// FrequencyLists returns named channel lists over 150–225 MHz:
// ascending, descending, shuffled, with repeated values, and a single
// channel.
func FrequencyLists(seed uint64) map[string][]float64 {
	asc := make([]float64, 16)
	for i := range asc {
		asc[i] = 150e6 + float64(i)*5e6
	}
	desc := make([]float64, len(asc))
	for i, f := range asc {
		desc[len(asc)-1-i] = f
	}
	shuffled := append([]float64(nil), asc...)
	rand.New(rand.NewPCG(seed, 1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return map[string][]float64{
		"ascending":  asc,
		"descending": desc,
		"unsorted":   shuffled,
		"duplicates": {190e6, 150e6, 190e6, 225e6, 150e6, 170e6, 225e6, 170e6, 160e6},
		"one":        {170e6},
	}
}

// TestStepBoxesMatchAllChannels: the two-edge box of every channel
// range of every list equals the all-channel box bit for bit, signed
// zeros included.
func TestStepBoxesMatchAllChannels(t *testing.T) {
	tracks := RandomTracks(1, 21, 48)
	bits := func(b bbox) [6]uint64 {
		return [6]uint64{
			math.Float64bits(b.umin), math.Float64bits(b.umax),
			math.Float64bits(b.vmin), math.Float64bits(b.vmax),
			math.Float64bits(b.wmin), math.Float64bits(b.wmax),
		}
	}
	var boxes []bbox
	for name, freqs := range FrequencyLists(1) {
		p := &Plan{Config: Config{ImageSize: 0.02, Frequencies: freqs}}
		for c0 := range freqs {
			for nc := 1; c0+nc <= len(freqs); nc++ {
				for b, track := range tracks {
					boxes = p.stepBoxes(track, c0, nc, boxes)
					for ts, got := range boxes {
						want := p.allChannelBox(track[ts], c0, nc)
						if bits(got) != bits(want) || !got.valid {
							t.Fatalf("%s channels [%d,%d) baseline %d step %d: box %+v, all channels give %+v",
								name, c0, c0+nc, b, ts, got, want)
						}
					}
				}
			}
		}
	}
}
