package plan

// Chunk is one unit of streamed execution: a contiguous run of work
// items (in plan order, all of one W-layer) that flows through grid ->
// FFT -> add (or split -> inverse FFT -> degrid) as a whole before its
// subgrids are released. Bounding the number of chunks in flight bounds the
// pipeline's peak subgrid memory at MaxInflightChunks x chunk size.
type Chunk struct {
	// Index is the chunk's position in plan order.
	Index int
	// Items are the chunk's work items, a subslice of Plan.Items.
	Items []WorkItem
	// WPlane is the W-layer every item of the chunk lies in.
	WPlane int
	// TimeStart and TimeEnd bound the time steps covered by the
	// chunk's items ([TimeStart, TimeEnd), over all baselines); they
	// describe the observation window a streaming reader must have
	// resident while the chunk is in flight.
	TimeStart, TimeEnd int
}

// StreamChunks splits the plan into chunks of at most maxItems work
// items each (<= 0: as many as possible). A chunk also ends where the
// W-layer changes, so no chunk spans two layers; an unstacked plan is
// one layer, cut every maxItems items. Plan order is preserved —
// chunking never reorders items — so a streamed pass with one chunk in
// flight accumulates in exactly the serial pipeline's order and stays
// bit-for-bit reproducible.
func (p *Plan) StreamChunks(maxItems int) []Chunk {
	if maxItems <= 0 {
		maxItems = len(p.Items)
	}
	if len(p.Items) == 0 {
		return nil
	}
	chunks := make([]Chunk, 0, (len(p.Items)+maxItems-1)/maxItems)
	for i := 0; i < len(p.Items); {
		j, w := min(i+maxItems, len(p.Items)), p.Items[i].WPlane
		for k := i + 1; k < j; k++ {
			if p.Items[k].WPlane != w {
				j = k
				break
			}
		}
		c := Chunk{Index: len(chunks), Items: p.Items[i:j], WPlane: w}
		c.TimeStart, c.TimeEnd = timeWindow(c.Items)
		chunks = append(chunks, c)
		i = j
	}
	return chunks
}

// timeWindow returns the half-open time-step range covered by items.
func timeWindow(items []WorkItem) (start, end int) {
	start, end = items[0].TimeStart, items[0].TimeStart+items[0].NrTimesteps
	for _, it := range items[1:] {
		if it.TimeStart < start {
			start = it.TimeStart
		}
		if e := it.TimeStart + it.NrTimesteps; e > end {
			end = e
		}
	}
	return start, end
}

// ShardOrder returns the item indices [0, n) reordered so that items
// mapping to different shards interleave round-robin: position k of
// the result cycles through the shard buckets. Feeding a sharded adder
// in this order spreads consecutive updates across row bands, which
// minimizes the chance that neighbouring workers contend on the same
// shard lock. shardOf maps an item index to its (primary) shard in
// [0, shards); items keep their relative order within a bucket, so the
// permutation is deterministic.
func ShardOrder(n int, shards int, shardOf func(i int) int) []int {
	if shards < 1 {
		shards = 1
	}
	buckets := make([][]int, shards)
	for i := 0; i < n; i++ {
		s := shardOf(i)
		if s < 0 {
			s = 0
		}
		if s >= shards {
			s = shards - 1
		}
		buckets[s] = append(buckets[s], i)
	}
	order := make([]int, 0, n)
	for len(order) < n {
		for s := range buckets {
			if len(buckets[s]) > 0 {
				order = append(order, buckets[s][0])
				buckets[s] = buckets[s][1:]
			}
		}
	}
	return order
}
