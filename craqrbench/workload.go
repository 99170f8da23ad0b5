package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/world"
)

// Workload is one named traffic mix. Everything the generator sends —
// positions, event times, IDs, the query set and the churn schedule — is a
// pure function of (Workload, seed); craqrd only ever sees the generated
// requests.
type Workload struct {
	Name string
	// BatchTuples is the size of every push.
	BatchTuples int
	// PushesPerEpoch splits one epoch (one time unit of event time) over
	// this many pushes; the first push of epoch k+1 closes epoch k.
	PushesPerEpoch int
	// Rate is the fixed open-loop push rate in requests per second.
	Rate float64
	// Skewed draws positions around the two hotspots of the default world
	// instead of uniformly over the region.
	Skewed bool
	// Queries is the number of resident queries (see genQueries).
	Queries int
	// ChurnEvery is the period of one churn operation (0 = no churn);
	// ChurnLive caps how many churned queries are resident at once.
	ChurnEvery time.Duration
	ChurnLive  int
	// SatPendingCap bounds the queue backlog during the saturation phase:
	// a pusher that sees more pending tuples in its ack backs off.
	SatPendingCap int
}

var workloads = map[string]Workload{
	"ingest": {
		Name: "ingest", BatchTuples: 64, PushesPerEpoch: 2, Rate: 3000,
		Queries: 4, SatPendingCap: 4096,
	},
	"acquire": {
		Name: "acquire", BatchTuples: 1024, PushesPerEpoch: 1, Rate: 150, Skewed: true,
		Queries: 64, ChurnEvery: 50 * time.Millisecond, ChurnLive: 8, SatPendingCap: 8192,
	},
}

// Stream tags keep the bench session's and the saturation session's
// generated tuples disjoint (different IDs, independent positions).
const (
	streamBench = 1
	streamSat   = 2
)

// idFor is the unique producer ID of tuple j of push i on a stream: the
// stream tag and the push index occupy disjoint bit ranges, and the
// gateway-ID bit (1<<63) stays clear.
func idFor(tag, i, j, batch int) uint64 {
	return uint64(tag)<<56 | uint64(i*batch+j+1)
}

// pushBatch generates push i of the stream tagged tag: BatchTuples observations of
// "rain" with event times spread over [i·δ, (i+1)·δ), δ = 1/PushesPerEpoch,
// sorted by time. dst is reused.
func (w Workload) pushBatch(seed uint64, tag, i int, dst []stream.Tuple) []stream.Tuple {
	rng := rand.New(rand.NewPCG(seed, uint64(tag)<<40|uint64(i)))
	delta := 1 / float64(w.PushesPerEpoch)
	lo, hi := float64(i)*delta, float64(i+1)*delta
	dst = dst[:0]
	n := w.BatchTuples
	for j := 0; j < n; j++ {
		t := lo + delta*(float64(j)+rng.Float64())/float64(n)
		if t >= hi {
			t = math.Nextafter(hi, lo)
		}
		x, y := w.position(rng)
		dst = append(dst, stream.Tuple{
			ID:     idFor(tag, i, j, n),
			Attr:   "rain",
			T:      t,
			X:      x,
			Y:      y,
			Value:  math.Round(rng.Float64()*1000) / 100,
			Sensor: rng.IntN(500),
		})
	}
	return dst
}

// position draws one observation location inside the region.
func (w Workload) position(rng *rand.Rand) (float64, float64) {
	r := world.Region()
	if !w.Skewed || rng.Float64() < 0.25 {
		return r.MinX + rng.Float64()*r.Width(), r.MinY + rng.Float64()*r.Height()
	}
	// Two hotspots, weighted 2:1, as in the default world's fleet.
	cx, cy, sigma := 2.0, 2.0, 1.0
	if rng.Float64() < 1.0/3 {
		cx, cy, sigma = 6, 5, 1.5
	}
	for {
		x, y := cx+sigma*rng.NormFloat64(), cy+sigma*rng.NormFloat64()
		if x >= r.MinX && x < r.MaxX && y >= r.MinY && y < r.MaxY {
			return x, y
		}
	}
}

// frame encodes a batch as one binary wire frame.
func frame(dst []byte, tuples []stream.Tuple, watermark float64) []byte {
	out, err := wire.AppendFrame(dst[:0], wire.Batch{Attr: "rain", Watermark: watermark, Tuples: tuples})
	if err != nil {
		// Batches are generated well under the frame cap; failing here is a
		// bug in the generator.
		panic(err)
	}
	return out
}

// genQueries returns the resident CrAQL queries. Query 0 always covers the
// whole region — it is the streamed one — so every seed delivers tuples to
// the subscriber every epoch. The rest are seeded rectangles aligned to
// half-units with mixed rates; on the 64-query mix every eighth query
// repeats an earlier one, so some subplans are shared from the start.
func (w Workload) genQueries(seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	density := float64(w.BatchTuples*w.PushesPerEpoch) / (world.Region().Width() * world.Region().Height())
	out := []string{fmt.Sprintf("ACQUIRE rain FROM RECT(0, 0, 8, 8) RATE %g", density/4)}
	rates := []float64{density / 32, density / 16, density / 8, density / 4, density / 2}
	for len(out) < w.Queries {
		if w.Queries >= 16 && len(out)%8 == 0 {
			out = append(out, out[rng.IntN(len(out))])
			continue
		}
		wd := 2 + float64(rng.IntN(9))/2 // 2 … 6 units: two or more cells
		ht := 2 + float64(rng.IntN(9))/2
		x0 := float64(rng.IntN(int((8-wd)*2)+1)) / 2
		y0 := float64(rng.IntN(int((8-ht)*2)+1)) / 2
		out = append(out, fmt.Sprintf("ACQUIRE rain FROM RECT(%g, %g, %g, %g) RATE %g",
			x0, y0, x0+wd, y0+ht, rates[rng.IntN(len(rates))]))
	}
	return out
}

// churnOp is one scheduled churn request: a submit (Query set) or a delete
// of the churned query with submit index Del.
type churnOp struct {
	At    time.Duration
	Query string // non-empty: submit this query
	Del   int    // otherwise: delete the churned query with this submit index
}

// genChurn builds the churn schedule over a phase of length d. Submits
// alternate between a copy of a resident query (same normal form: it
// attaches to the resident subplan and fabricates nothing) and a novel
// query on "temp", which no push carries; neither can change what a
// resident "rain" query acquires. Once ChurnLive churned queries are
// resident, each submit is preceded by a delete of the oldest.
func (w Workload) genChurn(seed uint64, resident []string, d time.Duration) []churnOp {
	if w.ChurnEvery <= 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, 0xc4))
	var ops []churnOp
	submitted, deleted := 0, 0
	for at := w.ChurnEvery; at < d; at += w.ChurnEvery {
		if submitted-deleted >= w.ChurnLive {
			ops = append(ops, churnOp{At: at, Del: deleted})
			deleted++
			continue
		}
		var q string
		if submitted%2 == 0 {
			q = resident[rng.IntN(len(resident))]
		} else {
			x0, y0 := float64(rng.IntN(12))/2, float64(rng.IntN(12))/2
			q = fmt.Sprintf("ACQUIRE temp FROM RECT(%g, %g, %g, %g) RATE %g", x0, y0, x0+2, y0+2, 0.5+float64(rng.IntN(8))/4)
		}
		ops = append(ops, churnOp{At: at, Query: q})
		submitted++
	}
	return ops
}
