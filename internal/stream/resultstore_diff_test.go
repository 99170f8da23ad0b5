package stream

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// eagerStore is the reference ResultStore: a ring of full Tuples allocated
// at its final size up front. The lazily grown, pointer-free store must be
// observationally identical to it.
type eagerStore struct {
	buf        []Tuple
	head, size int
	first      uint64
	total      uint64
	batches    uint64
}

func newEagerStore(retention int) *eagerStore {
	return &eagerStore{buf: make([]Tuple, retention)}
}

func (s *eagerStore) Process(b Batch) {
	in := b.Tuples
	s.batches++
	s.total += uint64(len(in))
	if overflow := len(in) - len(s.buf); overflow > 0 {
		in = in[overflow:]
	}
	if n := len(in); n > 0 {
		idx := (s.head + s.size) % len(s.buf)
		run := copy(s.buf[idx:], in)
		copy(s.buf, in[run:])
		if s.size+n <= len(s.buf) {
			s.size += n
		} else {
			s.head = (s.head + s.size + n - len(s.buf)) % len(s.buf)
			s.size = len(s.buf)
		}
	}
	s.first = s.total - uint64(s.size)
}

func (s *eagerStore) ReadFrom(cursor uint64, limit int) (out []Tuple, next, dropped uint64) {
	if cursor < s.first {
		dropped = s.first - cursor
		cursor = s.first
	}
	cursor = min(cursor, s.total)
	avail := int(s.total - cursor)
	if limit <= 0 || limit > avail {
		limit = avail
	}
	off := s.head + int(cursor-s.first)
	for i := 0; i < limit; i++ {
		out = append(out, s.buf[(off+i)%len(s.buf)])
	}
	return out, cursor + uint64(limit), dropped
}

// randomBatch builds n tuples of attribute "rain" with IDs from *next and
// random coordinates, values and sensors.
func randomBatch(rng *rand.Rand, next *uint64, n int) Batch {
	b := Batch{Attr: "rain"}
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, Tuple{
			ID: *next, Attr: "rain", T: rng.Float64(), X: rng.NormFloat64(), Y: rng.NormFloat64(),
			Value: rng.ExpFloat64(), Sensor: rng.IntN(1000) - 1,
		})
		*next++
	}
	return b
}

// checkAgainstEager compares every observable of s with the reference:
// counters, the ring-size invariants, and ReadFrom. Short pages are read at
// every cursor from just before the oldest retained tuple to past the end
// (cursors further back clamp identically); whole-store and random-length
// reads at the boundary cursors and a few random ones.
func checkAgainstEager(t *testing.T, s *ResultStore, ref *eagerStore, rng *rand.Rand) {
	t.Helper()
	if s.Len() != ref.size || s.Total() != ref.total || s.Dropped() != ref.first || s.Batches() != ref.batches {
		t.Fatalf("len/total/dropped/batches = %d/%d/%d/%d, want %d/%d/%d/%d",
			s.Len(), s.Total(), s.Dropped(), s.Batches(), ref.size, ref.total, ref.first, ref.batches)
	}
	s.mu.Lock()
	ringLen, head := len(s.ring), s.head
	s.mu.Unlock()
	switch {
	case ringLen > s.Retention():
		t.Fatalf("ring length %d exceeds retention %d", ringLen, s.Retention())
	case ringLen > 2*ref.size:
		t.Fatalf("ring length %d for %d retained tuples: memory must follow retention", ringLen, ref.size)
	case ringLen < s.Retention() && (head != 0 || ref.first != 0):
		t.Fatalf("ring wrapped (head %d, dropped %d) below full size %d < %d", head, ref.first, ringLen, s.Retention())
	}
	buf := make([]Tuple, 0, 8)
	read := func(c uint64, lim int) {
		t.Helper()
		want, wantNext, wantDropped := ref.ReadFrom(c, lim)
		got, next, dropped := s.ReadFrom(c, lim, buf)
		if next != wantNext || dropped != wantDropped || !slices.Equal(got, want) {
			t.Fatalf("ReadFrom(%d, %d) = %d tuples next=%d dropped=%d, want %d tuples next=%d dropped=%d (equal=%v)",
				c, lim, len(got), next, dropped, len(want), wantNext, wantDropped, slices.Equal(got, want))
		}
	}
	for c := ref.first - min(ref.first, 2); c <= ref.total+2; c++ {
		for _, lim := range []int{1, 2, 7, 1 + rng.IntN(16)} {
			read(c, lim)
		}
	}
	cursors := []uint64{0, ref.first / 2, ref.first, ref.first + 1, ref.total / 2, ref.total, ref.total + 1}
	if ref.first > 0 {
		cursors = append(cursors, ref.first-1)
	}
	for range 4 {
		cursors = append(cursors, rng.Uint64N(ref.total+2))
	}
	for _, c := range cursors {
		for _, lim := range []int{0, -1, s.Retention(), s.Retention() + 3, 1 + rng.IntN(s.Retention()+1)} {
			read(c, lim)
		}
	}
}

// TestResultStoreMatchesEagerRing runs random workloads — empty batches,
// batches larger than the retention, and sizes landing on every growth
// boundary and around the wrap point — through the store and the eager
// reference and demands identical observations after every batch.
func TestResultStoreMatchesEagerRing(t *testing.T) {
	for _, retention := range []int{1, 3, 256, 1000} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("retention=%d/seed=%d", retention, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, uint64(retention)))
				s, ref := NewResultStore(retention), newEagerStore(retention)
				var next uint64
				for step := 0; step < 24; step++ {
					var n int
					switch rng.IntN(6) {
					case 0:
						n = 0
					case 1:
						n = 1
					case 2:
						n = retention + rng.IntN(2*retention+2) // oversized
					case 3:
						n = s.Len() // doubles a growing ring exactly
					case 4:
						n = max(0, retention-s.Len()+rng.IntN(3)-1) // lands around the wrap point
					default:
						n = rng.IntN(retention/4 + 2)
					}
					b := randomBatch(rng, &next, n)
					if err := s.Process(b); err != nil {
						t.Fatal(err)
					}
					ref.Process(b)
					checkAgainstEager(t, s, ref, rng)
				}
			})
		}
	}
}

// TestResultStoreSingleTupleGrowth appends one tuple at a time past twice
// the retention, crossing every doubling boundary and the wrap point.
func TestResultStoreSingleTupleGrowth(t *testing.T) {
	for _, retention := range []int{1, 3, 256} {
		rng := rand.New(rand.NewPCG(9, uint64(retention)))
		s, ref := NewResultStore(retention), newEagerStore(retention)
		var next uint64
		for i := 0; i < 2*retention+3; i++ {
			b := randomBatch(rng, &next, 1)
			if err := s.Process(b); err != nil {
				t.Fatal(err)
			}
			ref.Process(b)
			checkAgainstEager(t, s, ref, rng)
		}
	}
}
