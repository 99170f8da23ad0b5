package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"
)

// DefaultRetention is the per-query tuple retention used when a ResultStore
// is built with a non-positive capacity.
const DefaultRetention = 1 << 16

// ResultStore is the bounded, cursor-addressable sink that terminates every
// query pipeline in the serving engine. It retains the most recent
// `retention` tuples of the fabricated stream in a ring buffer; older tuples
// are overwritten and accounted as drops rather than accumulated without
// bound, so a query nobody reads costs O(retention) memory no matter how
// long its engine keeps ticking.
//
// The ring is paid for as it fills: it starts empty and doubles, up to
// `retention` records, while it has not yet wrapped, so a query that
// retains n tuples holds O(n) memory. A store terminates exactly one query
// over one attribute, so the ring holds pointer-free records (the GC never
// scans it) and the attribute is kept once per store; reads rebuild full
// Tuples.
//
// Positions in the stream are monotonic cursors: the i-th tuple ever
// appended lives at cursor i (zero-based). Readers own their cursors and
// page forward with ReadFrom; a reader that falls more than `retention`
// tuples behind observes an explicit drop count instead of silently missing
// data. Writers never block on readers.
//
// ResultStore is safe for concurrent use by one or more writers and any
// number of readers.
type ResultStore struct {
	retention int // capacity in tuples; the ring's final length

	mu      sync.Mutex
	attr    string   // attribute of every retained tuple, set by the first append
	ring    []record // ring storage; grows to retention, wraps only once full-size
	head    int      // ring index of the oldest retained tuple
	size    int      // retained tuples (≤ len(ring))
	first   uint64   // cursor of the oldest retained tuple == total dropped
	total   uint64   // cursor one past the newest tuple == total appended
	batches uint64
	closed  bool
	notify  chan struct{} // lazily created by Wait, closed on append / Close
}

// record is a retained Tuple without its attribute: 48 bytes and no
// pointers.
type record struct {
	ID             uint64
	T, X, Y, Value float64
	Sensor         int
}

// strip stores src's tuples, minus their attribute, into the leading
// records of dst.
func strip(dst []record, src []Tuple) {
	dst = dst[:len(src)]
	for i := range src {
		t, d := &src[i], &dst[i]
		d.ID, d.T, d.X, d.Y, d.Value, d.Sensor = t.ID, t.T, t.X, t.Y, t.Value, t.Sensor
	}
}

// NewResultStore returns an empty store retaining up to `retention` tuples
// (DefaultRetention when retention ≤ 0).
func NewResultStore(retention int) *ResultStore {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &ResultStore{retention: retention}
}

// Retention returns the store's capacity in tuples.
func (s *ResultStore) Retention() int { return s.retention }

// Process implements Processor: the batch's tuples are copied into the ring
// (the batch may be built on an arena buffer that is recycled after the
// call), evicting the oldest tuples when full. A tuple whose attribute
// differs from the store's is an error, and the store is left unchanged.
func (s *ResultStore) Process(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	in := b.Tuples
	if len(in) > 0 {
		attr := s.attr
		if s.total == 0 {
			attr = in[0].Attr
		}
		for i := range in {
			// Tuples of one stream normally share the attribute's
			// backing bytes; only compare contents when they do not.
			if a := in[i].Attr; unsafe.StringData(a) != unsafe.StringData(attr) || len(a) != len(attr) {
				if a != attr {
					return fmt.Errorf("stream: result store for attribute %q got a %q tuple", attr, a)
				}
			}
		}
		s.attr = attr
	}
	s.batches++
	s.total += uint64(len(in))
	// A batch larger than the whole ring: only its tail survives.
	if overflow := len(in) - s.retention; overflow > 0 {
		in = in[overflow:]
	}
	if n := len(in); n > 0 {
		s.grow(n)
		idx := s.head + s.size
		if idx >= len(s.ring) {
			idx -= len(s.ring)
		}
		// Copy in at most two contiguous runs around the wrap point.
		run := min(n, len(s.ring)-idx)
		strip(s.ring[idx:idx+run], in[:run])
		strip(s.ring, in[run:])
		if s.size+n <= len(s.ring) {
			s.size += n
		} else {
			s.head += s.size + n - len(s.ring)
			if s.head >= len(s.ring) {
				s.head -= len(s.ring)
			}
			s.size = len(s.ring)
		}
	}
	s.first = s.total - uint64(s.size)
	// Release parked waiters; the channel only exists while someone waits,
	// keeping the unwatched write path allocation-free.
	if s.notify != nil && len(b.Tuples) > 0 {
		close(s.notify)
		s.notify = nil
	}
	return nil
}

// grow makes room for n more records without eviction while the ring is
// below full size, doubling it (capped at retention). Below full size
// nothing has been evicted, so the retained records sit at ring[:size].
func (s *ResultStore) grow(n int) {
	need := s.size + n
	if need <= len(s.ring) || len(s.ring) == s.retention {
		return
	}
	ring := make([]record, min(max(2*len(s.ring), need), s.retention))
	copy(ring, s.ring[:s.size])
	s.ring = ring
}

// ReadFrom returns the retained tuples at cursor positions ≥ cursor, up to
// `limit` of them (limit ≤ 0 means all retained), copied into dst's storage
// — pass a buffer borrowed from the arena (BorrowTuples) to keep reads
// allocation-free. It returns the filled slice, the cursor to resume from,
// and how many tuples the reader missed because they were evicted before it
// arrived (cursor < oldest retained). A cursor beyond the end of the stream
// is clamped: the read is empty and next is the end cursor.
//
// The returned slice aliases dst's storage, not the ring, so it stays valid
// while the writer keeps appending.
func (s *ResultStore) ReadFrom(cursor uint64, limit int, dst []Tuple) (out []Tuple, next uint64, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor < s.first {
		dropped = s.first - cursor
		cursor = s.first
	}
	if cursor > s.total {
		cursor = s.total
	}
	avail := int(s.total - cursor)
	if limit <= 0 || limit > avail {
		limit = avail
	}
	out = slices.Grow(dst[:0], limit)[:limit]
	// Ring offset of the first requested tuple.
	off := s.head + int(cursor-s.first)
	if off >= len(s.ring) {
		off -= len(s.ring)
	}
	// Rebuild in at most two contiguous runs around the wrap point.
	run := min(limit, len(s.ring)-off)
	rebuild(out[:run], s.ring[off:off+run], s.attr)
	rebuild(out[run:], s.ring, s.attr)
	return out, cursor + uint64(limit), dropped
}

// rebuild fills dst with full Tuples from the leading records of src.
func rebuild(dst []Tuple, src []record, attr string) {
	src = src[:len(dst)]
	for i := range dst {
		// Field-wise stores: a composite-literal assignment is staged
		// through a stack temporary, which costs twice as much here.
		r, d := &src[i], &dst[i]
		d.ID, d.Attr, d.T, d.X, d.Y, d.Value, d.Sensor = r.ID, attr, r.T, r.X, r.Y, r.Value, r.Sensor
	}
}

// Tuples returns a copy of every retained tuple, oldest first. It is the
// bounded replacement for Collector.Tuples: the slice holds at most
// Retention() tuples regardless of how many were fabricated.
func (s *ResultStore) Tuples() []Tuple {
	out, _, _ := s.ReadFrom(0, 0, nil)
	return out
}

// Len returns the number of retained tuples.
func (s *ResultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Total returns the number of tuples ever appended; it is also the cursor
// one past the newest tuple.
func (s *ResultStore) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Dropped returns how many tuples have been evicted from the ring over the
// store's lifetime; it is also the cursor of the oldest retained tuple.
func (s *ResultStore) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// Batches returns the number of batches received.
func (s *ResultStore) Batches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// ErrStoreClosed is returned by Wait when the store was closed.
var ErrStoreClosed = errors.New("stream: result store closed")

// Wait blocks until the stream has grown past cursor (a tuple at position
// cursor exists, possibly already evicted), the store is closed
// (ErrStoreClosed), or ctx is done (its error). It is the push primitive
// under streaming delivery: a streamer alternates ReadFrom and Wait.
func (s *ResultStore) Wait(ctx context.Context, cursor uint64) error {
	for {
		s.mu.Lock()
		if s.total > cursor {
			s.mu.Unlock()
			return nil
		}
		if s.closed {
			s.mu.Unlock()
			return ErrStoreClosed
		}
		if s.notify == nil {
			s.notify = make(chan struct{})
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close marks the store finished: subsequent Process calls fail with
// ErrClosed and blocked Wait calls return ErrStoreClosed. Reads remain
// valid. Closing an already-closed store is a no-op.
func (s *ResultStore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.notify != nil {
		close(s.notify)
		s.notify = nil
	}
}
