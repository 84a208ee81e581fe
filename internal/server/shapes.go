package server

import (
	"container/list"

	"panda/internal/metrics"
)

// Shape-level telemetry: every successful query is attributed to its plan
// signature digest (the renaming-invariant shape identity the planner caches
// by), so /metrics and /v1/shapes can answer "which query shapes dominate
// traffic and how does latency distribute per shape". Cardinality is bounded
// by a top-K LRU table on the digest; evicted shapes roll up into a single
// "other" bucket, so an adversarial stream of novel shapes can never explode
// the label space of the exposition.

// otherShapeLabel is the digest label the evicted tail rolls up into.
const otherShapeLabel = "other"

// shapeStat accumulates one shape's telemetry.
type shapeStat struct {
	digest   string
	requests map[string]uint64 // committed mode → count
	rows     uint64
	exec     metrics.Histogram
}

func newShapeStat(digest string) *shapeStat {
	return &shapeStat{digest: digest, requests: map[string]uint64{}}
}

func (s *shapeStat) total() uint64 {
	var n uint64
	for _, c := range s.requests {
		n += c
	}
	return n
}

func (s *shapeStat) clone() *shapeStat {
	c := newShapeStat(s.digest)
	for m, n := range s.requests {
		c.requests[m] = n
	}
	c.rows = s.rows
	c.exec = s.exec
	return c
}

// shapeTable is the bounded top-K shape table: an LRU keyed by signature
// digest whose evictions fold into the "other" rollup instead of being
// lost. Not goroutine-safe; the owning telemetry struct serializes access.
type shapeTable struct {
	cap      int
	ll       *list.List               // front = most recently observed
	idx      map[string]*list.Element // digest → element holding *shapeStat
	other    *shapeStat               // rollup of every evicted shape
	evicted  uint64                   // digests evicted into other, total
	overflow bool                     // other has absorbed at least one shape
}

// defaultShapeTableSize bounds the per-shape label cardinality when the
// Config does not say otherwise.
const defaultShapeTableSize = 64

func newShapeTable(capacity int) *shapeTable {
	if capacity <= 0 {
		capacity = defaultShapeTableSize
	}
	return &shapeTable{
		cap:   capacity,
		ll:    list.New(),
		idx:   map[string]*list.Element{},
		other: newShapeStat(otherShapeLabel),
	}
}

// observe attributes one served query to its shape, evicting the
// least-recently-observed shape into "other" when the table is full.
func (t *shapeTable) observe(digest, mode string, rows uint64, seconds float64) {
	el, ok := t.idx[digest]
	if !ok {
		if t.ll.Len() >= t.cap {
			lru := t.ll.Back()
			ev := lru.Value.(*shapeStat)
			for m, n := range ev.requests {
				t.other.requests[m] += n
			}
			t.other.rows += ev.rows
			t.other.exec.Merge(&ev.exec)
			t.ll.Remove(lru)
			delete(t.idx, ev.digest)
			t.evicted++
			t.overflow = true
		}
		el = t.ll.PushFront(newShapeStat(digest))
		t.idx[digest] = el
	} else {
		t.ll.MoveToFront(el)
	}
	s := el.Value.(*shapeStat)
	s.requests[mode]++
	s.rows += rows
	s.exec.Observe(seconds)
}

// snapshot deep-copies the table in most-recently-observed order plus the
// "other" rollup (nil when nothing has been evicted), so rendering can
// happen outside the metrics lock.
func (t *shapeTable) snapshot() (shapes []*shapeStat, other *shapeStat, evicted uint64) {
	shapes = make([]*shapeStat, 0, t.ll.Len())
	for el := t.ll.Front(); el != nil; el = el.Next() {
		shapes = append(shapes, el.Value.(*shapeStat).clone())
	}
	if t.overflow {
		other = t.other.clone()
	}
	return shapes, other, t.evicted
}
