package server

import (
	"testing"

	"panda"
)

// TestStmtCachePutKeepsFirst: two concurrent misses for one text both
// prepare and put; the cache keeps the first statement and hands it to the
// second caller too, so the text has one result memo and one refresh flight.
func TestStmtCachePutKeepsFirst(t *testing.T) {
	db := panda.Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	const src = `Q(A,B) :- R(A,B).`
	first, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	c := newStmtCache(4)
	if got := c.put(src, first).stmt; got != first {
		t.Fatalf("first put returned %p, want the statement it was given %p", got, first)
	}
	if got := c.put(src, second).stmt; got != first {
		t.Fatalf("second put returned %p, want the first statement %p", got, first)
	}
	if got, ok := c.get(src); !ok || got.stmt != first {
		t.Fatalf("get after two puts = %v, %v; want the first statement %p", got, ok, first)
	}
	if n, _, _ := c.snapshot(); n != 1 {
		t.Fatalf("cache holds %d entries for one text", n)
	}
}
