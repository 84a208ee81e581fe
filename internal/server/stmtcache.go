package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"panda"
)

// DefaultStmtCacheSize is the statement capacity of a Server whose config
// leaves StmtCacheSize at zero.
const DefaultStmtCacheSize = 256

// stmtCache is a bounded LRU of prepared statements keyed by raw query
// text. It sits above the planner's signature cache: a stmt hit skips
// parsing and catalog validation, and the Stmt it returns memoizes its last
// Result against the ticks of the relations it reads, so steady-state request
// handling on an unchanged catalog is parse-free, bind-free and plan-free.
// Once a referenced relation's tick moves, the statement's next run binds the
// catalog afresh, so entries never serve stale data and need no explicit
// invalidation here.
type stmtCache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List               // front = most recently used
	index        map[string]*list.Element // query text → element; value is *stmtEntry
	hits, misses uint64
}

type stmtEntry struct {
	src  string
	stmt *panda.Stmt
	// wire is the JSON both framings of an answer send around the rows of
	// the last Result the statement answered: the parts that Result fixes,
	// encoded once. An answer in either framing replaces a wire encoded for
	// an older Result, so no superseded Result outlives the next answer.
	wire atomic.Pointer[resultWire]
}

func newStmtCache(capacity int) *stmtCache {
	if capacity <= 0 {
		capacity = DefaultStmtCacheSize
	}
	return &stmtCache{cap: capacity, ll: list.New(), index: map[string]*list.Element{}}
}

// get returns the cached entry for src, refreshing its recency.
func (c *stmtCache) get(src string) (*stmtEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[src]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*stmtEntry), true
}

// put caches a statement and returns the entry the cache holds for src,
// evicting the least recently used entry beyond capacity. Concurrent misses
// for the same text may both prepare and put; the first put wins and every
// caller gets its entry, so one text has one result memo and one refresh in
// flight.
func (c *stmtCache) put(src string, st *panda.Stmt) *stmtEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[src]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*stmtEntry)
	}
	e := &stmtEntry{src: src, stmt: st}
	c.index[src] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.index, back.Value.(*stmtEntry).src)
	}
	return e
}

// snapshot reports (entries, hits, misses) for the metrics endpoint.
func (c *stmtCache) snapshot() (int, uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
