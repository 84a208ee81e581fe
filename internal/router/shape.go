package router

import (
	"container/list"
	"sync"

	"panda"
	"panda/internal/plan"
	"panda/internal/query"
)

// The router shards by query SHAPE, and it must name a query's shape
// without the catalog (it has no relations, no cardinalities) and without
// an LP solve. The trick is that the renaming-invariant canonicalization
// from internal/plan is a pure function of the parsed query and its
// declared constraints — a dry run of the same permutation search the
// planner's cache key uses, minus the completed per-atom cardinality
// constraints the replicas add from their (identical, fleet-wide) catalog.
// Two queries with the same execution-time signature digest therefore
// always compute the same routing key here, so each execution digest lands
// on exactly one replica: the shard-affinity invariant the e2e asserts.
//
// A disjunctive rule is canonicalized the same way (its targets where a
// conjunctive query has its free set), so a rule and its renamings share one
// shape and ship one plan exactly like a conjunctive query.

// shapeOf computes the routing key for a query text under a mode string
// ("", auto, full, fhtw, subw).
func shapeOf(src, mode string) (string, error) {
	m, _, err := plan.ParseMode(mode)
	if err != nil {
		return "", err
	}
	res, err := query.Parse(src)
	if err != nil {
		return "", err
	}
	var sig *plan.Signature
	if res.Conj == nil {
		sig, err = plan.CanonicalizeRule(res.Rule, res.Constraints)
	} else {
		sig, err = plan.Canonicalize(res.Conj, res.Constraints, m)
	}
	if err != nil {
		return "", err
	}
	return panda.SignatureDigest(sig.Key), nil
}

// shapeCache memoizes (query text, mode) → routing shape so steady-state
// traffic skips the canonicalization permutation search, mirroring the
// replicas' exact-fingerprint fast path. Bounded LRU; safe for concurrent
// use.
type shapeCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	index map[string]*list.Element
}

type shapeEntry struct {
	text string
	key  string
}

// defaultShapeCacheSize bounds the router's text→shape memo table.
const defaultShapeCacheSize = 4096

func newShapeCache(capacity int) *shapeCache {
	if capacity <= 0 {
		capacity = defaultShapeCacheSize
	}
	return &shapeCache{cap: capacity, ll: list.New(), index: map[string]*list.Element{}}
}

// shape resolves src+mode through the memo table, canonicalizing on a miss.
func (c *shapeCache) shape(src, mode string) (string, error) {
	memoKey := mode + "\x00" + src
	c.mu.Lock()
	if el, ok := c.index[memoKey]; ok {
		c.ll.MoveToFront(el)
		key := el.Value.(*shapeEntry).key
		c.mu.Unlock()
		return key, nil
	}
	c.mu.Unlock()

	key, err := shapeOf(src, mode)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	if _, dup := c.index[memoKey]; !dup {
		c.index[memoKey] = c.ll.PushFront(&shapeEntry{text: memoKey, key: key})
		for c.ll.Len() > c.cap {
			victim := c.ll.Back()
			c.ll.Remove(victim)
			delete(c.index, victim.Value.(*shapeEntry).text)
		}
	}
	c.mu.Unlock()
	return key, nil
}
