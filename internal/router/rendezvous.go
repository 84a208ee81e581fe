package router

// Rendezvous (highest-random-weight) hashing assigns each routing key an
// ordered preference list over the replica set: every (replica, key) pair
// gets an independent pseudo-random score and the replicas are ranked by
// it. The properties the fleet tier leans on:
//
//   - Deterministic and order-free: the ranking depends only on the SET of
//     replica names, not the order they were configured in, so every router
//     (and every restart) agrees.
//   - Minimal disruption: when a replica leaves, only the keys that ranked
//     it first move — each to its previous second choice — and no key
//     moves between two surviving replicas. That is exactly the failover
//     behaviour that keeps the other replicas' plan/stmt caches hot.
//   - Balance: scores are i.i.d. across keys, so shards even out over a
//     query-shape corpus without any coordination or ring maintenance.

// score hashes a (replica, key) pair with FNV-1a 64 (hash/fnv's New64a,
// written out so a ranking allocates no hasher). The NUL separator keeps
// ("ab","c") and ("a","bc") from colliding.
func score(replica, key string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(replica); i++ {
		h = (h ^ uint64(replica[i])) * prime64
	}
	h *= prime64 // the NUL: h ^ 0 is h
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return h
}

// scored is one replica's place in a ranking: its index among the replicas
// ranked and its score.
type scored struct {
	i int
	s uint64
}

// rank appends to into the index and score for key of each of n replicas,
// name(i) being replica i's name, and returns it in rendezvous order:
// descending score, (astronomically unlikely) score ties broken by name so
// the order is total. It allocates only when into has no room for n.
func rank(into []scored, n int, name func(int) string, key string) []scored {
	for i := 0; i < n; i++ {
		into = append(into, scored{i, score(name(i), key)})
		// Insertion sort: a fleet is a handful of replicas.
		for j := len(into) - 1; j > 0; j-- {
			a, b := into[j], into[j-1]
			if a.s < b.s || a.s == b.s && name(a.i) > name(b.i) {
				break
			}
			into[j], into[j-1] = b, a
		}
	}
	return into
}

// Rank orders replica names by rendezvous score for key: rank over a list of
// names, the form the ordering's properties are tested in. The returned
// slice is freshly allocated; replicas is not modified.
func Rank(replicas []string, key string) []string {
	order := rank(make([]scored, 0, len(replicas)), len(replicas), func(i int) string { return replicas[i] }, key)
	out := make([]string, len(order))
	for i, o := range order {
		out[i] = replicas[o.i]
	}
	return out
}
