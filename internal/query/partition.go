package query

import (
	"panda/internal/bitset"
	"panda/internal/relation"
)

// Data-parallel co-partitioning: a single rule execution's data is split
// into k hash partitions so the same rule can run once per partition and
// the per-partition results can be merged deterministically. The split is
// exact for monotone (conjunctive / disjunctive-rule) semantics: every
// satisfying assignment fixes a value for the partition key, so its
// supporting rows in every key-covering atom land in the same bucket, and
// atoms not covering the key are replicated into every bucket. Hence
//
//	Q(I) = ⋃_{j<k} Q(I_j)   with   I_j ⊆ I,
//
// and for a disjunctive rule the union of per-partition models is a model
// of the full instance (the same one-atom-restriction argument semi-naive
// maintenance in internal/incr relies on).

// PartitionKey picks the deterministic partition key for a schema: the
// variable covered by the most atoms (ties broken toward the lowest
// variable id). It returns 0 (no key) when the schema has no atoms or no
// variables.
func PartitionKey(s *Schema) bitset.Set {
	bestVar, bestCover := -1, 0
	for v := 0; v < s.NumVars; v++ {
		cover := 0
		for _, a := range s.Atoms {
			if a.Vars.Contains(v) {
				cover++
			}
		}
		if cover > bestCover {
			bestVar, bestCover = v, cover
		}
	}
	if bestVar < 0 {
		return 0
	}
	return bitset.Singleton(bestVar)
}

// PartitionInstance splits ins into k co-partitioned sub-instances for s:
// every atom covering the partition key is hash-partitioned on the key
// (co-partitioned — equal key values share a bucket index across atoms),
// every other atom is replicated whole. It returns nil when k ≤ 1 or no
// partition key exists; otherwise exactly k sub-instances whose union of
// results reproduces the full result (see the package comment above).
// Sub-instance relations are shared, memoized partitions: read-only.
func PartitionInstance(s *Schema, ins *Instance, k int) []*Instance {
	if k <= 1 || len(ins.Relations) != len(s.Atoms) {
		return nil
	}
	key := PartitionKey(s)
	if key == 0 {
		return nil
	}
	parts := make([][]*relation.Relation, len(s.Atoms))
	for i, a := range s.Atoms {
		if key.SubsetOf(a.Vars) {
			parts[i] = ins.Relations[i].Partition(k, key)
		}
	}
	subs := make([]*Instance, k)
	for j := 0; j < k; j++ {
		sub := &Instance{Relations: make([]*relation.Relation, len(s.Atoms))}
		for i := range s.Atoms {
			if parts[i] != nil {
				sub.Relations[i] = parts[i][j]
			} else {
				sub.Relations[i] = ins.Relations[i]
			}
		}
		subs[j] = sub
	}
	return subs
}
