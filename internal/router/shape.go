package router

import (
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
//
// The shape is computed afresh for every routed request — a parse plus a
// canonicalisation, about 10 µs for the shapes in this tree — and nothing is
// memoized by query text.

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
