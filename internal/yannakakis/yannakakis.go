// Package yannakakis implements Yannakakis's algorithm [48] for acyclic
// joins: the two-pass semijoin full reducer and the bottom-up join, used by
// the width-based PANDA plans (Corollaries 7.11 and 7.13) and by the
// tree-decomposition baseline.
package yannakakis

import (
	"context"
	"fmt"

	"panda/internal/relation"
)

// order returns node indices so that every child precedes its parent
// (children-first traversal of the forest described by parent[]).
func order(parent []int) ([]int, error) {
	n := len(parent)
	children := make([][]int, n)
	roots := []int{}
	for i, p := range parent {
		switch {
		case p == -1:
			roots = append(roots, i)
		case p < -1 || p >= n:
			return nil, fmt.Errorf("yannakakis: bad parent %d", p)
		default:
			children[p] = append(children[p], i)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("yannakakis: no root")
	}
	out := make([]int, 0, n)
	var rec func(i int)
	rec = func(i int) {
		for _, c := range children[i] {
			rec(c)
		}
		out = append(out, i)
	}
	for _, r := range roots {
		rec(r)
	}
	if len(out) != n {
		// Nodes unreachable from any root indicate a parent cycle.
		return nil, fmt.Errorf("yannakakis: parent array has a cycle")
	}
	return out, nil
}

// FullReduceContext runs the two semijoin passes over the join tree,
// returning globally consistent copies of the relations. rels[i]'s parent is
// rels[parent[i]]; parent[root] = −1. It checks ctx between semijoins, so a
// cancelled context aborts a large reduction between relational operations
// rather than only at pass boundaries.
func FullReduceContext(ctx context.Context, rels []*relation.Relation, parent []int) ([]*relation.Relation, error) {
	if len(rels) != len(parent) {
		return nil, fmt.Errorf("yannakakis: %d relations but %d parents", len(rels), len(parent))
	}
	post, err := order(parent)
	if err != nil {
		return nil, err
	}
	out := make([]*relation.Relation, len(rels))
	copy(out, rels)
	// Leaf → root: parent ⋉ child.
	for _, i := range post {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p := parent[i]; p >= 0 {
			out[p] = out[p].Semijoin(out[i])
		}
	}
	// Root → leaf: child ⋉ parent.
	for k := len(post) - 1; k >= 0; k-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := post[k]
		if p := parent[i]; p >= 0 {
			out[i] = out[i].Semijoin(out[p])
		}
	}
	return out, nil
}

// Join computes the full acyclic join: FullReduceContext then bottom-up joins.
// With the reducer applied first, every intermediate result stays within
// input + output size (Yannakakis's guarantee). It is JoinContext without
// cancellation.
func Join(rels []*relation.Relation, parent []int) (*relation.Relation, error) {
	return JoinContext(context.Background(), rels, parent)
}

// JoinContext is Join checking ctx between relational operations.
func JoinContext(ctx context.Context, rels []*relation.Relation, parent []int) (*relation.Relation, error) {
	red, err := FullReduceContext(ctx, rels, parent)
	if err != nil {
		return nil, err
	}
	post, err := order(parent)
	if err != nil {
		return nil, err
	}
	acc := make([]*relation.Relation, len(red))
	copy(acc, red)
	var root *relation.Relation
	for _, i := range post {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p := parent[i]; p >= 0 {
			acc[p] = acc[p].Join(acc[i])
		} else {
			if root != nil {
				// Forest with several roots: cross product.
				acc[i] = root.Join(acc[i])
			}
			root = acc[i]
		}
	}
	return root, nil
}

// NonEmpty reports whether the acyclic join is non-empty, using only the
// reducer (linear time, no output materialization). It is NonEmptyContext
// without cancellation.
func NonEmpty(rels []*relation.Relation, parent []int) (bool, error) {
	return NonEmptyContext(context.Background(), rels, parent)
}

// NonEmptyContext is NonEmpty checking ctx between relational operations.
func NonEmptyContext(ctx context.Context, rels []*relation.Relation, parent []int) (bool, error) {
	red, err := FullReduceContext(ctx, rels, parent)
	if err != nil {
		return false, err
	}
	for _, r := range red {
		if r.Size() == 0 {
			return false, nil
		}
	}
	return true, nil
}
