package plan

import (
	"context"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"panda/internal/bitset"
	"panda/internal/query"
)

// Signature keys are a complete, self-contained encoding of a canonical
// query or rule: mode, variable count, head (free set, or a rule's targets),
// atom variable sets and the full guarded constraint set (see encode in
// signature.go). That makes a key
// enough to REBUILD its plan from scratch — no query text, no catalog —
// which is what the cross-version migration shim needs: when a FormatVersion
// bump invalidates a snapshot, the skipped keys are parsed back into
// canonical queries and re-planned in the background instead of silently
// re-paying their LP solves one traffic-time cache miss at a time.

// ParseSignatureKey inverts the canonical signature encoding: it rebuilds
// the canonical schema (synthetic R0, R1, … atom names, ascending argument
// order — the same shape toCanonical stores), the head sets (one free set,
// or a ModeRule key's targets), the guarded constraint set (cardinalities
// carry N = 0, "log-bound only", which planning never needs more than) and
// the resolved mode. It fails on malformed keys and on keys with unguarded
// constraints, which no Planner-built plan can produce.
func ParseSignatureKey(key string) (*query.Schema, []bitset.Set, []query.DegreeConstraint, Mode, error) {
	fail := func(why string) (*query.Schema, []bitset.Set, []query.DegreeConstraint, Mode, error) {
		return nil, nil, nil, 0, fmt.Errorf("plan: signature key %q: %s", key, why)
	}
	parts := strings.Split(key, ";")
	if len(parts) != 5 {
		return fail("want 5 ;-separated sections")
	}
	mode64, err := strconv.ParseInt(strings.TrimPrefix(parts[0], "m"), 10, 32)
	if err != nil || !strings.HasPrefix(parts[0], "m") {
		return fail("bad mode section")
	}
	mode := Mode(mode64)
	if mode < ModeRule || mode > ModeSubw {
		return fail("mode out of range")
	}
	n, err := strconv.Atoi(strings.TrimPrefix(parts[1], "n"))
	if err != nil || !strings.HasPrefix(parts[1], "n") || n < 0 || n > 32 {
		return fail("bad variable-count section")
	}
	parseMask := func(s string) (bitset.Set, bool) {
		v, err := strconv.ParseUint(s, 16, 32)
		if err != nil || len(s) != 8 {
			return 0, false
		}
		m := bitset.Set(v)
		return m, m.SubsetOf(bitset.Full(n))
	}
	if !strings.HasPrefix(parts[2], "F") {
		return fail("bad head section")
	}
	var heads []bitset.Set
	for _, enc := range strings.Split(strings.TrimPrefix(parts[2], "F"), ",") {
		h, ok := parseMask(enc)
		if !ok {
			return fail("bad head mask")
		}
		heads = append(heads, h)
	}
	if len(heads) != 1 && mode != ModeRule {
		return fail("a conjunctive key has exactly one free set")
	}
	if !strings.HasPrefix(parts[3], "A") {
		return fail("bad atom section")
	}
	var atoms []query.Atom
	if rest := strings.TrimPrefix(parts[3], "A"); rest != "" {
		for i, enc := range strings.Split(strings.TrimPrefix(rest, ":"), ":") {
			m, ok := parseMask(enc)
			if !ok {
				return fail("bad atom mask")
			}
			atoms = append(atoms, query.Atom{Name: fmt.Sprintf("R%d", i), Vars: m})
		}
	}
	if !strings.HasPrefix(parts[4], "C") {
		return fail("bad constraint section")
	}
	var cons []query.DegreeConstraint
	if rest := strings.TrimPrefix(parts[4], "C"); rest != "" {
		for _, enc := range strings.Split(strings.TrimPrefix(rest, ":"), ":") {
			// x/y/logN/gI, where logN is a RatString and may itself
			// contain one '/'.
			fields := strings.Split(enc, "/")
			if len(fields) < 4 || len(fields) > 5 {
				return fail("bad constraint encoding")
			}
			x, okX := parseMask(fields[0])
			y, okY := parseMask(fields[1])
			gs := fields[len(fields)-1]
			guard, err := strconv.Atoi(strings.TrimPrefix(gs, "g"))
			if !okX || !okY || err != nil || !strings.HasPrefix(gs, "g") {
				return fail("bad constraint fields")
			}
			if guard < 0 || guard >= len(atoms) {
				return fail("constraint guard out of range")
			}
			logN, ok := new(big.Rat).SetString(strings.Join(fields[2:len(fields)-1], "/"))
			if !ok || logN.Sign() < 0 {
				return fail("bad constraint log bound")
			}
			cons = append(cons, query.DegreeConstraint{X: x, Y: y, LogN: logN, Guard: guard})
		}
	}
	s := &query.Schema{NumVars: n, Atoms: atoms}
	if err := validate(s, heads, cons); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("plan: signature key %q: %w", key, err)
	}
	return s, heads, cons, mode, nil
}

// ReplanKey rebuilds the plan a signature key describes and installs it in
// the cache (a no-op cache hit when the key is already live). Because the
// reconstructed query (or rule) IS the canonical renaming, re-canonicalizing
// it lands on the same key, so a later Prepare for any renaming of the
// original is a hit. It returns the number of LP solves the rebuild paid
// (zero when the key was already cached).
func (pl *Planner) ReplanKey(ctx context.Context, key string) (int, error) {
	s, heads, cons, mode, err := ParseSignatureKey(key)
	if err != nil {
		return 0, err
	}
	before := pl.Stats().LPSolves
	if _, err := pl.prepare(ctx, s, heads, cons, mode); err != nil {
		return 0, fmt.Errorf("plan: replan %q: %w", key, err)
	}
	return int(pl.Stats().LPSolves - before), nil
}
