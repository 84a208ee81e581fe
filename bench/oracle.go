package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sort"

	"panda"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/wcoj"
)

// The output oracle. Every operation's output is reduced to a checksum as
// it is consumed, and must equal the checksum of the first occurrence of
// the same (operation, catalog state); that first occurrence is kept and,
// after the timed phase, compared in full against an implementation that
// shares no code with the engine under test:
//
//	full / projection queries   rows  == wcoj.Join (projected)
//	Boolean queries             OK    == wcoj.Boolean
//	disjunctive rules           Instance.IsModel(tables)
//	HTTP responses              body  == that of a single pandad over a
//	                            shadow catalog in the same state, whose
//	                            decoded rows are checked as above

// bindCatalog binds catalog rows to a parsed query's schema.
func bindCatalog(pr *query.ParseResult, cat catalog) (*query.Instance, error) {
	return query.BindInstanceRows(&pr.Rule.Schema, func(name string) ([][]relation.Value, int, bool) {
		rows, ok := cat[name]
		return rows, 2, ok
	})
}

// checkResult compares a facade result against the independent evaluators.
// q is nil for a rule.
func checkResult(q *query.Conjunctive, rule *query.Disjunctive, ins *query.Instance, res *panda.Result) error {
	switch {
	case q == nil:
		if res.Mode != panda.ModeRule {
			return fmt.Errorf("oracle: rule answered in mode %s", res.Mode)
		}
		ok, err := ins.IsModel(rule, res.Tables)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("oracle: tables are not a model of the rule")
		}
		return nil
	case q.IsBoolean():
		want, err := wcoj.Boolean(&q.Schema, ins)
		if err != nil {
			return err
		}
		if res.Rel != nil {
			return fmt.Errorf("oracle: Boolean query returned an output relation")
		}
		if res.OK != want {
			return fmt.Errorf("oracle: Boolean answer %v, want %v", res.OK, want)
		}
		return nil
	default:
		want, err := wcoj.Join(&q.Schema, ins, nil)
		if err != nil {
			return err
		}
		if !q.IsFull() {
			want = want.Project(q.Free)
		}
		if res.Rel == nil {
			return fmt.Errorf("oracle: query returned no output relation")
		}
		if !res.Rel.Equal(want) {
			return fmt.Errorf("oracle: %d rows, want %d (or same count, different tuples)", res.Rel.Size(), want.Size())
		}
		if res.OK != (want.Size() > 0) {
			return fmt.Errorf("oracle: OK=%v with %d rows", res.OK, want.Size())
		}
		return nil
	}
}

// resultChecksum folds a result's answer — OK, the sorted rows, and for a
// rule every target table in target order — into one number. Computing it
// iterates the whole output, which is what a caller reading the answer does.
func resultChecksum(res *panda.Result) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	if res.OK {
		mix(1)
	}
	for row := range res.Iter() {
		for _, v := range row {
			mix(uint64(v))
		}
		mix(0xfeed)
	}
	if res.Mode == panda.ModeRule {
		for _, b := range sortedTargets(res.Tables) {
			mix(uint64(b))
			for row := range res.Tables[b].AllSorted() {
				for _, v := range row {
					mix(uint64(v))
				}
				mix(0xfeed)
			}
		}
	}
	return h
}

func sortedTargets(tables map[panda.Set]*panda.Relation) []panda.Set {
	targets := make([]panda.Set, 0, len(tables))
	for b := range tables {
		targets = append(targets, b)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets
}

var bodySeed = maphash.MakeSeed()

// answerOf cuts a /v1/query response down to its answer: everything before
// the "stats" member. What follows — engine counters, shape digest, wall
// clock timings — describes how the answer was computed, not the answer.
func answerOf(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"stats":`)); i >= 0 {
		return body[:i]
	}
	if i := bytes.LastIndex(body, []byte(`,"timings":`)); i >= 0 {
		return body[:i]
	}
	return body
}

// bodyChecksum hashes a response's answer part.
func bodyChecksum(body []byte) uint64 { return maphash.Bytes(bodySeed, answerOf(body)) }

// wireAnswer is the answer part of a /v1/query response, decoded.
type wireAnswer struct {
	Mode    string          `json:"mode"`
	OK      bool            `json:"ok"`
	Columns []string        `json:"columns"`
	Rows    [][]panda.Value `json:"rows"`
	Tables  []struct {
		Target string          `json:"target"`
		Size   int             `json:"size"`
		Rows   [][]panda.Value `json:"rows"`
	} `json:"tables"`
}

// decodeAnswer turns a /v1/query response body back into the Result shape
// checkResult takes: rows become a relation over the query's free variables
// (columns arrive in ascending variable order), a rule's tables relations
// over its targets (which arrive sorted by target set).
func decodeAnswer(body []byte, pr *query.ParseResult) (*panda.Result, error) {
	var got wireAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("oracle: response is not JSON: %v", err)
	}
	res := &panda.Result{OK: got.OK}
	fill := func(name string, attrs panda.Set, rows [][]panda.Value) (*relation.Relation, error) {
		r := relation.New(name, attrs)
		for _, row := range rows {
			if len(row) != attrs.Card() {
				return nil, fmt.Errorf("oracle: response row %v has %d values, want %d", row, len(row), attrs.Card())
			}
			r.Insert(row)
		}
		if r.Size() != len(rows) {
			return nil, fmt.Errorf("oracle: response repeats rows (%d distinct of %d)", r.Size(), len(rows))
		}
		return r, nil
	}
	if pr.Conj != nil {
		if got.Mode == panda.ModeRule.String() || len(got.Tables) > 0 {
			return nil, fmt.Errorf("oracle: conjunctive query answered as a rule")
		}
		if got.Rows == nil {
			return res, nil // a Boolean answer carries no rows member
		}
		var err error
		res.Rel, err = fill("Q", pr.Conj.Free, got.Rows)
		return res, err
	}
	if got.Mode != panda.ModeRule.String() {
		return nil, fmt.Errorf("oracle: rule answered in mode %s", got.Mode)
	}
	res.Mode = panda.ModeRule
	targets := append([]panda.Set(nil), pr.Rule.Targets...)
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	if len(got.Tables) != len(targets) {
		return nil, fmt.Errorf("oracle: response has %d tables for %d targets", len(got.Tables), len(targets))
	}
	res.Tables = map[panda.Set]*panda.Relation{}
	for i, b := range targets {
		if got.Tables[i].Size != len(got.Tables[i].Rows) {
			return nil, fmt.Errorf("oracle: table %s says size %d, carries %d rows", got.Tables[i].Target, got.Tables[i].Size, len(got.Tables[i].Rows))
		}
		t, err := fill(got.Tables[i].Target, b, got.Tables[i].Rows)
		if err != nil {
			return nil, err
		}
		res.Tables[b] = t
	}
	return res, nil
}
