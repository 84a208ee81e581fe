package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"panda"
	"panda/internal/bitset"
	"panda/internal/query"
	"panda/internal/relation"
)

// shape is one query text with the plan mode it is sent under ("" = auto).
// Shapes are fixed: a seed changes the data they run over, never the texts.
type shape struct {
	name string
	src  string
	mode string
}

func (s shape) planMode() panda.PlanMode {
	switch s.mode {
	case "full":
		return panda.ModeFull
	case "fhtw":
		return panda.ModeFhtw
	case "subw":
		return panda.ModeSubw
	}
	return panda.ModeAuto
}

// requestBody is the POST /v1/query body that sends the shape (serve shapes
// carry no mode).
func (s shape) requestBody() []byte {
	body, _ := json.Marshal(map[string]string{"query": s.src}) // strings always marshal
	return body
}

func (s shape) options() []panda.Option {
	if s.mode == "" {
		return nil
	}
	return []panda.Option{panda.WithMode(s.planMode())}
}

const (
	triangleBody  = "R(A,B), S(B,C), T(A,C)."
	fourCycleBody = "R(A,B), S(B,C), T(C,D), U(D,A)."
	pathBody      = "R(A,B), S(B,C), T(C,D)."
)

// planColdShapes is the plan-cold corpus: ten first sightings per fresh
// session, from a one-LP triangle to the Boolean 4-cycle's submodular-width
// plan. The Boolean 5-cycle (over a second per plan) would swamp the mix and
// is measured only as the per-layer metric plan.prepare_c5_ms.
//
// The tenth, the cheap two-path, pins the mix: by cost the shapes fall into
// clusters (four under 1.5 ms, c4-full and c4-deg at 2.2 ms, two at 3.4 ms,
// two at 7 ms), and with nine shapes the median operation sat at the upper
// edge of the 2.2 ms pair, on the cliff up to 3.3 ms — it moved by a quarter
// with the weight of the cheaper shapes' tails. With ten it sits between the
// pair, a tenth of the operations away from either cliff.
var planColdShapes = []shape{
	{"tri-full", "Q(A,B,C) :- " + triangleBody, ""},
	{"tri-bool", "Q() :- " + triangleBody, ""},
	{"c4-full", "Q(A,B,C,D) :- " + fourCycleBody, "full"},
	{"c4-fhtw", "Q(A,B,C,D) :- " + fourCycleBody, "fhtw"},
	{"c4-subw", "Q(A,B,C,D) :- " + fourCycleBody, "subw"},
	{"c4-bool", "Q() :- " + fourCycleBody, "subw"},
	{"path3-proj", "Q(A,D) :- " + pathBody, "fhtw"},
	{"rule", "T1(A,B,C) v T2(B,C,D) :- " + pathBody, ""},
	// The degree bound equals the relation size, so every seed's data obeys it.
	{"c4-deg", fmt.Sprintf("Q(A,B,C,D) :- %s\ndeg(R: A,B | A) <= %d", fourCycleBody, planColdRows), ""},
	{"path2-proj", "Q(A,C) :- R(A,B), S(B,C).", ""},
}

// serveShapes are the four texts the serve workloads repeat; their responses
// run from half a kilobyte (the Boolean answer) to the rule's two tables.
var serveShapes = []shape{
	{"c4-bool", "Q() :- " + fourCycleBody, ""},
	{"tri-full", "Q(A,B,C) :- " + triangleBody, ""},
	{"c4-full", "Q(A,B,C,D) :- " + fourCycleBody, ""},
	{"rule", "T1(A,B,C) v T2(B,C,D) :- " + pathBody, ""},
}

// Inputs are a fixed structure under a seeded relabeling. The structure —
// which rows each relation holds, in which order, drawn once from
// structureSeed — fixes everything the engine's work depends on: relation
// sizes, degrees, join sizes, the order inserts arrive in. The run's seed
// draws a bijection of the value domain and every value goes through it, so
// two seeds give different data of exactly the same shape. Costs that depend
// on the shape of the data therefore repeat from seed to seed, and a
// difference between two runs is the machine's or the program's, not the
// draw's; costs that depend on the values themselves (hash placement, sort
// order, interning) still vary with the seed.
const structureSeed = 1

func structureRand() *rand.Rand { return rand.New(rand.NewSource(structureSeed)) }

// relabeling is a bijection of [0, len).
type relabeling []relation.Value

func newRelabeling(seed int64, dom int) relabeling {
	l := make(relabeling, dom)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(dom) {
		l[i] = relation.Value(v)
	}
	return l
}

func (l relabeling) row(row []relation.Value) []relation.Value {
	out := make([]relation.Value, len(row))
	for i, v := range row {
		out[i] = l[v]
	}
	return out
}

func (l relabeling) rows(rows [][]relation.Value) [][]relation.Value {
	out := make([][]relation.Value, len(rows))
	for i, row := range rows {
		out[i] = l.row(row)
	}
	return out
}

func (l relabeling) catalog(c catalog) catalog {
	out := catalog{}
	for name, rows := range c {
		out[name] = l.rows(rows)
	}
	return out
}

// instance rebuilds every relation of ins with its values relabeled, rows in
// the same order.
func (l relabeling) instance(ins *query.Instance) *query.Instance {
	out := &query.Instance{}
	for _, r := range ins.Relations {
		b := relation.NewBuilder(r.Name, r.Attrs(), r.Size())
		for row := range r.All() {
			b.Add(l.row(row))
		}
		out.Relations = append(out.Relations, b.Build())
	}
	return out
}

// catalogNames are the binary relations every textual workload runs over.
var catalogNames = []string{"R", "S", "T", "U"}

// catalog holds named relations as rows in declared column order — the
// form the facade's Insert, the HTTP rows endpoint and the oracle all take.
type catalog map[string][][]relation.Value

func (c catalog) clone() catalog {
	out := catalog{}
	for name, rows := range c {
		out[name] = append([][]relation.Value(nil), rows...)
	}
	return out
}

// randomCatalog draws n distinct pairs over [dom]² for each catalog
// relation.
func randomCatalog(rng *rand.Rand, n, dom int) catalog { return plantedCatalog(rng, n, dom, 0) }

// serveCatalog is a serve workload's loaded catalog and the rows its
// inserts will add, for a seed.
func serveCatalog(seed int64, n, dom int) (catalog, *freshRows) {
	rng := structureRand()
	base := randomCatalog(rng, n, dom)
	fresh := newFreshRows(rng, base, dom)
	l := newRelabeling(seed, dom)
	for name, rows := range fresh.pending {
		fresh.pending[name] = l.rows(rows)
	}
	return l.catalog(base), fresh
}

// plantedCatalog is randomCatalog with the first `planted` rows of every
// relation set to (i, i): the diagonal tuples join with each other in every
// shape, so outputs are never empty however sparse the random rest is.
func plantedCatalog(rng *rand.Rand, n, dom, planted int) catalog {
	c := catalog{}
	for _, name := range catalogNames {
		seen := map[[2]int]bool{}
		for i := 0; i < planted; i++ {
			seen[[2]int{i, i}] = true
			c[name] = append(c[name], []relation.Value{relation.Value(i), relation.Value(i)})
		}
		for len(c[name]) < n {
			p := [2]int{rng.Intn(dom), rng.Intn(dom)}
			if seen[p] {
				continue
			}
			seen[p] = true
			c[name] = append(c[name], []relation.Value{relation.Value(p[0]), relation.Value(p[1])})
		}
	}
	return c
}

// randomInstance fills every (binary) atom of a programmatic schema with n
// distinct pairs over [dom]².
func randomInstance(rng *rand.Rand, s *query.Schema, n, dom int) *query.Instance {
	ins := query.NewInstance(s)
	for _, r := range ins.Relations {
		for r.Size() < n {
			r.Insert([]relation.Value{relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))})
		}
	}
	return ins
}

// loadDB opens a session over a catalog.
func loadDB(cat catalog) (*panda.DB, error) {
	db := panda.Open()
	for _, name := range catalogNames {
		if err := db.CreateRelation(name, 2); err != nil {
			return nil, err
		}
		if err := db.Insert(name, cat[name]...); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// buildRelation loads rows (declared column order) into a catalog-style
// relation whose column i is attribute i.
func buildRelation(name string, rows [][]relation.Value) *relation.Relation {
	b := relation.NewBuilder(name, bitset.Full(2), len(rows))
	for _, row := range rows {
		b.Add(row)
	}
	return b.Build()
}

// freshRows hands out, per relation, rows the relation does not hold yet
// (serveCatalog relabels them along with the catalog they extend).
//
// An insert that adds nothing is a no-op all the way down: the relation's
// row count is unchanged, Stamp keeps the old tick, every Stmt memo stays
// valid and the next read is a memo hit. A generator that can repeat a row
// (or a fleet that outlives one run under a fixed seed) silently turns a
// read/write workload into a read-only one. So the rows come from the
// complement of the loaded catalog, each at most once, in a fixed order.
type freshRows struct {
	pending map[string][][]relation.Value
}

func newFreshRows(rng *rand.Rand, base catalog, dom int) *freshRows {
	f := &freshRows{pending: map[string][][]relation.Value{}}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names) // map order must not leak into the seeded sequence
	for _, name := range names {
		have := map[[2]relation.Value]bool{}
		for _, row := range base[name] {
			have[[2]relation.Value{row[0], row[1]}] = true
		}
		var absent [][]relation.Value
		for a := 0; a < dom; a++ {
			for b := 0; b < dom; b++ {
				if !have[[2]relation.Value{relation.Value(a), relation.Value(b)}] {
					absent = append(absent, []relation.Value{relation.Value(a), relation.Value(b)})
				}
			}
		}
		rng.Shuffle(len(absent), func(i, j int) { absent[i], absent[j] = absent[j], absent[i] })
		f.pending[name] = absent
	}
	return f
}

// next returns a row the named relation has never held; ok is false once
// the domain is exhausted.
func (f *freshRows) next(name string) (row []relation.Value, ok bool) {
	rows := f.pending[name]
	if len(rows) == 0 {
		return nil, false
	}
	f.pending[name] = rows[1:]
	return rows[0], true
}
