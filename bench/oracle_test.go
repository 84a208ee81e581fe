package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"panda"
	"panda/internal/query"
	"panda/internal/relation"
	"panda/internal/server"
)

// oracleFixture answers every plan-cold shape over a small catalog through
// the facade, with the instance the oracle checks it against.
type oracleFixture struct {
	name string
	pr   *query.ParseResult
	ins  *query.Instance
	res  *panda.Result
}

func oracleFixtures(t *testing.T) []oracleFixture {
	t.Helper()
	cat := newRelabeling(3, 6).catalog(plantedCatalog(structureRand(), 12, 6, 3))
	db, err := loadDB(cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var out []oracleFixture
	for _, sh := range planColdShapes {
		pr, err := query.Parse(sh.src)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := bindCatalog(pr, cat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(sh.src, sh.options()...)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		out = append(out, oracleFixture{sh.name, pr, ins, res})
	}
	return out
}

// without returns a copy of r that lacks its first tuple.
func without(r *relation.Relation) *relation.Relation {
	out := relation.New(r.Name, r.Attrs())
	first := true
	for row := range r.All() {
		if !first {
			out.Insert(row)
		}
		first = false
	}
	return out
}

// The oracle accepts what the engine answers and rejects every perturbation
// of it: a dropped row, an extra row, a flipped Boolean, rule tables emptied
// so that they no longer cover the body.
func TestOracleRejectsPerturbedResults(t *testing.T) {
	for _, f := range oracleFixtures(t) {
		if err := checkResult(f.pr.Conj, f.pr.Rule, f.ins, f.res); err != nil {
			t.Errorf("%s: the engine's own answer was rejected: %v", f.name, err)
			continue
		}
		sum := resultChecksum(f.res)
		bad := *f.res
		switch {
		case f.pr.Conj == nil:
			// Dropping a tuple from one table need not break the model (the
			// other target may cover the same body tuples); dropping the
			// first tuple of every table leaves a body tuple uncovered
			// whenever the tables held no spare rows for it.
			bad.Tables = map[panda.Set]*panda.Relation{}
			rows := 0
			for b, tbl := range f.res.Tables {
				rows += tbl.Size()
				bad.Tables[b] = relation.New(tbl.Name, tbl.Attrs())
			}
			if rows == 0 {
				t.Fatalf("%s: every rule table is empty; the fixture checks nothing", f.name)
			}
		case f.pr.Conj.IsBoolean():
			bad.OK = !bad.OK
		default:
			if f.res.Rel.Size() == 0 {
				t.Fatalf("%s: empty answer; the fixture checks nothing", f.name)
			}
			bad.Rel = without(f.res.Rel)
		}
		if err := checkResult(f.pr.Conj, f.pr.Rule, f.ins, &bad); err == nil {
			t.Errorf("%s: a perturbed answer passed the oracle", f.name)
		}
		if resultChecksum(&bad) == sum {
			t.Errorf("%s: a perturbed answer kept its checksum", f.name)
		}
		if f.pr.Conj != nil && !f.pr.Conj.IsBoolean() {
			extra := *f.res
			extra.Rel = f.res.Rel.Clone("Q")
			row := make([]relation.Value, f.res.Rel.Attrs().Card())
			for i := range row {
				row[i] = 99 // outside the fixture's domain
			}
			extra.Rel.Insert(row)
			if err := checkResult(f.pr.Conj, f.pr.Rule, f.ins, &extra); err == nil {
				t.Errorf("%s: an answer with an extra row passed the oracle", f.name)
			}
		}
	}
}

// A real /v1/query response decodes into an answer the oracle accepts, and
// one it rejects once a value in the body is changed; the answer checksum
// ignores the timings tail and nothing else.
func TestOracleChecksWireRows(t *testing.T) {
	cat, _ := serveCatalog(5, 40, 8)
	db, err := loadDB(cat)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(server.Config{DB: db})
	for _, sh := range serveShapes {
		pr, err := query.Parse(sh.src)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := bindCatalog(pr, cat)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(sh.requestBody())))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sh.name, rec.Code, rec.Body)
		}
		body := rec.Body.Bytes()
		check := func(body []byte) error {
			res, err := decodeAnswer(body, pr)
			if err != nil {
				return err
			}
			return checkResult(pr.Conj, pr.Rule, ins, res)
		}
		if err := check(body); err != nil {
			t.Errorf("%s: the server's own response was rejected: %v", sh.name, err)
		}
		if !bytes.Contains(body, []byte(`,"timings":`)) {
			t.Fatalf("%s: response carries no timings tail", sh.name)
		}
		retimed := bytes.Replace(body, []byte(`"prepare_wait":`), []byte(`"prepare_wait":1`), 1)
		if bodyChecksum(retimed) != bodyChecksum(body) {
			t.Errorf("%s: the answer checksum depends on the timings tail", sh.name)
		}
		var tampered []byte
		if i := bytes.Index(body, []byte(`"rows":[[`)); i >= 0 {
			at := i + len(`"rows":[[`)
			tampered = append(append(append([]byte{}, body[:at]...), '7'), body[at:]...) // 3 → 73
		} else {
			tampered = bytes.Replace(body, []byte(`"ok":true`), []byte(`"ok":false`), 1)
		}
		if bytes.Equal(tampered, body) {
			t.Fatalf("%s: nothing to tamper with in %s", sh.name, body[:min(len(body), 120)])
		}
		if err := check(tampered); err == nil {
			t.Errorf("%s: a tampered response passed the oracle", sh.name)
		}
		if bodyChecksum(tampered) == bodyChecksum(body) {
			t.Errorf("%s: a tampered response kept its checksum", sh.name)
		}
	}
}
