package relation_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"panda"
	"panda/internal/relation"
	"panda/internal/server"
)

// TestRowLimitIsATypedErrorAtTheSurface: every ingest path refuses, whole
// and with panda.ErrTooManyRows, the batch that would take a relation past
// the row limit — an error the server reports as a 4xx with a stable code —
// and leaves the catalog as it was. The limit is lowered here rather than
// approached.
func TestRowLimitIsATypedErrorAtTheSurface(t *testing.T) {
	relation.SetMaxRows(t, 5)
	db := panda.Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("R", []panda.Value{1, 1}, []panda.Value{2, 2}, []panda.Value{3, 3}); err != nil {
		t.Fatal(err)
	}
	size := func(name string) int {
		infos, err := db.Relations()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			if in.Name == name {
				return in.Size
			}
		}
		return -1
	}

	err := db.Insert("R", []panda.Value{4, 4}, []panda.Value{5, 5}, []panda.Value{6, 6})
	if !errors.Is(err, panda.ErrTooManyRows) || size("R") != 3 {
		t.Fatalf("DB.Insert past the limit: err=%v, |R|=%d (want ErrTooManyRows and 3)", err, size("R"))
	}
	if _, err := db.LoadCSV("R", strings.NewReader("7,7\n8,8\n9,9\n")); !errors.Is(err, panda.ErrTooManyRows) || size("R") != 3 {
		t.Fatalf("LoadCSV into an existing relation past the limit: err=%v, |R|=%d", err, size("R"))
	}
	if _, err := db.LoadCSV("Fresh", strings.NewReader("1\n2\n3\n4\n5\n6\n")); !errors.Is(err, panda.ErrTooManyRows) || size("Fresh") != -1 {
		t.Fatalf("LoadCSV of a fresh relation past the limit: err=%v, |Fresh|=%d", err, size("Fresh"))
	}
	// A batch that fits still goes in.
	if err := db.Insert("R", []panda.Value{4, 4}, []panda.Value{5, 5}); err != nil || size("R") != 5 {
		t.Fatalf("DB.Insert up to the limit: err=%v, |R|=%d", err, size("R"))
	}

	ts := httptest.NewServer(server.New(server.Config{DB: db}))
	defer ts.Close()
	for path, body := range map[string]string{
		"/v1/relations/R/rows": `{"rows":[[6,6]]}`,
		"/v1/relations/R/csv":  "6,6\n",
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "too_many_rows") {
			t.Fatalf("POST %s past the limit: %d %s", path, resp.StatusCode, msg)
		}
	}
	if size("R") != 5 {
		t.Fatalf("|R| = %d after the refused requests", size("R"))
	}

	// An operator output past the limit — here a cross product of 20 × 20
	// rows under a limit of 64 — fails the query with the same error instead
	// of panicking, on the caller's goroutine and in the executor's worker
	// pool alike (four partitions make four tasks, costly enough for the
	// pool), and the DB goes on answering.
	relation.SetMaxRows(t, 64)
	for _, name := range []string{"A", "B"} {
		if err := db.CreateRelation(name, 1); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 20; v++ {
			if err := db.Insert(name, []panda.Value{panda.Value(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const cross = "Q(X,Y) :- A(X), B(Y)."
	for _, opts := range [][]panda.Option{nil, {panda.WithParallelism(4)}, {panda.WithParallelism(4), panda.WithPartitions(4)}} {
		if _, err := db.Query(cross, opts...); !errors.Is(err, panda.ErrTooManyRows) {
			t.Fatalf("a 400-row join under a limit of 64 (%d options): err = %v, want ErrTooManyRows", len(opts), err)
		}
	}
	if res, err := db.Query("Q(X) :- A(X), B(X)."); err != nil || res.Rel.Size() != 20 {
		t.Fatalf("the DB after a query past the limit: err=%v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"query":"`+cross+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "too_many_rows") {
		t.Fatalf("POST /v1/query past the limit: %d %s", resp.StatusCode, msg)
	}

	// A statement's memo grows in place by each round's rows, outside any
	// execution: an answer that outgrows the limit that way fails the Query,
	// and the watch over the same text, with the same error. Every relation
	// and every execution stays far below the limit; only the answer, a
	// product, passes it. A round whose rows the memo already holds goes
	// through however close to the limit the answer is.
	const prod = "Q(X,Y) :- C(X), F(Y,Z)."
	if err := db.CreateRelation("C", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("F", 2); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if err := db.Insert("C", []panda.Value{panda.Value(v)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("F", []panda.Value{panda.Value(v), 0}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.Prepare(prod)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Query(); err != nil || res.Rel.Size() != 36 {
		t.Fatalf("the 6 × 6 product: err=%v", err)
	}
	w, err := db.Watch(prod)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, step := range []struct {
		atom string
		row  []panda.Value
		want int
	}{
		{"C", []panda.Value{6}, 42}, {"C", []panda.Value{7}, 48}, {"C", []panda.Value{8}, 54}, {"C", []panda.Value{9}, 60},
		{"F", []panda.Value{0, 1}, 60}, // ten rows the memo holds, past 64 if counted again
	} {
		if err := db.Insert(step.atom, step.row); err != nil {
			t.Fatal(err)
		}
		if res, err := st.Query(); err != nil || res.Rel.Size() != step.want {
			t.Fatalf("after %s%v: err=%v, want %d rows", step.atom, step.row, err, step.want)
		}
	}
	if err := db.Insert("F", []panda.Value{6, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); !errors.Is(err, panda.ErrTooManyRows) {
		t.Fatalf("a memo grown to 70 rows under a limit of 64: err = %v, want ErrTooManyRows", err)
	}
	// Two atoms' rows of one round can pass the limit together before the
	// merge, each of the round's executions under it: 4 × 2 and 64 × 1 rows
	// make 68 new ones.
	for _, name := range []string{"G", "H"} {
		if err := db.CreateRelation(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 60; v++ {
		if err := db.Insert("G", []panda.Value{panda.Value(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("H", []panda.Value{0}); err != nil {
		t.Fatal(err)
	}
	both, err := db.Prepare("P(X,Y) :- G(X), H(Y).")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := both.Query(); err != nil || res.Rel.Size() != 60 {
		t.Fatalf("the 60 × 1 product: err=%v", err)
	}
	if err := db.Insert("G", []panda.Value{60}, []panda.Value{61}, []panda.Value{62}, []panda.Value{63}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("H", []panda.Value{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := both.Query(); !errors.Is(err, panda.ErrTooManyRows) {
		t.Fatalf("a round of 68 new rows under a limit of 64: err = %v, want ErrTooManyRows", err)
	}

	for deadline, open := time.After(30*time.Second), true; open; {
		select {
		case _, open = <-w.Deltas():
		case <-deadline:
			t.Fatal("the watch over a memo grown past the limit is still running")
		}
	}
	if err := w.Err(); !errors.Is(err, panda.ErrTooManyRows) {
		t.Fatalf("the watch over a memo grown past the limit ended with %v, want ErrTooManyRows", err)
	}
}

// TestValueLimitIsATypedErrorAtTheSurface: the other hard limit, the intern
// table's 2³² ids, gets the same treatment — every ingest path refuses, whole
// and with panda.ErrTooManyValues (413 too_many_values on the wire), the
// batch whose cells might not all get ids, before anything is interned or
// inserted. The count is conservative, one new value per cell. The limit is
// lowered here rather than approached.
func TestValueLimitIsATypedErrorAtTheSurface(t *testing.T) {
	db := panda.Open()
	defer db.Close()
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	size := func(name string) int {
		infos, err := db.Relations()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			if in.Name == name {
				return in.Size
			}
		}
		return -1
	}
	// Values no other test of the package interns, and room for eight more.
	const base = 7_000_000_000
	relation.SetMaxValues(t, relation.Global.Len()+8)
	if err := db.Insert("R", []panda.Value{base, base + 1}, []panda.Value{base + 2, base + 3}); err != nil {
		t.Fatal(err)
	}
	interned := relation.Global.Len()

	err := db.Insert("R", []panda.Value{base + 4, base + 5}, []panda.Value{base + 6, base + 7}, []panda.Value{base + 8, base + 9})
	if !errors.Is(err, panda.ErrTooManyValues) || size("R") != 2 {
		t.Fatalf("DB.Insert past the limit: err=%v, |R|=%d (want ErrTooManyValues and 2)", err, size("R"))
	}
	if _, err := db.LoadCSV("R", strings.NewReader("7000000004,7000000005\n7000000006,7000000007\n7000000008,7000000009\n")); !errors.Is(err, panda.ErrTooManyValues) || size("R") != 2 {
		t.Fatalf("LoadCSV into an existing relation past the limit: err=%v, |R|=%d", err, size("R"))
	}
	if _, err := db.LoadCSV("Fresh", strings.NewReader("7000000004\n7000000005\n7000000006\n7000000007\n7000000008\n")); !errors.Is(err, panda.ErrTooManyValues) || size("Fresh") != -1 {
		t.Fatalf("LoadCSV of a fresh relation past the limit: err=%v, |Fresh|=%d", err, size("Fresh"))
	}
	if got := relation.Global.Len(); got != interned {
		t.Fatalf("a refused batch interned %d values", got-interned)
	}
	// A batch that fits still goes in.
	if err := db.Insert("R", []panda.Value{base + 4, base + 5}, []panda.Value{base + 6, base + 7}); err != nil || size("R") != 4 {
		t.Fatalf("DB.Insert up to the limit: err=%v, |R|=%d", err, size("R"))
	}

	ts := httptest.NewServer(server.New(server.Config{DB: db}))
	defer ts.Close()
	for path, body := range map[string]string{
		"/v1/relations/R/rows": `{"rows":[[7000000008,7000000009]]}`,
		"/v1/relations/R/csv":  "7000000008,7000000009\n",
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "too_many_values") {
			t.Fatalf("POST %s past the limit: %d %s", path, resp.StatusCode, msg)
		}
	}
	if size("R") != 4 {
		t.Fatalf("|R| = %d after the refused requests", size("R"))
	}
}
