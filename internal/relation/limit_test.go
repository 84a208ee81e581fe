package relation_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
}
