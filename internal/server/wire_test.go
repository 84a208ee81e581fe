package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"panda"
)

// wireRow is the i-th of a family of rows that all encode to wireRowBytes
// bytes, comma included, so a test can say how many fill a buffer.
func wireRow(i int) []panda.Value {
	return []panda.Value{panda.Value(1000000 + i), panda.Value(2000000 + i)}
}

const wireRowBytes = len(`[1000000,2000000],`)

// rowsPerWireBuf is how many wireRows it takes for streamRows to hand its
// buffer over: the opening bracket plus that many rows (the first without
// its comma) reach wireBufSize.
const rowsPerWireBuf = (wireBufSize + wireRowBytes - 1) / wireRowBytes

func wireRows(n int) [][]panda.Value {
	rows := make([][]panda.Value, n)
	for i := range rows {
		rows[i] = wireRow(i)
	}
	return rows
}

// writeLog records the size of every Write.
type writeLog struct {
	bytes.Buffer
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestStreamRowsBufferEdges: whatever the row count does to the buffer —
// never fills it, fills it exactly, spills it three times — the bytes are
// json.Marshal's, and they reach the writer a buffer at a time.
func TestStreamRowsBufferEdges(t *testing.T) {
	for _, n := range []int{0, 1, rowsPerWireBuf - 1, rowsPerWireBuf, 3*rowsPerWireBuf + 1} {
		rows := wireRows(n)
		var w writeLog
		b := newWireBuf(&w, nil)
		written, truncated := streamRows(b, rowSeq(rows), 0)
		b.close()
		if written != n || truncated {
			t.Fatalf("%d rows: streamRows = (%d, %v)", n, written, truncated)
		}
		want, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%d rows: body differs from json.Marshal (%d bytes, want %d)", n, w.Len(), len(want))
		}
		if got, want := len(w.sizes), n/rowsPerWireBuf+1; got != want {
			t.Fatalf("%d rows: %d writes %v, want %d", n, got, w.sizes, want)
		}
		for _, size := range w.sizes[:len(w.sizes)-1] {
			if size < wireBufSize || size >= wireBufSize+wireRowBytes {
				t.Fatalf("%d rows: a buffer of %d bytes was handed over, want %d and less than a row more", n, size, wireBufSize)
			}
		}
	}
}

// rowsField cuts the raw "rows" array out of a /v1/query body.
func rowsField(t *testing.T, body string) string {
	t.Helper()
	const open = `,"rows":`
	i := strings.Index(body, open)
	if i < 0 {
		t.Fatalf("no rows array in %.200s", body)
	}
	rest := body[i+len(open):]
	if strings.HasPrefix(rest, `[]`) {
		return `[]`
	}
	return rest[:strings.Index(rest, `]]`)+2]
}

// TestQueryBodyAtBufferEdges is the same through the whole handler, with
// max_rows cutting inside and at a buffer edge.
func TestQueryBodyAtBufferEdges(t *testing.T) {
	for _, n := range []int{0, 1, rowsPerWireBuf - 1, rowsPerWireBuf, 3*rowsPerWireBuf + 1} {
		_, ts, db := newTestServer(t, Config{})
		if err := db.CreateRelation("R", 2); err != nil {
			t.Fatal(err)
		}
		// Descending, so the answer's order is the sort's, not the storage's.
		rows := wireRows(n)
		for i := n - 1; i >= 0; i-- {
			if err := db.Insert("R", rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		code, qr, raw := queryHTTP(t, ts.URL, `{"query":"Q(A,B) :- R(A,B)."}`)
		if code != http.StatusOK || qr.Truncated || len(qr.Rows) != n {
			t.Fatalf("%d rows: status %d, %d rows, truncated %v", n, code, len(qr.Rows), qr.Truncated)
		}
		want, _ := json.Marshal(rows)
		if got := rowsField(t, raw); got != string(want) {
			t.Fatalf("%d rows: rows array differs from json.Marshal (%d bytes, want %d)", n, len(got), len(want))
		}
		if qr.Stats == nil || qr.Signature == "" || !strings.HasSuffix(raw, "}\n") {
			t.Fatalf("%d rows: the tail is missing: …%s", n, raw[max(0, len(raw)-120):])
		}
		for _, limit := range []int{n - 1, rowsPerWireBuf} {
			if limit < 1 || limit >= n {
				continue
			}
			code, qr, raw := queryHTTP(t, ts.URL, fmt.Sprintf(`{"query":"Q(A,B) :- R(A,B).","max_rows":%d}`, limit))
			want, _ := json.Marshal(rows[:limit])
			if code != http.StatusOK || !qr.Truncated || rowsField(t, raw) != string(want) {
				t.Fatalf("%d rows, max_rows %d: status %d, truncated %v, %d rows", n, limit, code, qr.Truncated, len(qr.Rows))
			}
			if !strings.Contains(raw, `]],"truncated":true,"stats":`) {
				t.Fatalf("%d rows, max_rows %d: truncated flag not where it was", n, limit)
			}
		}
	}
}

// TestWatchLinesLargerThanTheBuffer: a watch line longer than the wire
// buffer leaves in several writes, and still arrives whole with its tick —
// the subscriber is not left waiting for the next tick to push the tail out.
func TestWatchLinesLargerThanTheBuffer(t *testing.T) {
	_, ts, db := newTestServer(t, Config{})
	if err := db.CreateRelation("R", 2); err != nil {
		t.Fatal(err)
	}
	n := 3*rowsPerWireBuf + 1
	rows := wireRows(2 * n)
	if err := db.Insert("R", rows[:n]...); err != nil {
		t.Fatal(err)
	}
	ws := openWatch(t, ts.URL, `{"query":"Q(A,B) :- R(A,B)."}`)
	snap, _, _ := ws.next(t)
	if !snap.Snapshot || len(snap.Rows) != n {
		t.Fatalf("snapshot line: snapshot=%v with %d rows, want %d", snap.Snapshot, len(snap.Rows), n)
	}
	if err := db.Insert("R", rows[n:]...); err != nil {
		t.Fatal(err)
	}
	delta, _, _ := ws.next(t)
	if delta.Snapshot || len(delta.Rows) != n {
		t.Fatalf("delta line: snapshot=%v with %d rows, want %d", delta.Snapshot, len(delta.Rows), n)
	}
}

// hangUp is a ResponseWriter whose client goes away after `left` bytes.
type hangUp struct {
	header     http.Header
	left       int
	failed     bool
	afterwards int // Writes attempted after the one that failed
}

func (h *hangUp) Header() http.Header { return h.header }
func (h *hangUp) WriteHeader(int)     {}
func (h *hangUp) Write(p []byte) (int, error) {
	if h.failed {
		h.afterwards++
		return 0, io.ErrClosedPipe
	}
	if len(p) > h.left {
		h.failed = true
		return h.left, io.ErrClosedPipe
	}
	h.left -= len(p)
	return len(p), nil
}

// TestStreamRowsStopsAtFailedWrite: once a write fails the rows still to
// come are neither decoded nor encoded — the iterator is abandoned within
// the buffer in hand.
func TestStreamRowsStopsAtFailedWrite(t *testing.T) {
	total := 10 * rowsPerWireBuf
	yielded := 0
	rows := func(yield func([]panda.Value) bool) {
		for i := 0; i < total; i++ {
			yielded++
			if !yield(wireRow(i)) {
				return
			}
		}
	}
	w := &hangUp{left: wireBufSize + 100} // the second buffer fails
	b := newWireBuf(w, nil)
	written, _ := streamRows(b, rows, 0)
	if b.err == nil {
		t.Fatal("the failed write was not kept")
	}
	b.close()
	if yielded != 2*rowsPerWireBuf || written != yielded {
		t.Fatalf("%d rows pulled (%d encoded) of %d, want exactly two buffers' worth (%d)", yielded, written, total, 2*rowsPerWireBuf)
	}
	if w.afterwards != 0 {
		t.Fatalf("%d writes after the failed one", w.afterwards)
	}
	// The pooled buffer comes back clean.
	var ok writeLog
	b = newWireBuf(&ok, nil)
	streamRows(b, rowSeq(wireRows(1)), 0)
	b.close()
	if ok.String() != `[[1000000,2000000]]` {
		t.Fatalf("a buffer reused after a failure wrote %q", ok.String())
	}
}

// TestQueryClientHangsUp: a rule answer whose first table fills several
// buffers, to a client that goes away inside the first of them. Nothing more
// is written — not the table's other buffers, not the second table, not the
// tail — nothing panics, and the request is still counted.
func TestQueryClientHangsUp(t *testing.T) {
	s, ts, db := newTestServer(t, Config{})
	for _, name := range []string{"R", "S"} {
		if err := db.CreateRelation(name, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5*rowsPerWireBuf; i++ {
		if err := db.Insert("R", []panda.Value{panda.Value(i), panda.Value(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	// S is the larger side, so the rule's model is T1 = R: the plan answers
	// from the atom with fewer rows.
	for j := 0; j < 6*rowsPerWireBuf; j++ {
		if err := db.Insert("S", []panda.Value{panda.Value(j % 7), panda.Value(j)}); err != nil {
			t.Fatal(err)
		}
	}
	const body = `{"query":"T1(A,B) v T2(B,C) :- R(A,B), S(B,C)."}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Body.Len() < 2*wireBufSize {
		t.Fatalf("precondition: status %d, %d-byte answer, want one over %d bytes", rec.Code, rec.Body.Len(), 2*wireBufSize)
	}
	w := &hangUp{header: http.Header{}, left: wireBufSize / 2}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	if !w.failed || w.afterwards != 0 {
		t.Fatalf("failed=%v, %d writes after the failed one", w.failed, w.afterwards)
	}
	_, m := get(t, ts.URL+"/metrics")
	if !strings.Contains(m, `panda_http_requests_total{endpoint="query",code="200"} 2`) {
		t.Fatalf("the abandoned request was not counted:\n%s", m)
	}
}
