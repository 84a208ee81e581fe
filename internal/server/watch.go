package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"panda"
)

// POST /v1/watch — the standing-query stream. The request body names a
// query; the response is an unbounded NDJSON stream: first one snapshot
// line carrying the complete materialized result and the catalog tick it
// reflects, then one line per maintenance delta as the catalog mutates.
// Every line is flushed as soon as it is written, so a subscriber sees a
// delta within one maintenance round of the mutation that caused it.
//
//	{"snapshot":true,"tick":3,"mode":"full","ok":true,"width":"3/2","columns":["A","B","C"],"rows":[[1,2,3]]}
//	{"tick":5,"ok":true,"rows":[[2,3,4]]}
//	{"tick":9,"ok":true,"resync":true,"rows":[[1,2,3],[2,3,4]]}
//
// A delta line's rows are the newly added tuples; a line with
// "resync":true instead carries the complete current state and the
// consumer must replace its materialization (sent after a drop/recreate of
// a referenced relation, on delta-queue overflow, and on every round of a
// disjunctive-rule watch, whose lines carry "tables" rather than "rows").
// The stream ends when the client disconnects, the server drains, or the
// watch dies — a terminal error is reported as a final {"error":…,"code":…}
// line.

type watchRequest struct {
	// Query is the standing query text: a conjunctive query or a
	// disjunctive datalog rule, with optional constraint lines.
	Query string `json:"query"`
	// Queue sizes the watch's bounded delta queue; 0 selects the session
	// default, and more than maxWatchQueue is refused. A slow subscriber
	// that overflows it receives a resync line instead of unbounded
	// buffering.
	Queue int `json:"queue,omitempty"`
}

// maxWatchQueue bounds a requested delta queue. The queue is a channel
// allocated whole when the watch opens, so an unchecked size asks the
// runtime for whatever memory the request names, and failing that
// allocation kills the process.
const maxWatchQueue = 1 << 16

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req watchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.fail(w, errors.New("missing query text"))
		return
	}
	if req.Queue < 0 || req.Queue > maxWatchQueue {
		s.fail(w, fmt.Errorf("queue must be between 0 and %d", maxWatchQueue))
		return
	}
	e, err := s.stmt(req.Query)
	if err != nil {
		s.fail(w, err)
		return
	}
	var opts []panda.Option
	if req.Queue > 0 {
		opts = append(opts, panda.WithWatchQueue(req.Queue))
	}
	st := e.stmt
	wch, err := st.Watch(opts...)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer wch.Close()
	s.metrics.watchSubs.Add(1)
	defer s.metrics.watchSubs.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(w)
	res, tick := wch.Snapshot()
	writeWatchSnapshot(w, st, res, tick)
	flush.Flush()

	for {
		select {
		case <-r.Context().Done():
			// Client went away; the deferred Close tears the maintainer down.
			return
		case <-s.drainCh:
			// Shutdown: end the stream so the in-flight drain can complete.
			return
		case d, ok := <-wch.Deltas():
			if !ok {
				// The watch died underneath us (session closed, maintenance
				// error); report why as the stream's final line.
				if err := wch.Err(); err != nil {
					b, _ := json.Marshal(map[string]string{"error": err.Error(), "code": codeOf(err)})
					w.Write(append(b, '\n'))
					flush.Flush()
				}
				return
			}
			s.metrics.watchDeltas.Add(1)
			if d.Resync {
				s.metrics.watchResyncs.Add(1)
			}
			writeWatchDelta(w, st, d)
			flush.Flush()
		}
	}
}

// writeWatchSnapshot renders the stream's opening line: the complete
// materialized result plus the catalog tick it reflects. Field spellings
// match the /v1/query body, so one decoder serves both. The line's last
// bytes leave with its newline; the caller flushes.
func writeWatchSnapshot(w io.Writer, st *panda.Stmt, res *panda.Result, tick uint64) {
	b := newWireBuf(w, nil)
	defer b.close()
	b.buf = fmt.Appendf(b.buf, `{"snapshot":true,"tick":%d,"mode":%q,"ok":%t`, tick, res.Mode.String(), res.OK)
	if res.Width != nil {
		b.buf = fmt.Appendf(b.buf, `,"width":%q`, res.Width.RatString())
	}
	if res.Signature != "" {
		b.buf = fmt.Appendf(b.buf, `,"signature":%q`, res.Signature)
	}
	if res.Rel != nil {
		cols, _ := json.Marshal(res.Columns)
		b.buf = fmt.Appendf(b.buf, `,"columns":%s,"rows":`, cols)
		streamRows(b, res.Iter(), 0)
	}
	if res.Mode == panda.ModeRule {
		writeTables(b, st, res.Tables, 0)
	}
	b.buf = append(b.buf, "}\n"...)
}

// writeWatchDelta renders one maintenance delta as a stream line.
func writeWatchDelta(w io.Writer, st *panda.Stmt, d panda.WatchDelta) {
	b := newWireBuf(w, nil)
	defer b.close()
	b.buf = fmt.Appendf(b.buf, `{"tick":%d,"ok":%t`, d.Tick, d.OK)
	if d.Resync {
		b.buf = append(b.buf, `,"resync":true`...)
	}
	if d.Tables != nil {
		writeTables(b, st, d.Tables, 0)
	} else if d.Rows != nil || d.Resync {
		// A resync line always spells out rows (possibly empty): the
		// consumer replaces its state with exactly what is printed.
		b.buf = append(b.buf, `,"rows":`...)
		streamRows(b, rowSeq(d.Rows), 0)
	}
	b.buf = append(b.buf, "}\n"...)
}

// ---- NDJSON /v1/query ----

// wantsNDJSON reports whether the client asked for the NDJSON response
// framing (Accept: application/x-ndjson).
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// writeResultNDJSON streams a conjunctive result in the NDJSON framing: a
// header line with the scalar fields and columns, one line per row (a bare
// JSON array), and a trailer line with the row count, truncation flag and
// stats. Line-oriented output lets `curl -N … | jq` and log shippers
// consume large results without buffering the whole body; lines leave a
// wireBuf at a time, like writeResult's rows. The fields res fixes come from
// the same resultWire writeResult uses, encoded once per memoised Result.
func (s *Server) writeResultNDJSON(w http.ResponseWriter, e *stmtEntry, res *panda.Result, maxRows int) (rows int, truncated bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	b := newWireBuf(w, http.NewResponseController(w))
	defer b.close()
	rw := e.wireOf(res)
	b.buf = append(append(append(b.buf, rw.open...), rw.signature...), "}\n"...)
	for row := range res.Iter() {
		if maxRows > 0 && rows >= maxRows {
			truncated = true
			break
		}
		b.buf = append(appendRow(b.buf, row), '\n')
		rows++
		if b.spill(); b.err != nil {
			return rows, truncated
		}
	}
	b.buf = fmt.Appendf(b.buf, `{"rows":%d`, rows)
	if truncated {
		b.buf = append(b.buf, `,"truncated":true`...)
	}
	b.buf = append(append(append(b.buf, rw.stats...), rw.timings...), "}\n"...)
	return rows, truncated
}
