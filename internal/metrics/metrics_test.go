package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExposition pins the package's rendering contract on a small registry:
// families in declaration order, HELP/TYPE once per family, unlabelled
// series present from the start, labelled series only once touched and
// sorted by label values (status codes numerically), label values quoted,
// integer values as integers and float values in %g.
func TestExposition(t *testing.T) {
	var r Registry
	reqs := NewRequests(&r, "app_requests_total", "Requests.")
	reqs.LatencyTotal(&r, "app_request_seconds_total", "Seconds.")
	hits := Counter[uint64](&r, "app_hits_total", "Hits.")
	byPeer := Counter[uint64](&r, "app_peer_total", "Per peer.", "shape", "peer")
	open := Gauge[int64](&r, "app_open", "Open streams.")
	r.Collect(func(w *Writer) { w.Gauge("app_live", "Read at scrape time.", 7) })

	reqs.Observe("query", 502, 250*time.Millisecond)
	reqs.Observe("query", 200, 250*time.Millisecond)
	reqs.Observe("query", 200, 250*time.Millisecond)
	reqs.Observe("info", 99, 0)
	byPeer.Add(2, "b", "x")
	byPeer.Add(1, `a "quoted"`, "y")
	byPeer.Add(1, "b", "w")
	open.Add(1)
	open.Add(1)
	open.Add(-1)
	_ = hits

	var got strings.Builder
	r.Write(&got)
	want := `# HELP app_requests_total Requests.
# TYPE app_requests_total counter
app_requests_total{endpoint="info",code="99"} 1
app_requests_total{endpoint="query",code="200"} 2
app_requests_total{endpoint="query",code="502"} 1
# HELP app_request_seconds_total Seconds.
# TYPE app_request_seconds_total counter
app_request_seconds_total{endpoint="info"} 0
app_request_seconds_total{endpoint="query"} 0.75
# HELP app_hits_total Hits.
# TYPE app_hits_total counter
app_hits_total 0
# HELP app_peer_total Per peer.
# TYPE app_peer_total counter
app_peer_total{shape="a \"quoted\"",peer="y"} 1
app_peer_total{shape="b",peer="w"} 1
app_peer_total{shape="b",peer="x"} 2
# HELP app_open Open streams.
# TYPE app_open gauge
app_open 1
# HELP app_live Read at scrape time.
# TYPE app_live gauge
app_live 7
`
	if got.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestHistogram: buckets are cumulative, +Inf equals the count, and the
// quantile estimate interpolates inside the bucket holding the rank.
func TestHistogram(t *testing.T) {
	var h, other Histogram
	for _, s := range []float64{0.0004, 0.0007, 0.0007, 0.003, 20} {
		h.Observe(s)
	}
	other.Observe(0.003)
	h.Merge(&other)
	if h.Count() != 6 || h.Sum() < 20.0078 || h.Sum() > 20.0079 {
		t.Fatalf("count %d sum %v", h.Count(), h.Sum())
	}
	var got strings.Builder
	(&Writer{&got}).Histogram("lat", Labels("endpoint", "q"), &h)
	for _, line := range []string{
		`lat_bucket{endpoint="q",le="0.0005"} 1`,
		`lat_bucket{endpoint="q",le="0.001"} 3`,
		`lat_bucket{endpoint="q",le="0.0025"} 3`,
		`lat_bucket{endpoint="q",le="0.005"} 5`,
		`lat_bucket{endpoint="q",le="10"} 5`,
		`lat_bucket{endpoint="q",le="+Inf"} 6`,
		`lat_count{endpoint="q"} 6`,
	} {
		if !strings.Contains(got.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got.String())
		}
	}
	// Rank 3 of 6 closes the (0.0005, 0.001] bucket; rank 6 is in +Inf.
	if q := h.Quantile(0.5); q != 0.001 {
		t.Errorf("p50 = %v, want 0.001", q)
	}
	if q := h.Quantile(0.99); q != 10 {
		t.Errorf("p99 = %v, want the largest finite bound", q)
	}
	if q := (&Histogram{}).Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %v", q)
	}
}

// TestWrapCountsWhatTheHandlerAnswered: the middleware sees the status the
// handler wrote (200 when it wrote none), and concurrent requests and
// scrapes do not race.
func TestWrapCountsWhatTheHandlerAnswered(t *testing.T) {
	var r Registry
	reqs := NewRequests(&r, "app_requests_total", "Requests.")
	reqs.LatencyHistogram(&r, "app_request_duration_seconds", "Latency.")
	teapot := reqs.Wrap("tea", func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusTeapot, "teapot", http.ErrNotSupported)
	})
	silent := reqs.Wrap("ok", func(http.ResponseWriter, *http.Request) {})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			teapot(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			if rec.Code != http.StatusTeapot || !strings.Contains(rec.Body.String(), `"code":"teapot"`) {
				t.Errorf("teapot answered %d %s", rec.Code, rec.Body.String())
			}
			silent(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
			r.Write(&strings.Builder{})
		}()
	}
	wg.Wait()
	var got strings.Builder
	r.Write(&got)
	for _, line := range []string{
		`app_requests_total{endpoint="ok",code="200"} 8`,
		`app_requests_total{endpoint="tea",code="418"} 8`,
		`app_request_duration_seconds_count{endpoint="tea"} 8`,
	} {
		if !strings.Contains(got.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got.String())
		}
	}
}

// readerFromWriter is a ResponseWriter whose ReadFrom records that it ran.
type readerFromWriter struct {
	*httptest.ResponseRecorder
	readFrom int
}

func (w *readerFromWriter) ReadFrom(src io.Reader) (int64, error) {
	w.readFrom++
	return io.Copy(w.ResponseRecorder, src)
}

// TestStatusWriterForwardsReadFrom: io.Copy into a StatusWriter reaches the
// wrapped writer's ReadFrom (net/http's pooled copy), and over a writer
// without one still copies every byte.
func TestStatusWriterForwardsReadFrom(t *testing.T) {
	const body = "a proxied answer"
	// Like a client's response body, src is no io.WriterTo, which io.Copy
	// would try first.
	src := func() io.Reader { return struct{ io.Reader }{strings.NewReader(body)} }
	inner := &readerFromWriter{ResponseRecorder: httptest.NewRecorder()}
	sw := NewStatusWriter(inner)
	if n, err := io.Copy(sw, src()); err != nil || n != int64(len(body)) {
		t.Fatalf("io.Copy = %d, %v", n, err)
	}
	if inner.readFrom != 1 {
		t.Fatalf("the wrapped ReadFrom ran %d times, want 1", inner.readFrom)
	}
	if got := inner.Body.String(); got != body {
		t.Fatalf("body %q, want %q", got, body)
	}

	rec := httptest.NewRecorder()
	if _, err := io.Copy(NewStatusWriter(rec), src()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != body {
		t.Fatalf("body over a plain writer %q, want %q", got, body)
	}
}
