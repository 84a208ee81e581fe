package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// StatusWriter captures the response code a handler sets.
type StatusWriter struct {
	http.ResponseWriter
	Code int
}

// NewStatusWriter wraps w; the code reads 200 until the handler says otherwise.
func NewStatusWriter(w http.ResponseWriter) *StatusWriter {
	return &StatusWriter{ResponseWriter: w, Code: http.StatusOK}
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach Flusher on the underlying
// writer through the wrapper.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ReadFrom hands an io.Copy into the wrapper to the wrapped writer's own
// ReadFrom, which the embedded interface hides: net/http's copies through a
// pooled buffer, where io.Copy would allocate 32 KiB per call (the router
// copies every proxied answer this way).
func (w *StatusWriter) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(w.ResponseWriter, src)
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with the {"error","code"} body every failure carries:
// err's text for people, code as the stable token clients dispatch on.
func WriteError(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, errorBody{Code: code, Error: err.Error()})
}

// errorBody is WriteError's body; its fields encode in the order a map's
// sorted keys would, without the map.
type errorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

type requestKey struct {
	endpoint string
	code     int
}

// Requests accounts for finished HTTP requests: a counter family by endpoint
// and status code, plus each endpoint's latency, which a binary exposes
// either as a histogram family or as a running total of seconds.
type Requests struct {
	mu      sync.Mutex
	n       map[requestKey]uint64
	latency map[string]*Histogram
}

// NewRequests declares the counter family on r.
func NewRequests(r *Registry, name, help string) *Requests {
	q := &Requests{n: map[requestKey]uint64{}, latency: map[string]*Histogram{}}
	r.Collect(func(w *Writer) {
		keys, vals := snapshot(&q.mu, q.n, same[uint64], func(a, b requestKey) bool {
			return a.endpoint < b.endpoint || a.endpoint == b.endpoint && a.code < b.code
		})
		w.Header(name, help, "counter")
		for _, k := range keys {
			w.Sample(name, Labels("endpoint", k.endpoint, "code", strconv.Itoa(k.code)), vals[k])
		}
	})
	return q
}

// latencies declares a family over the per-endpoint latency histograms.
func (q *Requests) latencies(r *Registry, name, help, typ string, sample func(w *Writer, labels string, h *Histogram)) {
	r.Collect(func(w *Writer) {
		eps, hs := snapshot(&q.mu, q.latency, func(h *Histogram) *Histogram { c := *h; return &c },
			func(a, b string) bool { return a < b })
		w.Header(name, help, typ)
		for _, ep := range eps {
			sample(w, Labels("endpoint", ep), hs[ep])
		}
	})
}

// LatencyHistogram declares the per-endpoint latency histogram family on r.
func (q *Requests) LatencyHistogram(r *Registry, name, help string) {
	q.latencies(r, name, help, "histogram", func(w *Writer, labels string, h *Histogram) { w.Histogram(name, labels, h) })
}

// LatencyTotal declares the per-endpoint cumulative handling time, in
// seconds, as a counter family on r.
func (q *Requests) LatencyTotal(r *Registry, name, help string) {
	q.latencies(r, name, help, "counter", func(w *Writer, labels string, h *Histogram) { w.Sample(name, labels, h.sum) })
}

// Observe records one finished request.
func (q *Requests) Observe(endpoint string, code int, d time.Duration) {
	sec := d.Seconds()
	q.mu.Lock()
	q.n[requestKey{endpoint, code}]++
	h, ok := q.latency[endpoint]
	if !ok {
		h = &Histogram{}
		q.latency[endpoint] = h
	}
	h.Observe(sec)
	q.mu.Unlock()
}

// Wrap is the accounting middleware: it runs h behind a StatusWriter and
// records the request once h returns.
func (q *Requests) Wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := NewStatusWriter(w)
		h(sw, r)
		q.Observe(endpoint, sw.Code, time.Since(start))
	}
}
