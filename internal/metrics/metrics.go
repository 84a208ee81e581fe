// Package metrics is the serving plumbing pandad and pandarouter share: a
// registry of labelled counters and gauges and a fixed-bucket histogram
// rendered in the Prometheus text format, and the HTTP helpers
// (status-capturing response writer, request accounting middleware, JSON
// bodies) both handlers are built from. Each binary declares its series against a Registry in the
// order the exposition lists them.
//
// Every family guards its state with its own mutex and a scrape only holds
// it long enough to copy that state out: formatting and the client's
// io.Writer are touched after release, so a slow scraper never stalls a
// concurrent Add or Observe.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry renders its families in declaration order.
type Registry struct {
	collectors []func(*Writer)
}

// Collect appends a family the caller renders itself — values read live
// from somewhere else at scrape time (planner counters, replica health) or
// kept in a structure of the caller's own (the server's shape table).
func (r *Registry) Collect(f func(*Writer)) { r.collectors = append(r.collectors, f) }

// Write renders the whole exposition to w.
func (r *Registry) Write(w io.Writer) {
	tw := &Writer{w}
	for _, c := range r.collectors {
		c(tw)
	}
}

// ServeHTTP is the /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Write(w)
}

// Writer emits the Prometheus text format, one call per line or family.
type Writer struct{ w io.Writer }

// Header writes a family's HELP and TYPE lines.
func (w *Writer) Header(name, help, typ string) {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line; labels is empty or a Labels list.
func (w *Writer) Sample(name, labels string, v any) {
	if labels == "" {
		fmt.Fprintf(w.w, "%s %v\n", name, v)
		return
	}
	fmt.Fprintf(w.w, "%s{%s} %v\n", name, labels, v)
}

// Counter writes a complete unlabelled counter family.
func (w *Writer) Counter(name, help string, v uint64) {
	w.Header(name, help, "counter")
	w.Sample(name, "", v)
}

// Gauge writes a complete unlabelled gauge family.
func (w *Writer) Gauge(name, help string, v int) {
	w.Header(name, help, "gauge")
	w.Sample(name, "", v)
}

// Histogram writes one histogram's series: cumulative buckets ending in
// +Inf (== _count), then _sum and _count.
func (w *Writer) Histogram(name, labels string, h *Histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range BucketBounds {
		cum += h.counts[i]
		fmt.Fprintf(w.w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w.w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count)
	w.Sample(name+"_sum", labels, h.sum)
	w.Sample(name+"_count", labels, h.count)
}

// Labels formats name/value pairs as the `name="value",…` list Sample and
// Histogram take.
func Labels(pairs ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(pairs[i+1]))
	}
	return b.String()
}

// labelKey holds a series' label values; families declare at most two.
type labelKey [2]string

func (k labelKey) less(o labelKey) bool { return k[0] < o[0] || k[0] == o[0] && k[1] < o[1] }

func (k labelKey) labels(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return Labels(names[0], k[0])
	}
	return Labels(names[0], k[0], names[1], k[1])
}

// snapshot copies a family's series out under its lock and returns the
// keys in exposition order.
func snapshot[K comparable, T any](mu *sync.Mutex, m map[K]T, copyOf func(T) T, less func(a, b K) bool) (keys []K, vals map[K]T) {
	mu.Lock()
	keys = make([]K, 0, len(m))
	vals = make(map[K]T, len(m))
	for k, v := range m {
		keys = append(keys, k)
		vals[k] = copyOf(v)
	}
	mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys, vals
}

func same[T any](v T) T { return v }

// Vec is a counter or gauge family with up to two labels. Series appear on
// first touch; an unlabelled family always shows its one series.
type Vec[V uint64 | int64 | float64] struct {
	mu   sync.Mutex
	vals map[labelKey]V
}

func newVec[V uint64 | int64 | float64](r *Registry, name, help, typ string, labels []string) *Vec[V] {
	v := &Vec[V]{vals: map[labelKey]V{}}
	if len(labels) == 0 {
		v.vals[labelKey{}] = 0
	}
	r.Collect(func(w *Writer) {
		keys, vals := snapshot(&v.mu, v.vals, same[V], labelKey.less)
		w.Header(name, help, typ)
		for _, k := range keys {
			w.Sample(name, k.labels(labels), vals[k])
		}
	})
	return v
}

// Counter declares a counter family on r.
func Counter[V uint64 | int64 | float64](r *Registry, name, help string, labels ...string) *Vec[V] {
	return newVec[V](r, name, help, "counter", labels)
}

// Gauge declares a gauge family on r.
func Gauge[V uint64 | int64 | float64](r *Registry, name, help string, labels ...string) *Vec[V] {
	return newVec[V](r, name, help, "gauge", labels)
}

// Add moves the series with the given label values by delta.
func (v *Vec[V]) Add(delta V, labelValues ...string) {
	var k labelKey
	copy(k[:], labelValues)
	v.mu.Lock()
	v.vals[k] += delta
	v.mu.Unlock()
}

// BucketBounds are the fixed exponential upper bounds (seconds) shared by
// every latency histogram; the implicit +Inf bucket follows the last.
var BucketBounds = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. It is a plain value with
// no lock of its own: whatever structure embeds it serializes access, and
// renders a copy through Writer.Histogram.
type Histogram struct {
	counts [len(BucketBounds) + 1]uint64 // per-bucket (non-cumulative); last is +Inf
	count  uint64
	sum    float64
}

// Observe records one latency.
func (h *Histogram) Observe(seconds float64) {
	h.counts[sort.SearchFloat64s(BucketBounds[:], seconds)]++
	h.count++
	h.sum += seconds
}

// Merge folds src into h.
func (h *Histogram) Merge(src *Histogram) {
	for i, c := range src.counts {
		h.counts[i] += c
	}
	h.count += src.count
	h.sum += src.sum
}

// Count is the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum is the total of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank; the +Inf bucket reports the
// largest finite bound. Zero observations report 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(BucketBounds) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = BucketBounds[i-1]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + frac*(BucketBounds[i]-lo)
		}
	}
	return BucketBounds[len(BucketBounds)-1]
}
