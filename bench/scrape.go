package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
)

// samples is one scrape of a Prometheus text exposition: the full series
// name, labels included exactly as written, mapped to its value.
type samples map[string]float64

// parseMetrics reads the text format pandad and pandarouter write on
// /metrics. Comment lines (# HELP, # TYPE) and blank lines are skipped; a
// line that is neither is "series value" with the value after the last
// space (label values may contain spaces, the number cannot).
func parseMetrics(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in line %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family, whatever its labels.
func (s samples) sum(family string) float64 {
	var total float64
	for series, v := range s {
		name, _, _ := strings.Cut(series, "{")
		if name == family {
			total += v
		}
	}
	return total
}

// byLabel returns the named family's values keyed by one label's value.
func (s samples) byLabel(family, label string) map[string]float64 {
	out := map[string]float64{}
	for series, v := range s {
		name, labels, ok := strings.Cut(series, "{")
		if !ok || name != family {
			continue
		}
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			k, val, _ := strings.Cut(kv, "=")
			if k == label {
				out[strings.Trim(val, `"`)] += v
			}
		}
	}
	return out
}

// scrape reads a tier's /metrics by calling its handler directly: no
// socket, and no span in the traced run (the middleware sits in front of
// the listener, not in front of this call).
func scrape(h http.Handler) (samples, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", rec.Code)
	}
	return parseMetrics(rec.Body)
}
