// Command benchjson converts `go test -bench` text output into the
// committed BENCH_PR.json schema, the perf-trajectory artifact CI uploads
// on every PR:
//
//	{
//	  "schema": "panda-bench/v1",
//	  "go": "go1.24.0", "goos": "linux", "goarch": "amd64", "cpu": "…",
//	  "gomaxprocs": 8, "num_cpu": 8,
//	  "benchmarks": [
//	    {"pkg": "panda/internal/plan",
//	     "name": "BenchmarkPlanDecodeVsPrepare/decode",
//	     "procs": 8, "iterations": 3847, "ns_per_op": 133688.0,
//	     "metrics": {"B/op": 65536, "allocs/op": 112}}, …]
//	}
//
// gomaxprocs and num_cpu are this process's — benchjson runs on the machine
// that ran the benchmarks — so a consumer can tell whether a P=NumCPU arm
// had cores to scale onto. Every `<value> <unit>` pair after the iteration
// count lands in metrics (ns/op additionally in the ns_per_op field), so
// custom b.ReportMetric units like max-intermediate survive. Input order is
// preserved; jq can diff two artifacts benchmark-by-benchmark.
//
// Usage: go test -bench=… ./… | benchjson [-o BENCH_PR.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one benchmark result line.
type Bench struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the committed BENCH_PR.json shape.
type Report struct {
	Schema     string  `json:"schema"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Benchmarks []Bench `json:"benchmarks"`
}

// SchemaID names the artifact schema; bump on incompatible changes.
const SchemaID = "panda-bench/v1"

var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)
	// procsSuffix is the trailing -GOMAXPROCS tag go test appends to the
	// benchmark name (sub-benchmark names may themselves contain dashes, so
	// only a final all-digits segment counts).
	procsSuffix = regexp.MustCompile(`-(\d+)$`)
)

// parse reads `go test -bench` output and collects the benchmark lines,
// tracking the pkg/cpu header lines interleaved between packages.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{
		Schema:     SchemaID,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
		}
		b := Bench{Pkg: pkg, Name: m[1], Iterations: iters, Metrics: map[string]float64{}}
		if sm := procsSuffix.FindStringSubmatch(b.Name); sm != nil {
			if p, err := strconv.Atoi(sm[1]); err == nil {
				b.Procs = p
				b.Name = strings.TrimSuffix(b.Name, sm[0])
			}
		}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchjson: unpaired value/unit fields in %q", line)
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q: %v", fields[i], line, err)
			}
			unit := fields[i+1]
			b.Metrics[unit] = v
			if unit == "ns/op" {
				b.NsPerOp = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "write the JSON report here instead of stdout")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}
