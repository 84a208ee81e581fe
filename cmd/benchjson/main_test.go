package main

import (
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: panda
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPreparedVsUnprepared/triangle/unprepared-8         	     226	   5294821 ns/op
BenchmarkPreparedVsUnprepared/triangle/prepare-hit-8        	  542169	      2208 ns/op
BenchmarkExample18PANDA/N=64-8                              	     100	    123456 ns/op	       512 max-intermediate	       512 N^1.5
PASS
ok  	panda	12.3s
goos: linux
goarch: amd64
pkg: panda/internal/plan
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPlanDecodeVsPrepare/cold-prepare-8                 	     188	   6351651 ns/op	  131072 B/op	    2048 allocs/op
BenchmarkPlanDecodeVsPrepare/decode-8                       	    8964	    133688 ns/op
PASS
ok  	panda/internal/plan	3.1s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaID {
		t.Fatalf("schema %q", rep.Schema)
	}
	// The core counts the CI scaling assert keys on.
	if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.NumCPU != runtime.NumCPU() {
		t.Fatalf("header gomaxprocs=%d num_cpu=%d", rep.GOMAXPROCS, rep.NumCPU)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}

	first := rep.Benchmarks[0]
	if first.Pkg != "panda" ||
		first.Name != "BenchmarkPreparedVsUnprepared/triangle/unprepared" ||
		first.Procs != 8 || first.Iterations != 226 || first.NsPerOp != 5294821 {
		t.Fatalf("first benchmark parsed wrong: %+v", first)
	}

	// Custom b.ReportMetric units survive into metrics.
	panda18 := rep.Benchmarks[2]
	if panda18.Name != "BenchmarkExample18PANDA/N=64" {
		t.Fatalf("name %q (the -procs strip must not eat N=64)", panda18.Name)
	}
	if panda18.Metrics["max-intermediate"] != 512 || panda18.Metrics["N^1.5"] != 512 {
		t.Fatalf("custom metrics lost: %+v", panda18.Metrics)
	}

	// The pkg header between packages retags later lines, and B/op and
	// allocs/op land in metrics.
	cold := rep.Benchmarks[3]
	if cold.Pkg != "panda/internal/plan" || cold.Metrics["B/op"] != 131072 || cold.Metrics["allocs/op"] != 2048 {
		t.Fatalf("cold-prepare parsed wrong: %+v", cold)
	}

	// The property the bench CI job asserts: decode ≪ cold prepare.
	decode := rep.Benchmarks[4]
	if decode.Name != "BenchmarkPlanDecodeVsPrepare/decode" || decode.NsPerOp >= cold.NsPerOp {
		t.Fatalf("decode parsed wrong: %+v", decode)
	}
}

func TestParseSkipsNonBenchLines(t *testing.T) {
	rep, err := parse(strings.NewReader("PASS\nok  \tpanda\t1.0s\n--- BENCH: x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from noise", len(rep.Benchmarks))
	}
}

func TestParseRejectsMalformedBenchLine(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-8 100 nonsense ns/op extra\n")); err == nil {
		t.Fatal("malformed line parsed without error")
	}
}
