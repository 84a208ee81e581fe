package main

import (
	"io"
	"testing"
)

// TestExperiments runs every experiment of the registry and fails on any
// value that disagrees with the paper. The slow entry (ex74, whose C6
// member solves 174 exact LPs) is left to the command and the benchmark;
// internal/widths' TestExample74CycleGap asserts its C6 row.
func TestExperiments(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			if e.slow {
				t.Skipf("%s is slow; run `go run ./cmd/experiments %s`", e.label, e.name)
			}
			if err := e.exec(io.Discard); err != nil {
				t.Fatalf("%s:\n%v", e.label, err)
			}
		})
	}
}

// BenchmarkExperiments times each experiment of the registry, checks
// included; the slow entry is skipped under -short.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments {
		b.Run(e.name, func(b *testing.B) {
			if e.slow && testing.Short() {
				b.Skipf("%s is slow; skipped under -short", e.label)
			}
			for i := 0; i < b.N; i++ {
				if err := e.exec(io.Discard); err != nil {
					b.Fatalf("%s:\n%v", e.label, err)
				}
			}
		})
	}
}
