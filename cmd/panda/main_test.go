package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"panda"
)

// writeWorkdir lays out a query file + CSV data directory in a temp dir and
// returns the directory; the CSVs exercise comments and blank lines.
func writeWorkdir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("R.csv", "1,2\n2,3\n# comment\n\n")
	write("S.csv", "2,5\n")
	write("notes.csv", "not,a,relation\n") // unreferenced files are ignored
	write("full.q", "Q(A,B,C) :- R(A,B), S(B,C).\n")
	write("proj.q", "Q(A,C) :- R(A,B), S(B,C).\n")
	write("bool.q", "Q() :- R(A,B), S(B,C).\n")
	write("rule.q", "T1(A,B) v T2(B,C) :- R(A,B), S(B,C).\n")
	write("bounds.q", "Q(A,B,C) :- R(A,B), S(B,C).\n|R| <= 4\n|S| <= 4\n")
	return dir
}

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf strings.Builder
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

// TestEvalGolden pins the CLI's stdout for every head shape the eval
// command routes — full, proper projection (the shape that used to fall
// through to the disjunctive branch and print T_ tables), Boolean, and a
// genuine disjunctive rule.
func TestEvalGolden(t *testing.T) {
	dir := writeWorkdir(t)
	q := func(name string) string { return filepath.Join(dir, name) }

	if got, want := runCLI(t, "eval", q("full.q"), dir),
		"# |Q| = 1  (bound 2^1.000, max intermediate 1)\n1,2,5\n"; got != want {
		t.Errorf("eval full:\n got %q\nwant %q", got, want)
	}
	// The routing fix: a proper projection prints projected answer rows.
	// Cost-based ModeAuto picks fhtw here: the query is acyclic, so the
	// fhtw and subw certificates tie and the cheaper plan wins.
	if got, want := runCLI(t, "eval", q("proj.q"), dir),
		"# |Q| = 1  (fhtw 2^1.000, max intermediate 0)\n1,5\n"; got != want {
		t.Errorf("eval projection:\n got %q\nwant %q", got, want)
	}
	if got, want := runCLI(t, "eval", q("bool.q"), dir),
		"true  (max intermediate 0)\n"; got != want {
		t.Errorf("eval boolean:\n got %q\nwant %q", got, want)
	}
	if got, want := runCLI(t, "eval", q("rule.q"), dir),
		"# T_AB: 0 tuples\n# T_BC: 1 tuples\n"; got != want {
		t.Errorf("eval rule:\n got %q\nwant %q", got, want)
	}
}

func TestBoundsGolden(t *testing.T) {
	dir := writeWorkdir(t)
	want := `size bounds (log₂ units; |Q| ≤ 2^value):
  vertex bound      : 6.0000
  integral cover ρ  : 4.0000
  AGM bound ρ*      : 4.0000
  polymatroid bound : 4.0000
`
	if got := runCLI(t, "bounds", filepath.Join(dir, "bounds.q")); got != want {
		t.Errorf("bounds:\n got %q\nwant %q", got, want)
	}
}

// signatureLine hides the content-dependent digest so the plan golden only
// pins the report structure and the exact plan facts.
var signatureLine = regexp.MustCompile(`signature : [0-9a-f]+ \(\d+-byte canonical key\)`)

func TestPlanGolden(t *testing.T) {
	dir := writeWorkdir(t)
	got := signatureLine.ReplaceAllString(
		runCLI(t, "plan", filepath.Join(dir, "bounds.q")), "signature : <sig>")
	want := `mode      : full
signature : <sig>
width     : polymatroid bound = 4.0000 (log₂ units)
cover ABC: ρ* = 2  [R=1 S=1]
rule 0: T_ABC
  bound: 2^4.0000
  proof sequence (3 steps):
    1·d[AB,B]
    1·s[AB,BC]
    1·c[BC,ABC]
planner   : hits=0 misses=1 evictions=0 lp-solves=1 lp-saved=0 plans-built=1
`
	if got != want {
		t.Errorf("plan:\n got %q\nwant %q", got, want)
	}
}

// TestPlanSignatureMatchesSessionShape: the digest `panda plan` prints is the
// one a session reports for the same shape (Result.Signature, and with it
// /v1/plan, /v1/shapes and /metrics), so a CLI plan can be matched to a
// server shape: bounds.q declares |R|, |S| ≤ 4, which is what a session
// derives from four-row relations.
func TestPlanSignatureMatchesSessionShape(t *testing.T) {
	dir := writeWorkdir(t)
	m := regexp.MustCompile(`signature : ([0-9a-f]+) `).FindStringSubmatch(runCLI(t, "plan", filepath.Join(dir, "bounds.q")))
	db := panda.Open()
	defer db.Close()
	for _, name := range []string{"R", "S"} {
		if _, err := db.LoadCSV(name, strings.NewReader("1,2\n2,3\n3,4\n4,5\n")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("Q(A,B,C) :- R(A,B), S(B,C).")
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || res.Signature == "" || m[1] != res.Signature {
		t.Fatalf("panda plan printed signature %v, the session reports %q", m, res.Signature)
	}
}

// TestEvalFlags: -j fans the independent rule executions out without
// changing the printed result, and -timeout aborts evaluation through
// context cancellation with the context's error.
func TestEvalFlags(t *testing.T) {
	dir := writeWorkdir(t)
	q := filepath.Join(dir, "bool.q")
	seq := runCLI(t, "eval", q, dir)
	par := runCLI(t, "eval", "-j", "0", q, dir)
	if par != seq {
		t.Errorf("parallel eval diverges:\n got %q\nwant %q", par, seq)
	}
	var buf strings.Builder
	if err := run([]string{"eval", "-timeout", "1ns", q, dir}, &buf); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: got %v, want context.DeadlineExceeded", err)
	}
}

// TestEvalErrors ports the historical loadInstance error coverage onto the
// DB ingest path: missing CSV, wrong arity, non-integer field.
func TestEvalErrors(t *testing.T) {
	dir := t.TempDir()
	qfile := filepath.Join(dir, "q.q")
	if err := os.WriteFile(qfile, []byte("Q(A,B) :- R(A,B).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"eval", qfile, dir}, &buf); err == nil {
		t.Fatal("missing CSV accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "R.csv"), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"eval", qfile, dir}, &buf); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "R.csv"), []byte("1,x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"eval", qfile, dir}, &buf); err == nil {
		t.Fatal("non-integer accepted")
	}
}
