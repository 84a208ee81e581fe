package panda

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the context-first execution surface: cancellation/deadline
// plumbing through QueryContext, and golden parity between parallel and
// sequential execution (the -race runs of these tests double as the data
//-race check on the worker-pool fan-out).

// TestQueryContextPreCancelled: an already-cancelled context aborts before
// any planning or execution work.
func TestQueryContextPreCancelled(t *testing.T) {
	q := FourCycleQuery()
	ins := CycleWorstCase(q, 8)
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, fourCycleSrc); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: got %v, want context.Canceled", err)
	}
	if st := db.PlannerStats(); st.Misses != 0 || st.LPSolves != 0 {
		t.Fatalf("cancelled query still planned: %v", st)
	}
	// EvalRuleContext honors the context too.
	p := PathRule()
	rins := RandomInstance(5, &p.Schema, 32, 8)
	if _, err := db.EvalRuleContext(ctx, p, rins, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled rule: got %v, want context.Canceled", err)
	}
}

// TestQueryContextMidExecutionCancel: cancelling while the engine is
// interpreting the proof sequence returns context.Canceled promptly — the
// run aborts at the next proof step instead of materializing the m² join.
func TestQueryContextMidExecutionCancel(t *testing.T) {
	q := FourCycleQuery()
	ins := CycleWorstCase(q, 400) // m² = 160000-tuple output if left to run
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)
	stmt, err := db.Prepare(fourCycleSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = stmt.QueryContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-execution cancel: got %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation was not prompt: took %v", elapsed)
	}
}

// TestQueryContextDeadline: an expired deadline surfaces as
// context.DeadlineExceeded through the same path.
func TestQueryContextDeadline(t *testing.T) {
	q := FourCycleQuery()
	ins := CycleWorstCase(q, 400)
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, ins)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, fourCycleSrc); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: got %v, want context.DeadlineExceeded", err)
	}
}

// TestParallelGoldenParity: WithParallelism(NumCPU) must produce results
// byte-identical to sequential execution — rows, OK, width, and the merged
// stats (operator trace order included) — on every golden fixture.
func TestParallelGoldenParity(t *testing.T) {
	cores := runtime.NumCPU()
	if cores < 2 {
		cores = 2
	}
	fixtures := []struct {
		name string
		src  string
		load func(t *testing.T, db *DB)
		opts []Option
	}{
		{
			name: "4-cycle full",
			src:  fourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := FourCycleQuery()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 12))
			},
		},
		{
			name: "4-cycle full fhtw", // multi-bag fan-out with output rows
			src:  fourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := FourCycleQuery()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 12))
			},
			opts: []Option{WithMode(ModeFhtw)},
		},
		{
			name: "boolean 4-cycle", // subw: per-transversal fan-out
			src:  booleanFourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := BooleanFourCycle()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 16))
			},
		},
		{
			name: "triangle",
			src:  triangleSrc,
			load: func(t *testing.T, db *DB) {
				q := TriangleQuery()
				loadCatalog(t, db, &q.Schema, RandomInstance(8, &q.Schema, 50, 12))
			},
		},
		{
			name: "disjunctive path rule",
			src:  pathRuleSrc,
			load: func(t *testing.T, db *DB) {
				p := PathRule()
				loadCatalog(t, db, &p.Schema, RandomInstance(3, &p.Schema, 40, 8))
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			db := Open(WithTrace(true))
			defer db.Close()
			fx.load(t, db)
			seq, err := db.Query(fx.src, fx.opts...)
			if err != nil {
				t.Fatal(err)
			}
			par, err := db.QueryContext(context.Background(), fx.src,
				append([]Option{WithParallelism(cores)}, fx.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Rows(), par.Rows()) {
				t.Fatalf("rows diverge: %d sequential vs %d parallel", len(seq.Rows()), len(par.Rows()))
			}
			if seq.OK != par.OK {
				t.Fatalf("OK diverges: %v vs %v", seq.OK, par.OK)
			}
			if seq.Width.Cmp(par.Width) != 0 || seq.Mode != par.Mode {
				t.Fatalf("certificate diverges: %v/%v vs %v/%v", seq.Width, seq.Mode, par.Width, par.Mode)
			}
			if seq.Stats.MaxIntermediate != par.Stats.MaxIntermediate {
				t.Fatalf("max intermediate diverges: %d vs %d",
					seq.Stats.MaxIntermediate, par.Stats.MaxIntermediate)
			}
			if !reflect.DeepEqual(seq.Stats.Trace, par.Stats.Trace) {
				t.Fatal("operator traces diverge: parallel merge is not deterministic")
			}
		})
	}
}

// TestParallelCancellation: a cancelled context aborts the worker pool and
// surfaces ctx.Err() from a parallel run as well. The fixture is the full
// 4-cycle worst case under ModeFhtw, whose two bag rules run on the pool.
func TestParallelCancellation(t *testing.T) {
	q := FourCycleQuery()
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 64))
	testCancellationAtEveryCheck(t, db, fourCycleSrc, WithParallelism(4), WithMode(ModeFhtw))
}

// cancelAtLook is a context that its own k-th look cancels: the k-th call of
// Err or Done, from any goroutine, cancels it before it answers (k = 0
// never does). Runs look at their context only at their checks, so the
// cancel lands at a run's k-th check by construction, with no timer to race.
type cancelAtLook struct {
	context.Context
	cancel context.CancelFunc
	k      int64
	looks  atomic.Int64
}

func newCancelAtLook(k int64) *cancelAtLook {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAtLook{Context: ctx, cancel: cancel, k: k}
}

func (c *cancelAtLook) look() {
	if c.looks.Add(1) == c.k {
		c.cancel()
	}
}

func (c *cancelAtLook) Err() error            { c.look(); return c.Context.Err() }
func (c *cancelAtLook) Done() <-chan struct{} { c.look(); return c.Context.Done() }

// testCancellationAtEveryCheck counts the checks one run of src makes of its
// context (a first run has cached the plan), then cancels a run at each of
// them in turn. Each must surface context.Canceled, and must stop within
// three checks of the cancel instead of running on through its later stages:
// a cancel at a parallel stage's start is one no task of that stage sees
// unless the pool checks for it.
func testCancellationAtEveryCheck(t *testing.T, db *DB, src string, opts ...Option) {
	t.Helper()
	if _, err := db.Query(src, opts...); err != nil {
		t.Fatal(err)
	}
	count := newCancelAtLook(0)
	defer count.cancel()
	if _, err := db.QueryContext(count, src, opts...); err != nil {
		t.Fatal(err)
	}
	n := count.looks.Load()
	if n < 8 {
		t.Fatalf("a run checks its context %d times; the sweep needs its stages", n)
	}
	for k := int64(1); k <= n; k++ {
		ctx := newCancelAtLook(k)
		_, err := db.QueryContext(ctx, src, opts...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d of %d: got %v, want context.Canceled", k, n, err)
		}
		if after := ctx.looks.Load() - k; after > 3 {
			t.Fatalf("cancelled at check %d of %d, the run went on for %d more checks", k, n, after)
		}
	}
}

// TestLoadCSVContext: ingest honors its context.
func TestLoadCSVContext(t *testing.T) {
	db := Open()
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.LoadCSVContext(ctx, "R", strings.NewReader("1,2\n")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ingest: got %v, want context.Canceled", err)
	}
	if _, err := db.Query("Q(A,B) :- R(A,B)."); !errors.Is(err, ErrUnknownRelation) {
		t.Fatal("cancelled ingest still created the relation")
	}
}
