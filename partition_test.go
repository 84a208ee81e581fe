package panda

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// Tests for data-parallel partitioned execution: the determinism contract
// is layered. For a FIXED partition count K the run is fully deterministic
// — rows, OK, width, mode, stats and the operator trace are byte-identical
// at any parallelism (the merge is in rule-index-then-partition-index
// order). ACROSS partition counts the output contract holds — rows, OK,
// width and mode are identical — while intermediate stats may legitimately
// differ (a partitioned proof does different, smaller work). The -race runs
// of this suite double as the data-race check on the shared memoized
// relation structures the partition workers hit concurrently.

func partitionFixtures() []struct {
	name string
	src  string
	load func(t *testing.T, db *DB)
	opts []Option
} {
	return []struct {
		name string
		src  string
		load func(t *testing.T, db *DB)
		opts []Option
	}{
		{
			name: "triangle full",
			src:  triangleSrc,
			load: func(t *testing.T, db *DB) {
				q := TriangleQuery()
				loadCatalog(t, db, &q.Schema, RandomInstance(8, &q.Schema, 400, 24))
			},
		},
		{
			name: "triangle fhtw",
			src:  triangleSrc,
			load: func(t *testing.T, db *DB) {
				q := TriangleQuery()
				loadCatalog(t, db, &q.Schema, RandomInstance(9, &q.Schema, 400, 24))
			},
			opts: []Option{WithMode(ModeFhtw)},
		},
		{
			name: "4-cycle full",
			src:  fourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := FourCycleQuery()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 24))
			},
		},
		{
			name: "4-cycle fhtw",
			src:  fourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := FourCycleQuery()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 24))
			},
			opts: []Option{WithMode(ModeFhtw)},
		},
		{
			name: "4-cycle subw",
			src:  fourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := FourCycleQuery()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 24))
			},
			opts: []Option{WithMode(ModeSubw)},
		},
		{
			name: "boolean 4-cycle subw",
			src:  booleanFourCycleSrc,
			load: func(t *testing.T, db *DB) {
				q := BooleanFourCycle()
				loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 32))
			},
		},
	}
}

// TestPartitionedGoldenParity: for every fixture × partition count, the
// partitioned run must reproduce the sequential output (rows, OK, width,
// mode), and at a fixed partition count the P=1 and P=NumCPU runs must be
// byte-identical end to end, stats and operator trace included.
func TestPartitionedGoldenParity(t *testing.T) {
	cores := runtime.NumCPU()
	if cores < 4 {
		cores = 4
	}
	for _, fx := range partitionFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			db := Open(WithTrace(true))
			defer db.Close()
			fx.load(t, db)
			seq, err := db.Query(fx.src, fx.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 5} {
				p1, err := db.QueryContext(context.Background(), fx.src,
					append([]Option{WithPartitions(k)}, fx.opts...)...)
				if err != nil {
					t.Fatalf("K=%d P=1: %v", k, err)
				}
				pn, err := db.QueryContext(context.Background(), fx.src,
					append([]Option{WithPartitions(k), WithParallelism(cores)}, fx.opts...)...)
				if err != nil {
					t.Fatalf("K=%d P=%d: %v", k, cores, err)
				}
				// Across partition counts: the output contract.
				if !reflect.DeepEqual(seq.Rows(), p1.Rows()) {
					t.Fatalf("K=%d rows diverge from sequential: %d vs %d",
						k, len(p1.Rows()), len(seq.Rows()))
				}
				if seq.OK != p1.OK {
					t.Fatalf("K=%d OK diverges: %v vs %v", k, p1.OK, seq.OK)
				}
				if seq.Width.Cmp(p1.Width) != 0 || seq.Mode != p1.Mode {
					t.Fatalf("K=%d certificate diverges: %v/%v vs %v/%v",
						k, p1.Width, p1.Mode, seq.Width, seq.Mode)
				}
				// At fixed K: byte identity between parallelism levels.
				if !reflect.DeepEqual(p1.Rows(), pn.Rows()) || p1.OK != pn.OK {
					t.Fatalf("K=%d: P=1 and P=%d outputs diverge", k, cores)
				}
				if p1.Stats.MaxIntermediate != pn.Stats.MaxIntermediate {
					t.Fatalf("K=%d: max intermediate diverges: %d vs %d",
						k, p1.Stats.MaxIntermediate, pn.Stats.MaxIntermediate)
				}
				if !reflect.DeepEqual(p1.Stats.Trace, pn.Stats.Trace) {
					t.Fatalf("K=%d: operator traces diverge — the partition merge is not deterministic", k)
				}
			}
		})
	}
}

// TestPartitionedRuleParity: disjunctive rules execute per-partition too.
// At a fixed K the model tables are byte-identical across parallelism; the
// merged per-partition tables form a model of the full instance (the union
// of models is a model), verified with IsModel. Across K the models may
// legitimately differ — only model-hood and the bound are stable.
func TestPartitionedRuleParity(t *testing.T) {
	cores := runtime.NumCPU()
	if cores < 4 {
		cores = 4
	}
	p := PathRule()
	ins := RandomInstance(3, &p.Schema, 60, 10)
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &p.Schema, ins)
	seq, err := db.Query(pathRuleSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5} {
		p1, err := db.Query(pathRuleSrc, WithPartitions(k))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		pn, err := db.Query(pathRuleSrc, WithPartitions(k), WithParallelism(cores))
		if err != nil {
			t.Fatalf("K=%d P=%d: %v", k, cores, err)
		}
		if p1.Bound.Cmp(seq.Bound) != 0 {
			t.Fatalf("K=%d bound diverges: %v vs %v", k, p1.Bound, seq.Bound)
		}
		if len(p1.Tables) != len(pn.Tables) {
			t.Fatalf("K=%d: table counts diverge across parallelism", k)
		}
		for b, tb := range p1.Tables {
			if !tb.Equal(pn.Tables[b]) {
				t.Fatalf("K=%d: table %v diverges across parallelism", k, b)
			}
		}
		ok, err := ins.IsModel(p, p1.Tables)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("K=%d: merged per-partition tables are not a model", k)
		}
	}
}

// TestPartitionedCancellation: cancelling mid-run aborts the per-partition
// worker pool and surfaces ctx.Err(). The fixture is the full 4-cycle worst
// case split across partitions, every rule × partition a task of the pool.
func TestPartitionedCancellation(t *testing.T) {
	q := FourCycleQuery()
	db := Open()
	defer db.Close()
	loadCatalog(t, db, &q.Schema, CycleWorstCase(q, 64))
	testCancellationAtEveryCheck(t, db, fourCycleSrc, WithParallelism(4), WithPartitions(8), WithMode(ModeFhtw))
}
