package main

import (
	"sort"
	"testing"
	"time"

	"panda"
)

// The reference kernel must not touch the Go heap: a kernel that allocated
// would move alloc_kb_per_op and the garbage collector it is there to be
// independent of.
func TestReferenceKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(20, refKernel); n != 0 {
		t.Errorf("refKernel allocates %v objects per call", n)
	}
	before := refVals
	refKernel()
	if before == refVals {
		t.Error("refKernel updated nothing")
	}
}

func TestSlowdownsPerSecond(t *testing.T) {
	// Twenty calls a second for six seconds: nominal, except twice as slow
	// from 2.5 s to 4.5 s.
	var refs []refSample
	for at := time.Duration(0); at < 6*time.Second; at += 50 * time.Millisecond {
		us := refNominalUs
		if at >= 2500*time.Millisecond && at < 4500*time.Millisecond {
			us *= 2
		}
		refs = append(refs, refSample{at, us})
	}
	got := slowdowns(refs, 6*time.Second)
	want := []float64{1, 1, 1, 2, 1, 1, 1} // second k looks at [k-0.5, k+1.5): second 3 is all slow, 2 and 4 half
	if len(got) != len(want) {
		t.Fatalf("%d factors for a 6 s phase, want %d", len(got), len(want))
	}
	for k := range want {
		if k == 2 || k == 4 {
			if got[k] < 1 || got[k] > 2 {
				t.Errorf("second %d: factor %v, want between 1 and 2", k, got[k])
			}
		} else if got[k] != want[k] {
			t.Errorf("second %d: factor %v, want %v", k, got[k], want[k])
		}
	}

	// Too few calls around a second: the overall median; none at all: 1.
	sparse := []refSample{{0, 3 * refNominalUs}, {5 * time.Second, 3 * refNominalUs}}
	for k, f := range slowdowns(sparse, 5*time.Second) {
		if f != 3 {
			t.Errorf("sparse, second %d: factor %v, want the overall 3", k, f)
		}
	}
	for k, f := range slowdowns(nil, 2*time.Second) {
		if f != 1 {
			t.Errorf("no samples, second %d: factor %v, want 1", k, f)
		}
	}
}

// Pooling two rounds keeps the latency logs sorted and the sums summed.
func TestPhasePool(t *testing.T) {
	a := phase{queryMs: []float64{1, 3}, rawQueryMs: []float64{2, 6}, ops: 2, clients: 2, wall: time.Second, busy: 8 * time.Millisecond, busyRef: 4 * time.Millisecond, slow: []float64{2}, liveB: 10}
	b := phase{queryMs: []float64{2}, rawQueryMs: []float64{2}, insertMs: []float64{5}, ops: 2, clients: 2, wall: time.Second, busy: 7 * time.Millisecond, busyRef: 7 * time.Millisecond, slow: []float64{1}, liveB: 20}
	a.pool(b)
	if !sort.Float64sAreSorted(a.queryMs) || len(a.queryMs) != 3 || len(a.insertMs) != 1 || a.ops != 4 {
		t.Errorf("pooled phase %+v", a)
	}
	if a.wall != 2*time.Second || a.busyRef != 11*time.Millisecond || a.liveB != 20 {
		t.Errorf("pooled sums: wall %v busyRef %v liveB %d", a.wall, a.busyRef, a.liveB)
	}
	// 4 ops by 2 clients in 11 ms of busy time at reference speed.
	if got, want := a.opsPerSec(), 4*2/0.011; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("opsPerSec = %v, want %v", got, want)
	}
}

// The serve oracle's memo survives a round that sent a prefix (or an
// extension) of the inserts it knows, and forgets on any other.
func TestServeMemoAdmit(t *testing.T) {
	ins := func(vals ...int64) []insertRec {
		var out []insertRec
		for _, v := range vals {
			out = append(out, insertRec{"R", []panda.Value{panda.Value(v), panda.Value(v + 1)}})
		}
		return out
	}
	m := newServeMemo()
	m.admit(ins(1, 2, 3))
	m.sums[0][2] = 42
	m.admit(ins(1, 2))
	m.admit(ins(1, 2, 3, 4))
	if m.sums[0][2] != 42 || len(m.inserts) != 4 {
		t.Errorf("memo forgot across rounds sending the same inserts: %v, %d inserts", m.sums[0], len(m.inserts))
	}
	m.admit(ins(1, 9))
	if len(m.sums[0]) != 0 || len(m.inserts) != 2 {
		t.Errorf("memo kept answers for other inserts: %v", m.sums[0])
	}
}
