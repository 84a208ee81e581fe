package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"panda"
)

// workload is one set of inputs with the operation mix that runs over them.
// Building one is its set-up: data from the seed, catalog load, fleet start,
// cold planning of its shapes and a fixed warm-up of the mix.
type workload interface {
	// clients is the number of closed-loop callers of the timed phase: each
	// sends its next operation only when the previous one has answered.
	clients() int
	// cycle is the length of one repetition of the operation mix. A phase
	// ends only on a cycle boundary, so every run — however long — executes
	// the mix in the same proportions.
	cycle() int
	// op performs client c's i-th operation and checks its output against
	// the first occurrence of the same operation. tr is nil when tracing is
	// off.
	op(c, i int, tr *tracer) outcome
	// afterOp runs after each operation, outside the timed region: the
	// place for a traced run to sample counters without charging the
	// operation for it.
	afterOp(tr *tracer)
	// verify runs the full oracle over the kept first occurrences.
	verify() verdict
	// counters reads the layer counters the per-workload metrics are made
	// of; traced selects the planner the replayed chain of a library
	// workload plans through.
	counters(traced bool) (counters, error)
	close()
}

// verdict is the oracle's finding: how many distinct outputs it compared in
// full, how many checks failed, and the first few failures.
type verdict struct {
	checked int
	wrong   int
	errs    []error
}

func (v *verdict) fail(err error) {
	v.wrong++
	if len(v.errs) < 8 {
		v.errs = append(v.errs, err)
	}
}

func (v *verdict) add(o verdict) {
	v.checked += o.checked
	v.wrong += o.wrong
	v.errs = append(v.errs, o.errs...)
	if len(v.errs) > 8 {
		v.errs = v.errs[:8]
	}
}

type outcome struct {
	insert bool // an insert, not a query
	failed bool // errored, answered non-2xx, or disagreed with the first occurrence
}

// counters are the program's own exported counts, read from outside:
// PlannerStats of the session that plans (the planning tier's on a fleet),
// and the /metrics text of the replicas and the router.
type counters struct {
	planner       panda.PlannerStats
	execSeconds   float64 // Σ panda_query_execution_seconds_sum over the replicas
	stmtHits      float64
	stmtMisses    float64
	shapesEnsured float64
	pushEntries   float64
	retries       float64
	failovers     float64
	routed        map[string]float64 // replica → requests routed to it
}

// limit ends a phase after a wall-clock budget or after a fixed number of
// mix cycles per client (rounds that must all do the same work, the traced
// run and the smoke test, whose counts must repeat exactly).
type limit struct {
	wall   time.Duration
	cycles int
}

// phase is what one timed phase — or several, pooled — measured. Latencies
// and busy time are kept twice: as measured, and at reference speed, each
// operation's duration divided by the slowdown of the second it ended in
// (see ref.go). A phase that did not sample the reference kernel has the
// two equal.
type phase struct {
	queryMs    []float64 // at reference speed, ascending
	insertMs   []float64 // at reference speed, ascending
	rawQueryMs []float64 // as measured, ascending
	slow       []float64 // the slowdown factor of every second of the phase
	ops        int
	failed     int
	clients    int
	wall       time.Duration
	busy       time.Duration // Σ operation durations over all clients, as measured
	busyRef    time.Duration // the same at reference speed
	allocB     uint64        // TotalAlloc growth over the phase
	liveB      uint64        // HeapAlloc after a forced GC at the end
}

// opsPerSec is operations per second of the closed loop at reference speed:
// every client is always inside an operation, so the loop completes
// clients/mean-duration operations a second.
func (p phase) opsPerSec() float64 {
	return float64(p.ops) * float64(p.clients) / p.busyRef.Seconds()
}

// rawOpsPerSec is the same as measured.
func (p phase) rawOpsPerSec() float64 {
	return float64(p.ops) * float64(p.clients) / p.busy.Seconds()
}

// slowdown is the phase's median slowdown factor.
func (p phase) slowdown() float64 {
	if len(p.slow) == 0 {
		return 1
	}
	return median(p.slow)
}

// pool adds a later round's measurements to p. The live heap is the latest
// round's: earlier rounds' workloads are closed and collected by then.
func (p *phase) pool(q phase) {
	p.queryMs = mergeSorted(p.queryMs, q.queryMs)
	p.insertMs = mergeSorted(p.insertMs, q.insertMs)
	p.rawQueryMs = mergeSorted(p.rawQueryMs, q.rawQueryMs)
	p.slow = append(p.slow, q.slow...)
	p.ops += q.ops
	p.failed += q.failed
	p.clients = q.clients
	p.wall += q.wall
	p.busy += q.busy
	p.busyRef += q.busyRef
	p.allocB += q.allocB
	p.liveB = q.liveB
}

func mergeSorted(a, b []float64) []float64 {
	out := append(append(make([]float64, 0, len(a)+len(b)), a...), b...)
	sort.Float64s(out)
	return out
}

// latencyCap preallocates each client's log so that its growth does not show
// up as allocation or live heap of the system under test.
const latencyCap = 1 << 15

// sample is one completed operation of a client's log.
type sample struct {
	end    time.Duration // since the phase began
	dur    time.Duration
	insert bool
}

// runPhase runs the workload's clients until the limit. With ref set,
// client 0 also times the reference kernel between cycles, and the phase's
// figures at reference speed differ from the measured ones.
func runPhase(w workload, lim limit, tr *tracer, ref bool) phase {
	type clientLog struct {
		ops    []sample
		failed int
	}
	logs := make([]clientLog, w.clients())
	for c := range logs {
		logs[c].ops = make([]sample, 0, latencyCap)
	}
	refs := make([]refSample, 0, latencyCap/8)
	cycle := w.cycle()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			lastRef := -refEvery
			for i := 0; ; i++ {
				if i%cycle == 0 {
					now := time.Since(start)
					if lim.cycles > 0 && i/cycle >= lim.cycles {
						return
					}
					if lim.cycles == 0 && now >= lim.wall {
						return
					}
					if ref && c == 0 && now-lastRef >= refEvery {
						t0 := time.Now()
						refKernel()
						refs = append(refs, refSample{now, float64(time.Since(t0).Nanoseconds()) / 1e3})
						lastRef = now
					}
				}
				if tr != nil {
					tr.beginOp(i)
				}
				t0 := time.Now()
				out := w.op(c, i, tr)
				t1 := time.Now()
				if tr != nil {
					tr.add(opSpan, unnested, t0, t1)
				}
				w.afterOp(tr)
				log.ops = append(log.ops, sample{t1.Sub(start), t1.Sub(t0), out.insert})
				if out.failed {
					log.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), clients: len(logs)}
	runtime.ReadMemStats(&after)
	p.allocB = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The clients' logs are still reachable here; they are the benchmark's,
	// not the system's.
	harness := uint64(len(logs)*latencyCap)*uint64(unsafe.Sizeof(sample{})) + uint64(cap(refs))*uint64(unsafe.Sizeof(refSample{}))
	p.liveB = after.HeapAlloc - min(after.HeapAlloc, harness)

	p.slow = slowdowns(refs, p.wall)
	for _, log := range logs {
		for _, s := range log.ops {
			ms := float64(s.dur.Nanoseconds()) / 1e6
			at := ms / p.slow[min(int(s.end/time.Second), len(p.slow)-1)]
			if s.insert {
				p.insertMs = append(p.insertMs, at)
			} else {
				p.queryMs = append(p.queryMs, at)
				p.rawQueryMs = append(p.rawQueryMs, ms)
			}
			p.busy += s.dur
			p.busyRef += time.Duration(at * 1e6)
		}
		p.failed += log.failed
	}
	p.ops = len(p.queryMs) + len(p.insertMs)
	sort.Float64s(p.queryMs)
	sort.Float64s(p.insertMs)
	sort.Float64s(p.rawQueryMs)
	return p
}
