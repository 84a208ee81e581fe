package main

import (
	"sort"
	"time"
)

// The reference kernel, and what it is for.
//
// The machines this benchmark runs on are a few cores of a shared host, and
// how fast such a core runs memory-touching code — hashing, probing, random
// access, which is what a query engine does — drifts by a tenth or two over
// minutes and jumps for seconds at a time, with the neighbours' load. The
// same binary on the same inputs then measures 165 ops/s in one run and 250
// in the next, and no statistic taken inside a run removes that: the whole
// run was slow. What removes it is measuring the machine alongside the
// program. A measured run therefore interleaves a fixed piece of work of the
// benchmark's own — the reference kernel — with the workload, a few dozen
// times a second, and reports every time figure at reference speed: divided
// by how much slower (or faster) than its nominal time the kernel ran in the
// seconds around the operation.
//
// The kernel is updates to an open-addressed hash table in static arrays:
// code of the kind the engine spends its time in (it tracks the workloads'
// slowdowns with a correlation above 0.9, one for one; a pure ALU loop does
// not slow down at all on these hosts, a streaming copy overreacts), that
// shares nothing with the repository (so no change to the program changes
// it), allocates nothing and lives outside the Go heap (so it neither sees
// nor moves the garbage collector, alloc_kb_per_op or live_heap_mb).

const (
	refSlotBits = 17 // 128 Ki slots: 1 MiB of keys, half a MiB of values
	refKeyCount = 1 << 16
	refUpdates  = 4000 // per call: about 0.2 ms

	// refNominalUs is the kernel's time on the reference machine (2-core
	// Xeon @ 2.1 GHz, go1.24) in its usual state. It only sets the scale:
	// reported times are "milliseconds on a machine that runs the kernel in
	// refNominalUs", on whatever machine they were taken.
	refNominalUs = 160.0

	// refEvery is the least time between two calls of the kernel; it runs
	// on client 0, between two cycles of its mix. At 0.2 ms a call that is
	// under a hundredth of the phase.
	refEvery = 25 * time.Millisecond
)

var (
	refKeys  [1 << refSlotBits]uint64
	refVals  [1 << refSlotBits]uint32
	refState = uint64(88172645463325252)
)

// refMix is the 64-bit finalizer of MurmurHash3, made odd so that no key is
// 0, the empty slot.
func refMix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k | 1
}

func refSlot(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> (64 - refSlotBits) }

func init() {
	for k := uint64(0); k < refKeyCount; k++ {
		key := refMix(k)
		h := refSlot(key)
		for refKeys[h] != 0 && refKeys[h] != key {
			h = (h + 1) & (1<<refSlotBits - 1)
		}
		refKeys[h] = key
	}
}

// refKernel is one call of the reference kernel: refUpdates read-modify-
// writes of pseudo-random present keys.
func refKernel() {
	x := refState
	for i := 0; i < refUpdates; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := refMix(x & (refKeyCount - 1))
		h := refSlot(key)
		for refKeys[h] != key {
			h = (h + 1) & (1<<refSlotBits - 1)
		}
		refVals[h] += uint32(i)
	}
	refState = x
}

// refSample is one timed call of the kernel, at a time since the phase began.
type refSample struct {
	at time.Duration
	us float64
}

// slowdowns turns a phase's kernel timings into one factor per second of the
// phase: the median of the calls from half a second before that second to
// half a second after it, over the nominal time. A second with fewer than
// three calls around it (or a phase that sampled nothing) takes the phase's
// overall median, or 1.
func slowdowns(refs []refSample, wall time.Duration) []float64 {
	out := make([]float64, int(wall/time.Second)+1)
	all := make([]float64, len(refs))
	for i, r := range refs {
		all[i] = r.us
	}
	overall := 1.0
	if len(all) > 0 {
		overall = median(all) / refNominalUs
	}
	for k := range out {
		lo := time.Duration(k)*time.Second - time.Second/2
		hi := lo + 2*time.Second
		i := sort.Search(len(refs), func(i int) bool { return refs[i].at >= lo })
		j := sort.Search(len(refs), func(j int) bool { return refs[j].at >= hi })
		if j-i < 3 {
			out[k] = overall
			continue
		}
		out[k] = median(all[i:j]) / refNominalUs
	}
	return out
}
