package main

import (
	"math"
	"time"
)

// A shared host's speed drifts: on a shared 2-vCPU KVM host the simulator
// ran ±20–30% faster or slower between runs a few minutes apart, in wall
// and CPU time alike. The reference kernel below measures that drift. It
// exercises what the simulator's hot paths exercise — a goroutine handoff
// over unbuffered channels, like a proc switch, and random reads and
// writes in a table larger than a core's cache, like set scans and
// directory probes — but it shares no code with the simulator, so no
// change to the simulator can move it.
//
// Host-time metrics are reported at the reference speed: each timed
// interval is divided by the slowdown the kernel measured just before it.
// A slowdown of 1 is the kernel's nominal cost below; 1.2 means the host
// was running the kernel 20% slower.
const (
	refHandoffs   = 20_000
	refTableWords = 2 << 20 // 16 MB
	refAccesses   = 1_000_000

	// Nominal kernel costs, as measured inside this benchmark on a quiet
	// 2-vCPU KVM host (Xeon, go1.24.0, GOMAXPROCS 1). They only set the
	// scale of the reported figures; comparisons on one host do not
	// depend on them.
	refHandoffNominalNS = 440
	refAccessNominalNS  = 11
)

// refKernel holds the kernel's table, allocated once so page faults do
// not land in a sample.
type refKernel struct {
	table []uint64
	sink  uint64
	// handoffs and accesses are every sample's costs, for the report.
	handoffs, accesses []float64
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint64, refTableWords)}
	for i := range k.table {
		k.table[i] = uint64(i)
	}
	return k
}

// speed runs the kernel once and returns the host's slowdown against the
// nominal costs: the geometric mean of the handoff and access ratios.
func (k *refKernel) speed() float64 {
	handoff, access := k.handoffNS(), k.accessNS()
	k.handoffs = append(k.handoffs, handoff)
	k.accesses = append(k.accesses, access)
	return math.Sqrt(handoff / refHandoffNominalNS * access / refAccessNominalNS)
}

// handoffNS is the host time of one round trip between two goroutines
// over unbuffered channels.
func (k *refKernel) handoffNS() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	t0 := time.Now()
	for i := 0; i < refHandoffs; i++ {
		ping <- i
		k.sink += uint64(<-pong)
	}
	d := time.Since(t0)
	close(ping)
	for range pong {
	}
	return float64(d.Nanoseconds()) / refHandoffs
}

// accessNS is the host time of one read and one write at pseudo-random
// table indices.
func (k *refKernel) accessNS() float64 {
	const mask = refTableWords - 1
	x := uint64(88172645463325252) + k.sink
	var s uint64
	t0 := time.Now()
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += k.table[x&mask]
		k.table[(x>>24)&mask] = s
	}
	d := time.Since(t0)
	k.sink += s
	return float64(d.Nanoseconds()) / refAccesses
}
