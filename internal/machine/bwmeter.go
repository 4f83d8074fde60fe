package machine

import "repro/internal/sim"

// bwMeter models a bandwidth-limited resource with windowed,
// deficit-carry accounting: time is divided into fixed windows, each
// admitting capacity transfers; transfers beyond capacity are delayed by
// their overflow position times the service interval, and a window that
// ends over capacity hands its unserved excess to the next accounted
// window as that window's starting demand, drained at capacity transfers
// per intervening idle window. Sustained overload therefore builds a
// backlog instead of resetting at every window boundary. The carry is
// computed in O(1) from the most recent accounted window (headWin) — no
// per-event allocation, no scan.
//
// Demand is counted per window, not with a cursor-style "next free slot":
// simulated threads batch memory accesses and issue them with
// future-dated timestamps, so a cursor would let one thread's in-flight
// batch delay every other thread's present-time accesses. Windowed
// counting charges queueing where the demand lands in time. The carry
// makes a window's starting demand depend on which earlier windows were
// already accounted when it was first touched; the simulation engine is
// single-threaded and discovers accesses in a deterministic order, so
// results remain exactly reproducible. The meters are reset by
// Machine.Reset/FlushAll so arena-reused cells start from the same blank
// state as a fresh machine.
type bwMeter struct {
	window   sim.Cycles // accounting window length
	service  sim.Cycles // cycles per transfer
	capacity uint32     // transfers admitted per window without delay
	headWin  uint64     // highest window index accounted so far
	headSet  bool       // whether headWin is valid
	ring     [64]bwSlot
}

type bwSlot struct {
	idx   uint64
	count uint32
}

// bwWindow is the accounting window length in cycles.
const bwWindow = 4096

func newBWMeter(service sim.Cycles) bwMeter {
	m := bwMeter{window: bwWindow, service: service}
	if service > 0 {
		m.capacity = uint32(bwWindow / service)
	}
	return m
}

// reserve records one transfer at time at and returns its queueing delay.
//
//o2:hotpath
func (b *bwMeter) reserve(at sim.Time) sim.Cycles {
	if b.capacity == 0 {
		return 0
	}
	w := uint64(at) / uint64(b.window)
	if b.headSet && w > b.headWin && w-b.headWin >= uint64(len(b.ring)) {
		// A future-dated access ≥64 windows past the head would alias a
		// ring slot that may still hold the live head window's demand —
		// materializing it would evict that count before its excess was
		// ever carried, silently dropping backlog, and would teleport
		// headWin so far forward that present-time accesses in the still-
		// live window restart from zero. Charge the far access against the
		// drained backlog without touching the ring or the head: at that
		// horizon the carry has almost always drained to zero anyway, and
		// the one approximation — same-far-window accesses not seeing each
		// other's demand — is harmless next to losing the live backlog.
		cnt := b.carryInto(w) + 1
		if cnt <= b.capacity {
			return 0
		}
		return sim.Cycles(cnt-b.capacity) * b.service
	}
	slot := &b.ring[w%uint64(len(b.ring))]
	if slot.idx != w {
		slot.idx = w
		slot.count = b.carryInto(w)
	}
	if !b.headSet || w > b.headWin {
		b.headWin = w
		b.headSet = true
	}
	slot.count++
	if slot.count <= b.capacity {
		return 0
	}
	return sim.Cycles(slot.count-b.capacity) * b.service
}

// carryInto computes the backlog window w inherits from earlier demand:
// the most recent accounted window's excess over capacity, minus capacity
// transfers drained per idle window in between. O(1): only the head
// window can carry forward (any other slot's window is older than head
// and its excess has, by induction, already been folded into head's
// starting count when head was first touched).
//
//o2:hotpath
func (b *bwMeter) carryInto(w uint64) uint32 {
	if !b.headSet || b.headWin >= w {
		// Nothing accounted yet, or w is at/behind the head (an
		// out-of-order timestamp into the past); backlog from even
		// earlier windows was already folded forward when they were live.
		return 0
	}
	src := b.headWin
	s := &b.ring[src%uint64(len(b.ring))]
	if s.idx != src || s.count <= b.capacity {
		return 0
	}
	excess := uint64(s.count - b.capacity)
	drained := (w - src - 1) * uint64(b.capacity)
	if drained >= excess {
		return 0
	}
	return uint32(excess - drained)
}

// reset clears all accounted demand and carry state.
func (b *bwMeter) reset() {
	for i := range b.ring {
		b.ring[i] = bwSlot{}
	}
	b.headWin = 0
	b.headSet = false
}
