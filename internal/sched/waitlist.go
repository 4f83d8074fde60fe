package sched

import "repro/internal/exec"

// WaitList is a FIFO wait queue for threads that idle until work arrives —
// the scheduler-side half of the engine's dead-time fast-forward. Threads
// parked on a WaitList wake only when a producer hands them work, so a
// quiet system has no pending worker events at all and the engine can
// jump straight over the dead time.
//
// Wait releases the caller's core for the duration (idle, not busy,
// cycles accrue — see exec.Thread.Block), and WakeOne hands work to the
// longest-waiting thread first. All methods must be called in engine
// context; the zero WaitList is ready to use.
type WaitList struct {
	q []*exec.Thread
}

// Len returns the number of waiting threads.
func (w *WaitList) Len() int { return len(w.q) }

// Wait parks t at the back of the list until WakeOne or WakeAll releases
// it. On return t holds its core again.
func (w *WaitList) Wait(t *exec.Thread) {
	w.q = append(w.q, t)
	t.Block()
}

// WakeOne unparks the longest-waiting thread. It reports whether a thread
// was woken.
func (w *WaitList) WakeOne() bool {
	n := len(w.q)
	if n == 0 {
		return false
	}
	t := w.q[0]
	// Shift in place so the backing array is reused; enqueueing in steady
	// state never re-allocates.
	copy(w.q, w.q[1:])
	w.q[n-1] = nil
	w.q = w.q[:n-1]
	t.Unblock()
	return true
}

// WakeAll unparks every waiting thread in FIFO order and returns how many
// were woken.
func (w *WaitList) WakeAll() int {
	n := len(w.q)
	for i, t := range w.q {
		w.q[i] = nil
		t.Unblock()
	}
	w.q = w.q[:0]
	return n
}
