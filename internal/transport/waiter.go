package transport

import (
	"runtime"
	"time"
)

// waiter is the shared-memory transport's futex-free progressive waiter.
// Ring cursors live in a file-backed mmap shared with another process, so
// there is no channel, futex, or condvar to block on; a waiter instead
// escalates through three phases, re-checking its condition between
// pauses:
//
//  1. spin: return immediately and let the caller re-poll the cursor (an
//     atomic load). Burns CPU but catches a peer that is mid-write,
//     keeping same-host latency in the nanoseconds. Skipped entirely when
//     GOMAXPROCS is 1 (with a single P, spinning only steals the
//     timeslice an in-process peer goroutine needs to make the progress
//     being waited for) and when the machine has a single CPU (the peer
//     — thread or process — can only run on the core the spinner is
//     occupying, so every spin cycle delays the very store being polled).
//  2. yield: runtime.Gosched, donating the P to runnable goroutines (the
//     in-process peer, or anyone else while a cross-process peer runs on
//     another CPU), until yieldWindow has passed since the phase began.
//     The window is wall time, not a count of yields, because a pause
//     lasts as long as its caller's check plus the scheduler pass: a ring
//     wait's check is one atomic load, Accept's is a ReadDir.
//  3. sleep: timed sleeps asking for spinSleepMin doubling up to
//     spinSleepMax. What a sleep costs is set by the runtime, not by the
//     request: in an otherwise idle process Go parks in the netpoller,
//     whose timeout is in whole milliseconds, so every sleep below 1ms
//     lasts about 1ms (4µs measured 0.6ms, 50–200µs 1.1ms on a 2-vCPU
//     VM). A wait that reaches this phase therefore wakes up to ~1ms
//     after its condition turns true, and an idle connection polls about
//     a thousand times a second, ~3% of a core. The yield window exists
//     so that waits shorter than it never pay that floor (DESIGN.md §10).
type waiter struct {
	spins int
	sleep time.Duration
	since time.Time // when the yield phase began
}

const (
	spinCount = 128
	// yieldWindow bounds the yield phase. It sits below the ~1ms that a
	// sub-millisecond sleep really lasts, so a peer that answers within it
	// is seen within a scheduler pass instead of a millisecond, and it is
	// long enough to cover the compute between messages of a
	// small-message SPMD step (halo exchange, scalar allreduce). A wait
	// that outlasts it has burned at most one window of CPU before
	// sleeping. Measured on a 2-vCPU VM: 100µs gave back the
	// bulk-allreduce gain 200µs has, and 500µs ran four shm rank
	// processes 37% slower, their yielding holding CPUs their peers
	// needed.
	yieldWindow  = 200 * time.Microsecond
	spinSleepMin = 4 * time.Microsecond
	// spinSleepMax caps the requested sleep. In an idle process the
	// netpoller rounds every request up to ~1ms anyway; the cap matters
	// when other goroutines keep the runtime awake, where a sleep lasts
	// about what it asks for.
	spinSleepMax = 200 * time.Microsecond
)

// spinWaitOK is resolved once: whether phase-1 spinning can ever help.
// GOMAXPROCS changes after init are rare enough (tests, mostly) that a
// stale true only costs some spin cycles.
var spinWaitOK = runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1

// pause blocks "a little more than last time". Callers loop:
// check-condition, pause, re-check. It returns how long the wait has
// lasted past its spin phase, as of this pause's clock read (0 while
// spinning).
func (w *waiter) pause() time.Duration {
	w.spins++
	if spinWaitOK && w.spins <= spinCount {
		return 0
	}
	now := time.Now()
	if w.since.IsZero() {
		w.since = now
	}
	waited := now.Sub(w.since)
	if waited < yieldWindow {
		runtime.Gosched()
		return waited
	}
	if w.sleep == 0 {
		w.sleep = spinSleepMin
		cShmStalls.Inc()
	}
	time.Sleep(w.sleep)
	w.sleep = min(2*w.sleep, spinSleepMax)
	return waited
}

// reset re-arms the waiter after progress, so the next stall starts back
// at the spin phase.
func (w *waiter) reset() {
	*w = waiter{}
}
