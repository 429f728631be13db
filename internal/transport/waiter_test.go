package transport

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestWaiterSleepCapsAtMax pins the waiter's phases: it yields until
// yieldWindow has passed and does not sleep sooner, the doubling sleep
// then saturates at spinSleepMax, and reset re-arms it. The window must
// stay below the ~1ms an idle runtime rounds a short sleep up to, and the
// cap at or below 200µs, which bounds the wake of a wait that reaches
// the sleep phase while other goroutines keep the runtime awake
// (DESIGN.md §10).
func TestWaiterSleepCapsAtMax(t *testing.T) {
	if yieldWindow >= time.Millisecond {
		t.Fatalf("yieldWindow = %v, must stay below 1ms", yieldWindow)
	}
	if spinSleepMax > 200*time.Microsecond {
		t.Fatalf("spinSleepMax = %v, must not exceed 200µs", spinSleepMax)
	}
	var w waiter
	for w.sleep == 0 {
		if waited := w.pause(); w.sleep != 0 && waited < yieldWindow {
			t.Fatalf("slept after %v, inside the %v yield window", waited, yieldWindow)
		}
	}
	for i := 0; i < 16; i++ {
		w.pause()
		if w.sleep > spinSleepMax {
			t.Fatalf("pause %d: sleep grew past cap: %v", i, w.sleep)
		}
	}
	if w.sleep != spinSleepMax {
		t.Errorf("saturated sleep = %v, want %v", w.sleep, spinSleepMax)
	}
	w.reset()
	if w != (waiter{}) {
		t.Error("reset did not re-arm the waiter")
	}
}

// TestWaiterIdleWakeLatency bounds the wake of a wait that has been idle
// for a full second and sunk to its deepest sleep: within 20ms. In an
// idle process that wake measures about 1ms, not spinSleepMax, because
// the runtime rounds a sub-millisecond sleep up to its millisecond
// netpoll timeout; the bound catches a sleep ramp that sinks deeper than
// that floor, with room for a loaded host.
func TestWaiterIdleWakeLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short")
	}
	const trials = 5
	var worst time.Duration
	for trial := 0; trial < trials; trial++ {
		var ready atomic.Bool
		var latency atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			var w waiter
			for !ready.Load() {
				w.pause()
			}
			latency.Store(int64(time.Now().UnixNano()))
		}()
		// Let the waiter sink to its deepest sleep.
		time.Sleep(time.Second)
		setAt := time.Now()
		ready.Store(true)
		<-done
		wake := time.Duration(latency.Load() - setAt.UnixNano())
		if wake > worst {
			worst = wake
		}
	}
	if worst > 20*time.Millisecond {
		t.Errorf("worst idle wake latency %v, want at most 20ms", worst)
	}
	t.Logf("worst idle wake latency over %d trials: %v", trials, worst)
}
