//go:build linux

package transport

import (
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSHMBusyPeerNoStalls pins the ring wait's yield window: a peer that
// computes for about 50µs before each reply is answered while the waiter
// still yields, so the round trips do not reach the timed sleep, whose
// wake an idle runtime rounds up to about a millisecond. A few stalls are
// allowed for a descheduled thread on a loaded host: with two busy loops
// on a 2-vCPU VM it measured 3–12 stalls. Under the race detector it
// measured 1–16 quiet and 10–39 loaded, so it is skipped there.
func TestSHMBusyPeerNoStalls(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test skipped in -short and under the race detector")
	}
	const (
		rounds = 400
		busy   = 50 * time.Microsecond
	)
	dc, ac := shmPair(t, filepath.Join(t.TempDir(), "ep"))
	defer dc.Close()
	defer ac.Close()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			f, err := ac.Recv()
			if err != nil {
				errc <- err
				return
			}
			for t0 := time.Now(); time.Since(t0) < busy; {
			}
			err = ac.Send(f)
			ReleaseFrame(f)
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	msg := make([]byte, 8)
	before := cShmStalls.Value()
	for i := 0; i < rounds; i++ {
		if err := dc.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		f, err := dc.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		ReleaseFrame(f)
	}
	stalls := cShmStalls.Value() - before
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d ring stalls over %d round trips", stalls, rounds)
	if stalls > rounds/20 {
		t.Errorf("%d ring stalls over %d round trips with a %v busy peer, want at most %d", stalls, rounds, busy, rounds/20)
	}
}

// TestSHMIdleReaderCost bounds what one reader blocked on an idle
// connection costs the process. Its wait yields for one yieldWindow, then
// sleeps at spinSleepMax, which an idle runtime rounds up to about 1ms: a
// thousand wakes a second, measured at 2.9–3.6% of a core on a 2-vCPU
// VM. The bound is about three times that, for a loaded host or the race
// detector.
func TestSHMIdleReaderCost(t *testing.T) {
	if testing.Short() {
		t.Skip("one-second CPU measurement skipped in -short")
	}
	const (
		idle  = time.Second
		bound = 0.10 // of one core
	)
	dc, ac := shmPair(t, filepath.Join(t.TempDir(), "ep"))
	defer dc.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ac.Recv()
		done <- err
	}()
	// Let the reader pass its yield window and settle into the sleep ramp.
	time.Sleep(20 * time.Millisecond)
	cpu0, t0 := processCPU(t), time.Now()
	time.Sleep(idle)
	used := float64(processCPU(t)-cpu0) / float64(time.Since(t0))
	ac.Close()
	<-done
	t.Logf("idle reader: %.2f%% of a core", 100*used)
	if used > bound {
		t.Errorf("idle reader used %.2f%% of a core, want at most %.0f%%", 100*used, 100*bound)
	}
}

// processCPU is the user plus system time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
