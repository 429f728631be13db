package transport

// DialRetry tests: the rendezvous startup race (dial before the peer's
// Listen lands) must be absorbed by retrying ErrNoListener, while real
// failures and expiry return promptly.

import (
	"errors"
	"testing"
	"time"
)

func TestDialRetryAbsorbsStartupRace(t *testing.T) {
	tr := &InProc{}
	go func() {
		time.Sleep(20 * time.Millisecond)
		l, err := tr.Listen("retry-late")
		if err != nil {
			return
		}
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
		l.Close()
	}()
	c, err := DialRetry(tr, "retry-late", 5*time.Second)
	if err != nil {
		t.Fatalf("DialRetry across the startup race: %v", err)
	}
	c.Close()
}

func TestDialRetryTimesOutTyped(t *testing.T) {
	start := time.Now()
	_, err := DialRetry(&InProc{}, "retry-nobody", 50*time.Millisecond)
	if !errors.Is(err, ErrNoListener) {
		t.Fatalf("err = %v, want ErrNoListener", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("gave up after %s, before the timeout", elapsed)
	}
}

func TestDialRetryNonRetryableFailsFast(t *testing.T) {
	// A malformed TCP address is not a startup race; it must not be
	// retried for the whole timeout.
	start := time.Now()
	_, err := DialRetry(TCP{}, "not a host port", 10*time.Second)
	if err == nil {
		t.Fatal("malformed address dialed successfully")
	}
	if errors.Is(err, ErrNoListener) {
		t.Fatalf("malformed address mapped to ErrNoListener: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("non-retryable dial took %s", elapsed)
	}
}

func TestBackoffDelay(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		b    Backoff
		n    int
		want time.Duration
	}{
		{Backoff{5 * ms, time.Second}, -1, 5 * ms},
		{Backoff{5 * ms, time.Second}, 0, 5 * ms},
		{Backoff{5 * ms, time.Second}, 1, 10 * ms},
		{Backoff{5 * ms, time.Second}, 7, 640 * ms},
		{Backoff{5 * ms, time.Second}, 8, time.Second},
		{Backoff{5 * ms, time.Second}, 63, time.Second},
		{Backoff{5 * ms, time.Second}, 64, time.Second},
		{Backoff{5 * ms, time.Second}, 1 << 20, time.Second},
		{Backoff{200 * time.Microsecond, 10 * ms}, 5, 6400 * time.Microsecond},
		{Backoff{200 * time.Microsecond, 10 * ms}, 6, 10 * ms},
		{Backoff{time.Second, time.Second}, 0, time.Second},
		{Backoff{2 * time.Second, time.Second}, 0, time.Second},
		{Backoff{2 * time.Second, time.Second}, 1 << 20, time.Second},
		{Backoff{0, time.Second}, 0, 0},
		{Backoff{0, time.Second}, 1 << 20, 0},
		{Backoff{1, 1<<63 - 1}, 62, 1 << 62},
		{Backoff{1, 1<<63 - 1}, 63, 1<<63 - 1},
	} {
		if got := tc.b.Delay(tc.n); got != tc.want {
			t.Errorf("%+v.Delay(%d) = %v, want %v", tc.b, tc.n, got, tc.want)
		}
	}
	// Monotone in n and never above Cap, through the saturation point.
	for _, b := range []Backoff{{ms, 20 * ms}, {3 * time.Microsecond, time.Hour}, {0, ms}, {time.Second, ms}} {
		prev := time.Duration(0)
		for n := 0; n <= 1<<20; n += 1 + n/4 {
			d := b.Delay(n)
			if d < prev || d > b.Cap {
				t.Fatalf("%+v.Delay(%d) = %v after %v", b, n, d, prev)
			}
			prev = d
		}
	}
}
