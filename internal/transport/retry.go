package transport

import (
	"errors"
	"time"
)

// Backoff is the one retry schedule: DialRetry and the ORB supervisor's
// redials, half-open probes and call retries all draw from it.
type Backoff struct{ Base, Cap time.Duration }

// Delay is attempt n's wait, min(Base·2ⁿ, Cap) (n < 0 counts as 0). It
// saturates without shift overflow, so callers may count without bound.
func (b Backoff) Delay(n int) time.Duration {
	n = max(n, 0)
	if b.Base > b.Cap>>n {
		return b.Cap
	}
	return b.Base << n
}

// DialRetry dials addr on tr, retrying while nothing is listening there
// yet — the startup race inherent to any rendezvous: the peer's Listen and
// our Dial are concurrent. Only ErrNoListener is retried (the TCP backend
// maps ECONNREFUSED to it, the shm backend its dropped-flock probe);
// every other failure is returned immediately. Retries wait
// Backoff{200µs, 10ms}; after timeout the last dial error is returned.
func DialRetry(tr Transport, addr string, timeout time.Duration) (Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := Backoff{200 * time.Microsecond, 10 * time.Millisecond}
	for attempt := 0; ; attempt++ {
		c, err := tr.Dial(addr)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, ErrNoListener) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(backoff.Delay(attempt))
	}
}
