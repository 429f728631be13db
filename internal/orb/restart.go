package orb

import (
	"fmt"
)

// Checkpoint replay wire detail: after a RestartPolicy relaunch, the
// supervisor replays the component's latest checkpoint as a single []byte
// argument to this reserved key/method on the fresh servant — before the
// connection is adopted, so no application call can race ahead of the
// restore. Servants opt in with RegisterRestore; the stream inside the
// bytes is the internal/ckpt wire format, opaque to the ORB.
const (
	RestoreKey    = "orb/restore"
	restoreMethod = "restore"
)

// RestartPolicy upgrades a Supervised client's Broken state from "shed
// until the peer resurfaces" to crash restart: relaunch a servant, redial,
// replay the latest checkpoint, resume. It is the supervision layer
// repairing the assembly rather than only reporting on it.
type RestartPolicy struct {
	// Relaunch starts (or locates) a replacement servant and returns the
	// one address to redial on the supervisor's transport. attempt counts
	// restarts within one outage, from 1.
	Relaunch func(attempt int) (addr string, err error)
	// Checkpoint returns the latest checkpoint to replay through
	// RestoreKey after the redial succeeds. Nil (or a nil return) skips
	// the replay: the servant restarts cold.
	Checkpoint func() []byte
	// MaxRestarts bounds Relaunch attempts per outage (default 3). When
	// exhausted the supervisor falls back to plain half-open probes of
	// the last address.
	MaxRestarts int
}

func (p *RestartPolicy) maxRestarts() int {
	if p == nil {
		return 0
	}
	if p.MaxRestarts <= 0 {
		return 3
	}
	return p.MaxRestarts
}

// RegisterRestore installs the restore handler on an adapter: fn receives
// the replayed checkpoint bytes (copied out of the pooled decode surface)
// and reconstructs the servant's state before any application call
// arrives. Register it on every adapter whose servants participate in a
// RestartPolicy.
func RegisterRestore(oa *ObjectAdapter, fn func(state []byte) error) {
	oa.Handle(RestoreKey, func(method string, args []any, reply *Encoder) error {
		if method != restoreMethod {
			return fmt.Errorf("orb: restore object has no method %q", method)
		}
		if len(args) != 1 {
			return fmt.Errorf("orb: restore takes 1 argument, got %d", len(args))
		}
		state, ok := args[0].([]byte)
		if !ok {
			return fmt.Errorf("orb: restore argument is %T, not []byte", args[0])
		}
		// The decode surface is pooled; the handler owns nothing after
		// return, so hand fn a copy.
		if err := fn(append([]byte(nil), state...)); err != nil {
			return err
		}
		if reply != nil {
			reply.Encode(true)
		}
		return nil
	})
}

// restartBudgetLeft reports whether a restart sequence should run for the
// current outage. Caller holds s.mu.
func (s *Supervised) restartBudgetLeft() bool {
	p := s.opts.Restart
	return p != nil && s.restarts < p.maxRestarts()
}

// tryRestart runs one relaunch → redial → replay sequence. It returns the
// adopted-ready client, or nil and the step error when any step failed
// (the failure counts against the dial streak like any probe miss, and
// the error becomes the outage's reported cause).
func (s *Supervised) tryRestart() (*Client, error) {
	s.mu.Lock()
	s.restarts++
	attempt := s.restarts
	s.mu.Unlock()
	cSupRestarts.Inc()
	addr, err := s.opts.Restart.Relaunch(attempt)
	if err != nil {
		return nil, fmt.Errorf("orb: relaunch attempt %d: %w", attempt, err)
	}
	c, err := DialClient(s.tr, addr)
	if err != nil {
		return nil, fmt.Errorf("orb: redial after relaunch: %w", err)
	}
	if ck := s.opts.Restart.Checkpoint; ck != nil {
		if state := ck(); len(state) > 0 {
			if _, err := c.Invoke(RestoreKey, restoreMethod, state); err != nil {
				c.Close()
				return nil, fmt.Errorf("orb: checkpoint replay: %w", err)
			}
			cSupRestores.Inc()
		}
	}
	// The relaunched servant may live at a new address; future redials
	// and heartbeats must follow it.
	s.mu.Lock()
	s.addr = addr
	s.mu.Unlock()
	return c, nil
}
