// Package mpirun launches and supervises a multi-process SPMD cohort: it
// runs the rendezvous service in the launcher process, spawns one OS
// process per rank with its identity in the CCA_MPI_* environment, and
// restarts ranks that die within a configured budget — the survivors
// re-join the rendezvous and the cohort re-forms as the next generation.
//
// cmd/ccalaunch is the CLI front end; examples/spmd uses the package
// directly (self-exec) to run the paper's Figure 1 pipeline as real
// processes.
package mpirun

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Config describes a cohort launch.
type Config struct {
	// Size is the number of ranks (one OS process each).
	Size int
	// Rendezvous is the scheme-qualified address the rendezvous service
	// listens on; empty means "tcp://127.0.0.1:0". With an shm:// or
	// tcp:// address, the ranks' peer meshes default to the same scheme
	// (see mpi.ProcConfig.Listen).
	Rendezvous string
	// Command is the argv each rank runs. The rank's identity is passed in
	// the environment, so all ranks share one argv.
	Command []string
	// MaxRestarts is the per-rank respawn budget: a rank process that
	// exits nonzero (or is killed) is relaunched at most this many times.
	MaxRestarts int
}

// Launcher supervises one cohort.
type Launcher struct {
	cfg  Config
	rv   *mpi.Rendezvous
	addr string

	mu       sync.Mutex
	cmds     []*exec.Cmd
	restarts []int
	closing  bool
	errs     []error
	wg       sync.WaitGroup
}

// New starts the rendezvous service and prepares a launcher. Call Start
// to spawn the ranks and Wait to supervise them to completion.
func New(cfg Config) (*Launcher, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mpirun: nonpositive cohort size %d", cfg.Size)
	}
	if len(cfg.Command) == 0 {
		return nil, errors.New("mpirun: empty command")
	}
	if cfg.Rendezvous == "" {
		cfg.Rendezvous = "tcp://127.0.0.1:0"
	}
	tr, rest, err := transport.ForScheme(cfg.Rendezvous)
	if err != nil {
		return nil, err
	}
	l, err := tr.Listen(rest)
	if err != nil {
		return nil, fmt.Errorf("mpirun: rendezvous listen %s: %w", cfg.Rendezvous, err)
	}
	return &Launcher{
		cfg:      cfg,
		rv:       mpi.NewRendezvous(l, cfg.Size),
		addr:     transport.Scheme(cfg.Rendezvous) + "://" + l.Addr(),
		cmds:     make([]*exec.Cmd, cfg.Size),
		restarts: make([]int, cfg.Size),
		errs:     make([]error, cfg.Size),
	}, nil
}

// RendezvousAddr returns the dialable scheme-qualified address of the
// rendezvous service.
func (l *Launcher) RendezvousAddr() string { return l.addr }

// Rendezvous exposes the underlying service (formation notifications for
// tests and chaos hooks).
func (l *Launcher) Rendezvous() *mpi.Rendezvous { return l.rv }

// Start spawns all Size rank processes and begins supervising them.
func (l *Launcher) Start() error {
	for r := 0; r < l.cfg.Size; r++ {
		if err := l.spawn(r); err != nil {
			l.Close()
			return err
		}
		l.wg.Add(1)
		go l.monitor(r)
	}
	return nil
}

// spawn launches rank r's process and records it.
func (l *Launcher) spawn(r int) error {
	cmd := exec.Command(l.cfg.Command[0], l.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(),
		mpi.EnvRendezvous+"="+l.addr,
		fmt.Sprintf("%s=%d", mpi.EnvRank, r),
		fmt.Sprintf("%s=%d", mpi.EnvSize, l.cfg.Size),
	)
	// The ranks share the launcher's own output.
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("mpirun: rank %d: %w", r, err)
	}
	l.mu.Lock()
	l.cmds[r] = cmd
	l.mu.Unlock()
	return nil
}

// monitor waits on rank r's process, respawning it on abnormal exit while
// budget remains. A clean exit (status 0) ends supervision of the rank.
func (l *Launcher) monitor(r int) {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		cmd := l.cmds[r]
		l.mu.Unlock()
		err := cmd.Wait()
		if err == nil {
			return
		}
		l.mu.Lock()
		if l.closing {
			l.mu.Unlock()
			return
		}
		if l.restarts[r] >= l.cfg.MaxRestarts {
			l.errs[r] = fmt.Errorf("mpirun: rank %d: %w", r, err)
			l.mu.Unlock()
			return
		}
		l.restarts[r]++
		l.mu.Unlock()
		if err := l.spawn(r); err != nil {
			l.mu.Lock()
			l.errs[r] = err
			l.mu.Unlock()
			return
		}
	}
}

// Wait blocks until every rank has exited cleanly or exhausted its
// restart budget, then returns the joined per-rank failures (nil on full
// success).
func (l *Launcher) Wait() error {
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(l.errs...)
}

// Kill hard-kills rank r's current process — the chaos hook. The monitor
// observes the abnormal exit and respawns within budget.
func (l *Launcher) Kill(r int) error {
	if r < 0 || r >= l.cfg.Size {
		return fmt.Errorf("mpirun: kill rank %d out of range", r)
	}
	l.mu.Lock()
	cmd := l.cmds[r]
	l.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("mpirun: rank %d not running", r)
	}
	return cmd.Process.Kill()
}

// Close stops supervision, kills any live rank processes, and shuts the
// rendezvous down. Safe after Wait (no-ops on exited ranks).
func (l *Launcher) Close() {
	l.mu.Lock()
	l.closing = true
	cmds := append([]*exec.Cmd(nil), l.cmds...)
	l.mu.Unlock()
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
	l.rv.Close()
	// Reap so no zombies outlive the launcher; monitors may be gone
	// already when Close runs after Wait.
	done := make(chan struct{})
	go func() { l.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}
