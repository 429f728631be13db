package mpirun

// Launcher tests with real OS processes: the test binary re-execs itself
// as rank workers (TestMain routes on MPIRUN_TEST_MODE), so every test
// here exercises the full path — env-var identity, rendezvous over a real
// transport, cross-process mesh, collectives over the wire, and crash
// supervision with generational re-formation.

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/mpi"
)

const modeEnv = "MPIRUN_TEST_MODE"

func TestMain(m *testing.M) {
	if mode := os.Getenv(modeEnv); mode != "" {
		workerMain(mode)
		return
	}
	os.Exit(m.Run())
}

// workerMain is one rank process. Modes: "clean" runs rounds and exits 0;
// "crash-rank3" additionally exits nonzero on rank 3's first generation,
// so the launcher must respawn it and the survivors must re-form.
func workerMain(mode string) {
	for attempt := 0; attempt < 4; attempt++ {
		comm, proc, err := mpi.Join()
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker join:", err)
			os.Exit(1)
		}
		if mode == "crash-rank3" && comm.Rank() == 3 && proc.Generation() == 1 {
			os.Exit(3) // simulated crash right after world formation
		}
		err = workerRounds(comm)
		if err != nil {
			var dead *mpi.RankDeadError
			if errors.As(err, &dead) {
				proc.Close()
				continue // re-join the next generation
			}
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		proc.Close()
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, "worker: gave up re-joining")
	os.Exit(1)
}

func workerRounds(comm *mpi.Comm) error {
	for i := 0; i < 10; i++ {
		got, err := comm.AllreduceScalar(float64(comm.Rank()), mpi.Sum)
		if err != nil {
			return err
		}
		n := comm.Size()
		if want := float64(n * (n - 1) / 2); got != want {
			return fmt.Errorf("round %d allreduce = %v, want %v", i, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// newTestLauncher starts this test binary as each rank in the given mode.
// The ranks inherit the test's environment, which carries the mode.
func newTestLauncher(t *testing.T, rendezvous, mode string, size, restarts int) *Launcher {
	t.Helper()
	t.Setenv(modeEnv, mode)
	l, err := New(Config{
		Size:        size,
		Rendezvous:  rendezvous,
		Command:     []string{os.Args[0]},
		MaxRestarts: restarts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l
}

func TestLauncherConfigValidation(t *testing.T) {
	if _, err := New(Config{Size: 0, Command: []string{"x"}}); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := New(Config{Size: 2}); err == nil {
		t.Error("empty command accepted")
	}
	if _, err := New(Config{Size: 2, Command: []string{"x"}, Rendezvous: "bogus://y"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestLauncherRunsCohortTCP(t *testing.T) {
	l := newTestLauncher(t, "tcp://127.0.0.1:0", "clean", 4, 0)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(); err != nil {
		t.Fatalf("cohort failed: %v", err)
	}
	if g := l.Rendezvous().Generations(); g != 1 {
		t.Errorf("generations = %d, want 1", g)
	}
	for r := 0; r < 4; r++ {
		if restarts(l, r) != 0 {
			t.Errorf("rank %d restarted %d times in a clean run", r, restarts(l, r))
		}
	}
}

func TestLauncherRunsCohortSHM(t *testing.T) {
	l := newTestLauncher(t, "shm://"+t.TempDir()+"/rv", "clean", 4, 0)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(); err != nil {
		t.Fatalf("cohort failed: %v", err)
	}
	if g := l.Rendezvous().Generations(); g != 1 {
		t.Errorf("generations = %d, want 1", g)
	}
}

func TestLauncherRestartsCrashedRank(t *testing.T) {
	// Rank 3 crashes after generation 1 forms; the launcher respawns it,
	// the survivors observe the death and re-join, and generation 2
	// completes cleanly — the §2.2 long-running-simulation recovery story
	// at launcher level.
	l := newTestLauncher(t, "tcp://127.0.0.1:0", "crash-rank3", 4, 1)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(); err != nil {
		t.Fatalf("cohort did not recover: %v", err)
	}
	if g := l.Rendezvous().Generations(); g != 2 {
		t.Errorf("generations = %d, want 2", g)
	}
	if restarts(l, 3) != 1 {
		t.Errorf("rank 3 restarts = %d, want 1", restarts(l, 3))
	}
}

func TestLauncherKillExhaustsBudget(t *testing.T) {
	// With no restart budget, a crashed rank is a cohort failure: the
	// survivors' re-joins hit the formation timeout instead of hanging on
	// a world that can never re-form, and Wait reports the failures.
	t.Setenv(mpi.EnvTimeout, "1s")
	l := newTestLauncher(t, "tcp://127.0.0.1:0", "crash-rank3", 4, 0)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(); err == nil {
		t.Fatal("Wait reported success although rank 3 crashed with no budget")
	}
}

// restarts reports how many times rank r has been respawned.
func restarts(l *Launcher, r int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.restarts[r]
}
