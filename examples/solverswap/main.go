// Solverswap reproduces the paper's §2.2 motivation with the ESI component
// suite: "enabling applications like CHAD to experiment more easily with
// multiple solution strategies and to upgrade as new algorithms ... are
// discovered and encapsulated within toolkits."
//
// Part one is the classic experiment: a 2-D advection-diffusion operator
// component is wired, through identical CCA port connections, to each of
// the repository's solver components (CG, GMRES, BiCGStab) crossed with
// each preconditioner component (none, Jacobi, SOR, ILU0). The
// application code never changes — only the builder's connect calls — and
// the program prints the resulting iteration/time table.
//
// Part two is the live upgrade the paper could only gesture at: a
// step-wise CG solver is hot-swapped for a fresh instance twice, mid-solve,
// while a driver keeps stepping it. The framework quiesces the port (the
// driver sees only the typed retryable "port quiescing" shed), carries the
// mid-Krylov checkpoint into the replacement, re-wires the connections,
// and the solve resumes exactly where it stopped — no lost iterations, no
// restart.
//
// Run:
//
//	go run ./examples/solverswap [-n 64] [-vx 8] [-vy 4]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/repo"
)

func main() {
	n := flag.Int("n", 48, "grid points per side")
	vx := flag.Float64("vx", 8, "advection velocity x")
	vy := flag.Float64("vy", 4, "advection velocity y")
	tol := flag.Float64("tol", 1e-8, "solver tolerance")
	flag.Parse()

	a := linalg.AdvDiff2D(*n, *n, *vx, *vy)
	b := make([]float64, a.NRows)
	if err := a.Apply(linalg.Ones(a.NCols), b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d unknowns, %d nonzeros (advection-diffusion, v=(%g,%g))\n\n",
		a.NRows, a.NNZ(), *vx, *vy)
	fmt.Printf("%-10s %-8s %8s %12s %12s %s\n", "solver", "prec", "iters", "relres", "time", "note")

	for _, method := range []string{"cg", "gmres", "bicgstab"} {
		for _, prec := range []string{"none", "jacobi", "sor", "ilu0"} {
			iters, res, dur, err := runOnce(a, b, method, prec, *tol)
			note := ""
			if err != nil {
				note = err.Error()
				if len(note) > 48 {
					note = note[:48] + "..."
				}
			}
			fmt.Printf("%-10s %-8s %8d %12.3e %12v %s\n", method, prec, iters, res, dur.Round(time.Microsecond), note)
		}
	}

	if err := liveSwap(*n, *tol); err != nil {
		log.Fatal(err)
	}
}

// newApp is the application container: a builder over a repository holding
// the ESI deposits.
func newApp() (*repo.Builder, error) {
	r := repo.New()
	if err := esi.Deposit(r); err != nil {
		return nil, err
	}
	return repo.NewBuilder(r, framework.Options{}), nil
}

// runOnce assembles a fresh app, swaps in the requested solver and
// preconditioner components, and solves.
func runOnce(a *linalg.CSR, b []float64, method, prec string, tol float64) (int32, float64, time.Duration, error) {
	app, err := newApp()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := app.Fw.Install("op", esi.NewOperatorComponent(a)); err != nil {
		return 0, 0, 0, err
	}
	if err := app.Create("solver", "esi.SolverComponent."+method); err != nil {
		return 0, 0, 0, err
	}
	if err := app.Create("prec", "esi.PreconditionerComponent."+prec); err != nil {
		return 0, 0, 0, err
	}
	for _, c := range [][4]string{
		{"solver", "A", "op", "A"},
		{"prec", "A", "op", "A"},
		{"solver", "M", "prec", "M"},
	} {
		if _, err := app.Fw.Connect(c[0], c[1], c[2], c[3]); err != nil {
			return 0, 0, 0, err
		}
	}
	comp, _ := app.Component("solver")
	solver := comp.(esi.EsiSolver)
	solver.SetTolerance(tol)
	// CG legitimately fails on this nonsymmetric system (part of the
	// demonstration); cap its futile iterations to keep the table quick.
	solver.SetMaxIterations(2000)
	x := make([]float64, a.NRows)
	start := time.Now()
	iters, err := solver.Solve(b, &x)
	return iters, solver.FinalResidual(), time.Since(start), err
}

// driver is the application-side component holding the uses port the live
// solve is stepped through.
type driver struct{ svc cca.Services }

func (d *driver) SetServices(svc cca.Services) error {
	d.svc = svc
	return svc.RegisterUsesPort(cca.PortInfo{Name: "solver", Type: esi.TypeIterativeSolver})
}

// stepSolver is the slice of the step-wise port the driver needs.
type stepSolver interface {
	SetTolerance(tol float64)
	Begin(b []float64) error
	Step(k int) (it int, resid float64, done bool, err error)
	Solution() []float64
	Residual() float64
	Converged() bool
}

// liveSwap hot-swaps a running step-wise CG solver twice mid-solve while
// the driver keeps stepping — the checkpointed Krylov state carries across
// each swap, so the iteration count never resets.
func liveSwap(n int, tol float64) error {
	a := linalg.Poisson2D(n, n)
	b := make([]float64, a.NRows)
	if err := a.Apply(linalg.Ones(a.NCols), b); err != nil {
		return err
	}
	fmt.Printf("\nlive swap under standing load (Poisson %d² = %d unknowns, step-wise CG):\n",
		n, a.NRows)

	app, err := newApp()
	if err != nil {
		return err
	}
	if err := app.Fw.Install("op", esi.NewOperatorComponent(a)); err != nil {
		return err
	}
	if err := app.Create("itersolver", "esi.IterativeSolverComponent.cg"); err != nil {
		return err
	}
	d := &driver{}
	if err := app.Fw.Install("drive", d); err != nil {
		return err
	}
	for _, c := range [][4]string{
		{"itersolver", "A", "op", "A"},
		{"drive", "solver", "itersolver", "solver"},
	} {
		if _, err := app.Fw.Connect(c[0], c[1], c[2], c[3]); err != nil {
			return err
		}
	}

	// acquire retries the typed quiescing shed — the only error a swap
	// window is allowed to surface to callers.
	var sheds atomic.Int64
	acquire := func() (stepSolver, error) {
		for {
			port, err := d.svc.GetPort("solver")
			if err == nil {
				return port.(stepSolver), nil
			}
			if !errors.Is(err, cca.ErrPortQuiescing) {
				return nil, err
			}
			sheds.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}

	s, err := acquire()
	if err != nil {
		return err
	}
	s.SetTolerance(tol)
	if err := s.Begin(b); err != nil {
		return err
	}
	d.svc.ReleasePort("solver")

	// The standing load: keep stepping through the port until convergence,
	// reporting each iteration count so the swapper can fire mid-solve.
	var iters atomic.Int64
	itCh := make(chan int)
	solveDone := make(chan error, 1)
	go func() {
		defer close(itCh)
		for {
			s, err := acquire()
			if err != nil {
				solveDone <- err
				return
			}
			it, _, done, err := s.Step(1)
			d.svc.ReleasePort("solver")
			if err != nil {
				solveDone <- err
				return
			}
			iters.Store(int64(it))
			if done {
				solveDone <- nil
				return
			}
			itCh <- it
			// Pace the loop: a production Krylov iteration is compute-bound
			// for far longer than this toy 2-D stencil, and the pacing keeps
			// the solve in flight long enough for the swaps to land mid-run.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Two live swaps, each triggered the moment the solve crosses its
	// threshold. The swap runs concurrently with the stepper: during the
	// quiesce window every stepper acquisition sheds, and the moment the
	// gates lift it resumes from the carried state.
	runSwap := func(swapNo, at int) error {
		swapErr := make(chan error, 1)
		start := time.Now()
		go func() {
			swapErr <- app.Fw.Swap("itersolver", esi.NewIterativeSolverComponent())
		}()
		// Keep draining so the stepper stands as live load while the
		// framework quiesces, transfers state, and re-wires; check the
		// swap result first after every iteration so the stepper cannot
		// race past the next threshold unobserved.
		drain := itCh
		for {
			select {
			case err := <-swapErr:
				if err != nil {
					return err
				}
				fmt.Printf("  swap %d at iteration %d: window %v, state carried into fresh instance\n",
					swapNo, at, time.Since(start).Round(time.Microsecond))
				return nil
			case _, ok := <-drain:
				if !ok {
					drain = nil // solve finished; the swap result still decides
					continue
				}
				select {
				case err := <-swapErr:
					if err != nil {
						return err
					}
					fmt.Printf("  swap %d at iteration %d: window %v, state carried into fresh instance\n",
						swapNo, at, time.Since(start).Round(time.Microsecond))
					return nil
				default:
				}
			}
		}
	}
	for swapNo, threshold := range []int{5, 10} {
		fired := false
		for it := range itCh {
			if it < threshold {
				continue
			}
			if err := runSwap(swapNo+1, it); err != nil {
				return err
			}
			fired = true
			break
		}
		if !fired {
			return fmt.Errorf("solve converged before swap %d fired; lower the thresholds", swapNo+1)
		}
	}
	for range itCh {
		// drain the remaining iterations to convergence
	}

	if err := <-solveDone; err != nil {
		return err
	}
	s, err = acquire()
	if err != nil {
		return err
	}
	maxErr := 0.0
	for _, v := range s.Solution() {
		if e := math.Abs(v - 1); e > maxErr {
			maxErr = e
		}
	}
	converged := s.Converged()
	resid := s.Residual()
	d.svc.ReleasePort("solver")
	fmt.Printf("  converged=%v iters=%d relres=%.3e max|x-1|=%.3e sheds=%d (all typed retryable)\n",
		converged, iters.Load(), resid, maxErr, sheds.Load())
	if !converged || maxErr > 1e-6 {
		return fmt.Errorf("live-swapped solve did not converge to the manufactured solution")
	}
	return nil
}
