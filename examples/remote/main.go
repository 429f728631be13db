// Remote demonstrates §6.1's distributed connections: "loosely coupled
// distributed connections should be available through the very same
// interface as the tightly coupled direct connections, without the
// components being aware of the connection type."
//
// A "server" framework hosts the matrix and exports its esi.MatrixData
// port over TCP. A "client" framework installs a proxy component for it and
// connects an unmodified CG solver component. The solver cannot tell it is
// calling across a socket — it just observes higher latency, which the
// program reports by also timing the same solve against a direct local
// connection.
//
// Run:
//
//	go run ./examples/remote [-n 24]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/cca"
	"repro/internal/cca/framework"
	"repro/internal/dist"
	"repro/internal/esi"
	"repro/internal/linalg"
	"repro/internal/orb"
	"repro/internal/transport"
)

func main() {
	n := flag.Int("n", 24, "grid points per side")
	flag.Parse()

	m := linalg.Poisson2D(*n, *n)
	b := make([]float64, m.NRows)
	if err := m.Apply(linalg.Ones(m.NCols), b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: 2-D Poisson %d² = %d unknowns\n\n", *n, m.NRows)

	// --- server side ---
	server := framework.New(framework.Options{})
	if err := server.Install("op", esi.NewOperatorComponent(m)); err != nil {
		log.Fatal(err)
	}
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	exp := dist.NewExporter(server, l)
	defer exp.Close()
	key, err := exp.Export("op", "A")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: exported %s at %s\n", key, exp.Addr())

	// --- client side: remote connection ---
	client := framework.New(framework.Options{
		Flavor:    cca.FlavorInProcess | cca.FlavorDistributed,
		TypeCheck: esi.TypeChecker(),
	})
	rp, err := dist.InstallSupervisedRemoteOperator(client, "remoteA", "A", transport.TCP{}, exp.Addr(), key, esi.TypeMatrixData, orb.SupervisorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer rp.Close()
	if err := client.Install("solver", esi.NewSolverComponent("cg")); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Connect("solver", "A", "remoteA", "A"); err != nil {
		log.Fatal(err)
	}
	solve(client, "remote (TCP)", b, m.NRows)

	// --- same solve, direct local connection, for comparison ---
	local := framework.New(framework.Options{TypeCheck: esi.TypeChecker()})
	if err := local.Install("op", esi.NewOperatorComponent(m)); err != nil {
		log.Fatal(err)
	}
	if err := local.Install("solver", esi.NewSolverComponent("cg")); err != nil {
		log.Fatal(err)
	}
	if _, err := local.Connect("solver", "A", "op", "A"); err != nil {
		log.Fatal(err)
	}
	solve(local, "direct", b, m.NRows)
}

func solve(fw *framework.Framework, label string, b []float64, n int) {
	comp, _ := fw.Component("solver")
	solver := comp.(esi.EsiSolver)
	solver.SetTolerance(1e-8)
	x := make([]float64, n)
	start := time.Now()
	iters, err := solver.Solve(b, &x)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("client: %-12s iters=%d relres=%.2e time=%v\n",
		label, iters, solver.FinalResidual(), time.Since(start).Round(time.Microsecond))
}
