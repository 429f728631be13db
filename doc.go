// Package repro is a Go reproduction of "Toward a Common Component
// Architecture for High-Performance Scientific Computing" (Armstrong,
// Gannon, Geist, Keahey, Kohn, McInnes, Parker, Smolinski; HPDC 1999).
//
// The library implements the full architecture the paper specifies — the
// SIDL compiler toolchain (lexer, parser, resolver, Go code generator,
// reflection/DMI runtime), the provides/uses ports model with
// direct-connect and collective extensions, the reference framework with
// its CCAServices, repository, and builder/configuration APIs — together
// with every substrate its motivating application needs: an MPI-like
// message-passing layer, distributed-data maps for collective ports, an
// unstructured-mesh gather/scatter layer, sparse Krylov solvers, a
// CHAD-like semi-implicit flow mini-app, visualization components, and the
// CORBA-like and JavaBeans-like baselines the paper argues against.
//
// See DESIGN.md for the system inventory and the experiment index, and
// EXPERIMENTS.md for paper-claim-versus-measured results. The top-level
// bench_test.go and bench_dist_test.go hold one benchmark family per
// experiment (E1–E15) and per ablation: go test -run '^$' -bench E4_ .
package repro
