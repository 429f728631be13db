// Package array provides the scientific data types the CCA paper's SIDL
// requires (§5): dynamically dimensioned multidimensional arrays with
// Fortran- or C-style storage order, complex-number arrays, and the
// distributed-array descriptors that collective ports (§6.3) use to
// describe how data is laid out across the ranks of a parallel component.
//
// The paper singles out "Fortran-style dynamic multidimensional arrays and
// complex numbers" as the abstractions missing from COM/CORBA/JavaBeans;
// this package is the Go realization of those IDL primitive types.
//
// The DataMap descriptors (dist.go) — block, cyclic, block-cyclic,
// serial, and the validated irregular run-list form (NewRunsMap) that
// cross-process plan exchange decodes from the wire — are what the
// collective-port planner intersects into message schedules. Experiment
// E4 exercises them in-process and experiment E11 across processes
// (go test -bench 'E4_|E11_' .); the N-d array and complex types are exercised
// by the SIDL toolchain experiments (E1, E7).
package array
