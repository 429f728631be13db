// Package array holds the distributed-data descriptors that collective
// ports (§6.3 of the CCA paper) use to describe how a data set is laid out
// across the ranks of a parallel component.
//
// A DataMap — block, cyclic, block-cyclic, serial, or the validated
// irregular run-list form (NewRunsMap) that cross-process plan exchange
// decodes from the wire — reduces to canonical runs, and the collective-port
// planner intersects two maps' runs into a message schedule. The ccl, hydro
// and viz packages, both collective layers and the benchmark's M×N workload
// build their distributions from it. Experiment E4 exercises it in-process
// and experiment E11 across processes (go test -bench 'E4_|E11_' .).
//
// The SIDL types `array<T,N>` and `dcomplex` stay in the interface
// language (internal/sidl parses, resolves and prints them); the Go
// bindings map rank-1 arrays to slices and report higher ranks as
// unsupported, so no dense N-d array type lives here.
package array
